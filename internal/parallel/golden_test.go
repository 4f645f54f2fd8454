package parallel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prefine"
	"repro/internal/serial"
)

// goldenCase is one pinned parallel run: the input (mesh, workload type,
// constraint count) and the partitioner settings, with the exact outputs
// the run produced when the grid was captured.
type goldenCase struct {
	mesh    string
	typ     int // 1 or 2: gen.Type1 or gen.Type2
	m, k, p int
	scheme  prefine.Scheme
	dirf    bool

	hash    uint64 // FNV-1a of the labels (labelHash)
	cut     int64
	moves   int64
	simBits uint64 // math.Float64bits(Stats.SimTime)
}

// goldenGrid covers every value of each axis at least once: both tiny
// meshes, both workload types, m in {1,3,5}, k in {8,64}, p in {4,16},
// all four refinement schemes, and the direction filter on and off.
var goldenGrid = []goldenCase{
	{mesh: "mrng1t", typ: 1, m: 1, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x1970ae313c99e6d4, cut: 1625, moves: 48, simBits: 0x3f871cbc967739e5},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x657a6a4ca1bab8d7, cut: 2094, moves: 74, simBits: 0x3f8b8f5201a5529f},
	{mesh: "mrng1t", typ: 1, m: 5, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0xb07fdd339eeabee5, cut: 2560, moves: 111, simBits: 0x3f921ac3aad914d5},
	{mesh: "mrng1t", typ: 2, m: 1, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x4ded7453f7146223, cut: 1601, moves: 87, simBits: 0x3f80789f947e7e6c},
	{mesh: "mrng1t", typ: 2, m: 3, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x8c946a0f03e70586, cut: 4607, moves: 116, simBits: 0x3f8a7d3191c4fa3d},
	{mesh: "mrng1t", typ: 2, m: 5, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x4acc92aeb1dbb796, cut: 6271, moves: 225, simBits: 0x3f9371721e859b17},
	{mesh: "mrng1t", typ: 1, m: 3, k: 64, p: 4, scheme: prefine.Reservation,
		hash: 0xf9ae6201ff683b93, cut: 6229, moves: 82, simBits: 0x3f905aa7965c7858},
	{mesh: "mrng1t", typ: 2, m: 3, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0xa0385cf258a2ab9f, cut: 13690, moves: 86, simBits: 0x3f906a14cf4d8e22},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 16, scheme: prefine.Reservation,
		hash: 0x418b52f972f67eb4, cut: 2087, moves: 40, simBits: 0x3f8d4337b300bb07},
	{mesh: "mrng1t", typ: 1, m: 5, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0xc215f6a46a5bccaf, cut: 7284, moves: 120, simBits: 0x3fa7344666685564},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Slice,
		hash: 0x38c11e9e0698bba5, cut: 2072, moves: 64, simBits: 0x3f87a26660a0ee60},
	{mesh: "mrng1t", typ: 2, m: 3, k: 8, p: 16, scheme: prefine.Slice,
		hash: 0xa4391895ab427c17, cut: 5123, moves: 7, simBits: 0x3f86a0216fa7b2d0},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.SliceSmart,
		hash: 0x8d84c70d16a4065, cut: 2326, moves: 99, simBits: 0x3f8eeccbd37a265b},
	{mesh: "mrng1t", typ: 2, m: 5, k: 8, p: 16, scheme: prefine.SliceSmart,
		hash: 0xf8fa69dc46da88e1, cut: 7298, moves: 97, simBits: 0x3f8a64622bf96b03},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Free,
		hash: 0xa67a8caecf641265, cut: 2098, moves: 119, simBits: 0x3f83b9e573ca988e},
	{mesh: "mrng1t", typ: 2, m: 3, k: 64, p: 4, scheme: prefine.Free,
		hash: 0x30377fc7c5ed412, cut: 14168, moves: 8456, simBits: 0x3fb3c35a65daae09},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Reservation, dirf: true,
		hash: 0xbafca8ee1d288f35, cut: 2109, moves: 107, simBits: 0x3f89ee1af9763b22},
	{mesh: "mrng1t", typ: 2, m: 5, k: 8, p: 16, scheme: prefine.Reservation, dirf: true,
		hash: 0x681017c9061d8a3, cut: 7159, moves: 109, simBits: 0x3f9423306ceb76e9},
	{mesh: "mrng1t", typ: 1, m: 1, k: 64, p: 16, scheme: prefine.Slice, dirf: true,
		hash: 0x8492ab886751838f, cut: 4429, moves: 12, simBits: 0x3f9385ced04bf705},
	{mesh: "mrng1t", typ: 2, m: 3, k: 8, p: 4, scheme: prefine.Free, dirf: true,
		hash: 0xc7977f7c570e0631, cut: 4779, moves: 1243, simBits: 0x3f95dba1991ad846},
	{mesh: "mrng2t", typ: 1, m: 1, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x961f007af8c6c506, cut: 3965, moves: 406, simBits: 0x3fa2fffbe64f5bad},
	{mesh: "mrng2t", typ: 1, m: 3, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0x4a128ccdce233808, cut: 16359, moves: 635, simBits: 0x3fa49dcddbc085d3},
	{mesh: "mrng2t", typ: 2, m: 3, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0xa1589ffbac106f02, cut: 34631, moves: 860, simBits: 0x3fa33fe6e8047574},
	{mesh: "mrng2t", typ: 2, m: 5, k: 8, p: 16, scheme: prefine.Reservation,
		hash: 0x87c79504452ddfe3, cut: 15311, moves: 763, simBits: 0x3faa175a94bff923},
	{mesh: "mrng2t", typ: 2, m: 5, k: 64, p: 4, scheme: prefine.Reservation,
		hash: 0x2e15d113a54ad965, cut: 50613, moves: 1701, simBits: 0x3fbb5aa8ba6b42f4},
	{mesh: "mrng2t", typ: 1, m: 5, k: 64, p: 4, scheme: prefine.SliceSmart,
		hash: 0xe02e3f7831b59f7e, cut: 21469, moves: 716, simBits: 0x3fbd73d79693fb90},
	{mesh: "mrng2t", typ: 2, m: 1, k: 64, p: 16, scheme: prefine.Slice,
		hash: 0xabd69065b3a2ad9, cut: 12505, moves: 359, simBits: 0x3f96cd3adf38afe7},
	{mesh: "mrng2t", typ: 1, m: 3, k: 8, p: 16, scheme: prefine.Free,
		hash: 0x4a246362c0238f6, cut: 7195, moves: 17267, simBits: 0x3fae91cdb1f4e63a},
	{mesh: "mrng2t", typ: 2, m: 3, k: 8, p: 4, scheme: prefine.Reservation, dirf: true,
		hash: 0x5f7bb499a2aacdd1, cut: 10218, moves: 498, simBits: 0x3fb004b9c58074c4},
	{mesh: "mrng2t", typ: 1, m: 3, k: 64, p: 16, scheme: prefine.SliceSmart, dirf: true,
		hash: 0xfd05ca674a820b9, cut: 17260, moves: 272, simBits: 0x3fa30ada4cddc161},
}

func (c goldenCase) name() string {
	s := fmt.Sprintf("%s/type%d/m%d/k%d/p%d/%s", c.mesh, c.typ, c.m, c.k, c.p, c.scheme)
	if c.dirf {
		s += "/dirfilter"
	}
	return s
}

// goldenInput builds a case's graph: the named tiny mesh with a Type 1 or
// Type 2 overlay of m constraints.
func goldenInput(t *testing.T, mesh string, typ, m int) *graph.Graph {
	t.Helper()
	spec, ok := gen.MeshByName(mesh)
	if !ok {
		t.Fatalf("unknown mesh %q", mesh)
	}
	base := spec.Build(7)
	if typ == 2 {
		return gen.Type2(base, m, 42)
	}
	return gen.Type1(base, m, 42)
}

// labelHash is the FNV-1a hash of the labels as little-endian int32s.
func labelHash(part []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range part {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// simTimeMatches reports whether a run's simulated time equals the pinned
// bits. The clock is a long sum of products. The amd64 compiler rounds
// every step, and there the bits must match exactly; arm64, ppc64le,
// s390x and riscv64 fuse multiply-adds, so there the time must only agree
// to within 1e-9 (a real change to the charges moves it by far more).
func simTimeMatches(got float64, want uint64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == want
	}
	w := math.Float64frombits(want)
	return math.Abs(got-w) <= 1e-9*w
}

// TestGoldenParallelGrid pins the exact output of the parallel partitioner
// over goldenGrid: the labels (by hash), the edge-cut, the committed moves
// and the bits of the simulated time (see simTimeMatches). It holds the
// refinement and contraction kernels to bit-identity, the contract every
// performance change to pcoarsen or prefine must keep. With the mcdebug
// tag the invariant checks add gathers and cut reductions that advance
// the simulated clock, so there only the labels, cut and moves are
// compared.
//
// If the algorithm changes deliberately, re-capture the values and say so
// in the commit.
func TestGoldenParallelGrid(t *testing.T) {
	for i, c := range goldenGrid {
		t.Run(c.name(), func(t *testing.T) {
			g := goldenInput(t, c.mesh, c.typ, c.m)
			part, stats, err := Partition(g, c.k, c.p, Options{
				Seed:            uint64(1000 + i),
				Scheme:          c.scheme,
				DirectionFilter: c.dirf,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenCase{
				hash:    labelHash(part),
				cut:     stats.EdgeCut,
				moves:   stats.Moves,
				simBits: math.Float64bits(stats.SimTime),
			}
			if got.hash != c.hash || got.cut != c.cut || got.moves != c.moves ||
				(!check.Enabled && !simTimeMatches(stats.SimTime, c.simBits)) {
				t.Errorf("got hash: %#x, cut: %d, moves: %d, simBits: %#x (sim %.9g s); pinned hash: %#x, cut: %d, moves: %d, simBits: %#x",
					got.hash, got.cut, got.moves, got.simBits, stats.SimTime, c.hash, c.cut, c.moves, c.simBits)
			}
		})
	}
}

// TestGoldenParallelRepartition pins one Repartition run (diffusion through
// the reservation refiner on a drifted Type 1 problem) the same way.
func TestGoldenParallelRepartition(t *testing.T) {
	const (
		wantHash    = uint64(0xadaa9aff26af1a6)
		wantCut     = int64(2808)
		wantMoved   = 385
		wantSimBits = uint64(0x3f6fed2e1ed4dfea)
	)
	g0 := goldenInput(t, "mrng1t", 1, 3)
	part, _, err := serial.Partition(g0, 8, serial.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Triple the weights of the first eighth of the vertices, a slab of
	// the mesh, so diffusion has real load to move.
	g := g0.Clone()
	g.Vwgt = append([]int32(nil), g0.Vwgt...)
	for i := 0; i < len(g.Vwgt)/8; i++ {
		g.Vwgt[i] *= 3
	}
	newPart, stats, err := Repartition(g, part, 8, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hash, simBits := labelHash(newPart), math.Float64bits(stats.SimTime)
	if hash != wantHash || stats.EdgeCut != wantCut || stats.MovedVertices != wantMoved || !simTimeMatches(stats.SimTime, wantSimBits) {
		t.Errorf("got hash %#x, cut %d, moved %d, simBits %#x (%v, sim %.9g s); pinned hash %#x, cut %d, moved %d, simBits %#x",
			hash, stats.EdgeCut, stats.MovedVertices, simBits, stats.Method, stats.SimTime,
			wantHash, wantCut, wantMoved, wantSimBits)
	}
}
