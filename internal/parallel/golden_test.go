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
		hash: 0xf593880629afe340, cut: 1702, moves: 58, simBits: 0x3f8b9591e1ba25b8},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0xb035bef6f86fce75, cut: 2181, moves: 124, simBits: 0x3f86eb61f99f5caf},
	{mesh: "mrng1t", typ: 1, m: 5, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x569dfd08a2b03fc3, cut: 2858, moves: 152, simBits: 0x3f963fa4e42e1b08},
	{mesh: "mrng1t", typ: 2, m: 1, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0xd94b6e91890ecbf3, cut: 1557, moves: 115, simBits: 0x3f8222338bbc99f5},
	{mesh: "mrng1t", typ: 2, m: 3, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0xca2aa811962b8ca3, cut: 4557, moves: 178, simBits: 0x3f890f0a97b020bf},
	{mesh: "mrng1t", typ: 2, m: 5, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x7d5585579207eeb4, cut: 6517, moves: 214, simBits: 0x3f8f0f83f053d437},
	{mesh: "mrng1t", typ: 1, m: 3, k: 64, p: 4, scheme: prefine.Reservation,
		hash: 0x9cda84c250206a03, cut: 5984, moves: 176, simBits: 0x3f91dae1bf4b7aa1},
	{mesh: "mrng1t", typ: 2, m: 3, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0x9949f60df26b0848, cut: 13811, moves: 104, simBits: 0x3f959eac35d006f8},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 16, scheme: prefine.Reservation,
		hash: 0x39c88842d259f55, cut: 2089, moves: 40, simBits: 0x3f8959fa99cffa6c},
	{mesh: "mrng1t", typ: 1, m: 5, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0x8f6d158b851e6332, cut: 7191, moves: 100, simBits: 0x3fa31f7386e21154},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Slice,
		hash: 0x653ad72734ed8693, cut: 2137, moves: 86, simBits: 0x3f8412cd658d9e3e},
	{mesh: "mrng1t", typ: 2, m: 3, k: 8, p: 16, scheme: prefine.Slice,
		hash: 0x3b95e284fa826a05, cut: 5143, moves: 24, simBits: 0x3f86f0dae2d3e408},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.SliceSmart,
		hash: 0x6650545e747dda0, cut: 2286, moves: 91, simBits: 0x3f87ebf90b39dcfa},
	{mesh: "mrng1t", typ: 2, m: 5, k: 8, p: 16, scheme: prefine.SliceSmart,
		hash: 0x212ace46c9ef5ee1, cut: 7646, moves: 26, simBits: 0x3f86c41b74e6e1eb},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Free,
		hash: 0x7b116afd6af7d030, cut: 2132, moves: 622, simBits: 0x3f95f05800edc7b9},
	{mesh: "mrng1t", typ: 2, m: 3, k: 64, p: 4, scheme: prefine.Free,
		hash: 0xda0f190a1d42b896, cut: 14687, moves: 10169, simBits: 0x3fb3be557dc559af},
	{mesh: "mrng1t", typ: 1, m: 3, k: 8, p: 4, scheme: prefine.Reservation, dirf: true,
		hash: 0xda5dac9e3e3d51e5, cut: 2089, moves: 83, simBits: 0x3f8803f6262ee02c},
	{mesh: "mrng1t", typ: 2, m: 5, k: 8, p: 16, scheme: prefine.Reservation, dirf: true,
		hash: 0x82bfd795adbc2d71, cut: 6724, moves: 137, simBits: 0x3f9894602e44e013},
	{mesh: "mrng1t", typ: 1, m: 1, k: 64, p: 16, scheme: prefine.Slice, dirf: true,
		hash: 0xfa07dad15a2d2f21, cut: 4464, moves: 13, simBits: 0x3f93e5615d00fbb5},
	{mesh: "mrng1t", typ: 2, m: 3, k: 8, p: 4, scheme: prefine.Free, dirf: true,
		hash: 0x29faeb3d25bc7766, cut: 4448, moves: 1184, simBits: 0x3f96060df5b1d475},
	{mesh: "mrng2t", typ: 1, m: 1, k: 8, p: 4, scheme: prefine.Reservation,
		hash: 0x9280787c94515735, cut: 4017, moves: 442, simBits: 0x3fa40e0f246fa7d6},
	{mesh: "mrng2t", typ: 1, m: 3, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0x674763b7738b73aa, cut: 16537, moves: 770, simBits: 0x3fa4c54afa03a4d4},
	{mesh: "mrng2t", typ: 2, m: 3, k: 64, p: 16, scheme: prefine.Reservation,
		hash: 0xa7442f9e3c31535a, cut: 34873, moves: 1034, simBits: 0x3fa352c51489b471},
	{mesh: "mrng2t", typ: 2, m: 5, k: 8, p: 16, scheme: prefine.Reservation,
		hash: 0xbe5d7fa89debaa32, cut: 15890, moves: 793, simBits: 0x3fb0182a607f3087},
	{mesh: "mrng2t", typ: 2, m: 5, k: 64, p: 4, scheme: prefine.Reservation,
		hash: 0x515a0d49a09fd1fc, cut: 49209, moves: 2062, simBits: 0x3fb87f09395377c1},
	{mesh: "mrng2t", typ: 1, m: 5, k: 64, p: 4, scheme: prefine.SliceSmart,
		hash: 0xbb4161c07970eb8b, cut: 20820, moves: 576, simBits: 0x3fb740ba062afa52},
	{mesh: "mrng2t", typ: 2, m: 1, k: 64, p: 16, scheme: prefine.Slice,
		hash: 0x8a9f75bffe86df22, cut: 12308, moves: 451, simBits: 0x3f97d56dd0d6003f},
	{mesh: "mrng2t", typ: 1, m: 3, k: 8, p: 16, scheme: prefine.Free,
		hash: 0xb1d6150227804b87, cut: 7402, moves: 16779, simBits: 0x3fa8761355e8d7b8},
	{mesh: "mrng2t", typ: 2, m: 3, k: 8, p: 4, scheme: prefine.Reservation, dirf: true,
		hash: 0x8ecd64a628975132, cut: 10340, moves: 655, simBits: 0x3faea78693c3c711},
	{mesh: "mrng2t", typ: 1, m: 3, k: 64, p: 16, scheme: prefine.SliceSmart, dirf: true,
		hash: 0x4e5d88cd5d2cc8f3, cut: 17478, moves: 299, simBits: 0x3fa4b6685210fe81},
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
