package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
)

// serialGolden is one pinned serial run: how to build the input, the
// partitioner settings, and the exact outputs the run produced when the
// grid was captured.
type serialGolden struct {
	name  string
	input func(t *testing.T) *Graph
	k     int
	opt   SerialOptions
	want  goldenOut
}

// goldenOut is what a golden run pins.
type goldenOut struct {
	hash      uint64 // FNV-1a of the labels (goldenLabelHash)
	cut       int64
	moves     int
	levels    int
	coarsestN int
	restarts  int
	hierPeak  int64
	hierBudg  int64
}

// namedMesh builds one of the generator's named meshes with the vertex
// weights the CLI and the daemon use for --seed 1 (seed*7919+7).
func namedMesh(name string) func(t *testing.T) *Graph {
	return func(t *testing.T) *Graph {
		t.Helper()
		spec, ok := gen.MeshByName(name)
		if !ok {
			t.Fatalf("unknown mesh %q", name)
		}
		return spec.Build(7926)
	}
}

// serialGoldenGrid spans both coarsening schemes and the auto sniff, the
// single-constraint and multi-constraint matching rules, the balanced-edge
// tie-break on and off, k from 8 to 64, and hierarchies of one to nine
// levels (the 12^3 row never coarsens: it is below the 2,000-vertex target).
// The three mrng*t rows and plaw50k carry the cuts recorded in BENCH_5 and
// BENCH_9.
var serialGoldenGrid = []serialGolden{
	{name: "mesh12-type1-m3-k8", k: 8, opt: SerialOptions{Seed: 12345},
		input: func(*testing.T) *Graph { return Type1Workload(Mesh3D(12, 12, 12, 7), 3, 42) },
		want:  goldenOut{0x45491426bff04b96, 1103, 115, 1, 1728, 0, 0, 248048}},
	{name: "mrng1t-m1-k8", input: namedMesh("mrng1t"), k: 8, opt: SerialOptions{Seed: 1},
		want: goldenOut{0x750c469a338ac105, 1707, 250, 3, 1146, 0, 333916, 560352}},
	{name: "mrng2t-m1-k8", input: namedMesh("mrng2t"), k: 8, opt: SerialOptions{Seed: 1},
		want: goldenOut{0x8a5bf1159ac81bb0, 4141, 920, 5, 1856, 0, 1816348, 2200976}},
	{name: "mrng3t-m1-k8", input: namedMesh("mrng3t"), k: 8, opt: SerialOptions{Seed: 1},
		want: goldenOut{0x3c6206e9d9d3df85, 10411, 3105, 7, 1836, 0, 7939920, 9192864}},
	{name: "plaw50k-m2-cluster-k8", k: 8, opt: SerialOptions{Seed: 1, CoarsenScheme: CoarsenCluster},
		input: func(*testing.T) *Graph { return plawMC(PowerLawGraph(50000, 8, 2.5, 77), 2, 123) },
		want:  goldenOut{0x14672f3521dbe322, 113318, 23124, 9, 1498, 0, 21793224, 7675652}},
	{name: "mesh24-type1-m1-k16", k: 16, opt: SerialOptions{Seed: 5},
		input: func(*testing.T) *Graph { return Type1Workload(Mesh3D(24, 24, 24, 5), 1, 101) },
		want:  goldenOut{0xff9c5599fdb3221c, 5389, 1627, 5, 1841, 0, 1641288, 1943072}},
	{name: "mrng2t-type2-m3-k64", k: 64, opt: SerialOptions{Seed: 1},
		input: func(t *testing.T) *Graph { return Type2Workload(namedMesh("mrng2t")(t), 3, 42) },
		want:  goldenOut{0x2e1b1f39e31f0aa1, 30913, 3381, 5, 1856, 0, 1963628, 2363080}},
	{name: "plaw20k-m2-auto-k8", k: 8, opt: SerialOptions{Seed: 3, CoarsenScheme: CoarsenAuto},
		input: func(*testing.T) *Graph { return plawMC(PowerLawGraph(20000, 8, 2.5, 77), 2, 123) },
		want:  goldenOut{0x773f3c3c89bbe5d3, 45004, 7805, 7, 1502, 0, 6662016, 3060556}},
	{name: "mrng1t-type1-m3-k8-nobalancededge", k: 8, opt: SerialOptions{Seed: 2, NoBalancedEdge: true},
		input: func(t *testing.T) *Graph { return Type1Workload(namedMesh("mrng1t")(t), 3, 42) },
		want:  goldenOut{0xe297e7322d1a02b6, 2196, 506, 3, 2338, 0, 690640, 602848}},
}

func (o goldenOut) String() string {
	return fmt.Sprintf("goldenOut{hash: %#x, cut: %d, moves: %d, levels: %d, coarsestN: %d, restarts: %d, hierPeak: %d, hierBudg: %d}",
		o.hash, o.cut, o.moves, o.levels, o.coarsestN, o.restarts, o.hierPeak, o.hierBudg)
}

// goldenLabelHash is the FNV-1a hash of the labels as little-endian int32s.
func goldenLabelHash(part []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range part {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSerialGoldenGrid pins the exact output of the serial partitioner over
// serialGoldenGrid: the labels (by hash), the edge-cut, the refinement
// moves, the hierarchy's depth and coarsest size, the restarts, and the
// hierarchy memory plan's peak and budget. Every row runs at
// CoarsenWorkers 0, 2 and 4 against the same values, so the grid holds the
// coarsening kernels to bit-identity across worker counts and across
// commits. It does not skip under -short, so the mcdebug build runs it too.
//
// If the algorithm changes deliberately, re-capture the values and say so
// in the commit.
func TestSerialGoldenGrid(t *testing.T) {
	for _, c := range serialGoldenGrid {
		t.Run(c.name, func(t *testing.T) {
			g := c.input(t)
			for _, w := range []int{0, 2, 4} {
				opt := c.opt
				opt.CoarsenWorkers = w
				part, st, err := Serial(g, c.k, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got := goldenOut{
					hash:      goldenLabelHash(part),
					cut:       st.EdgeCut,
					moves:     st.Moves,
					levels:    st.Levels,
					coarsestN: st.CoarsestN,
					restarts:  st.Restarts,
					hierPeak:  st.HierPeakBytes,
					hierBudg:  st.HierBudgetBytes,
				}
				if got != c.want {
					t.Errorf("workers=%d:\n got: %s\npinned: %s", w, got, c.want)
				}
			}
		})
	}
}
