package kwayrefine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The boundary refinement contract (DESIGN.md): the refiner with its
// incremental gain cache, row bound and candidate gate is pinned
// BIT-IDENTICAL to the full-scan reference (reference_test.go) — same final
// labels, same cut, same move count — for every graph, constraint count, k,
// seed, and pass budget. Both consume the identical random permutation
// stream and gather rows by the same adjacency scan; only the skip test
// differs, and a skipped vertex provably has no row that reaches its
// internal degree, so no legal move.

// runBoth refines two copies of part with the production refiner and the
// full-scan reference under identical options and RNG streams, and fails
// the test on any divergence.
func runBoth(t *testing.T, tag string, g *graph.Graph, part []int32, k, passes int, seed uint64) {
	t.Helper()
	partA := append([]int32(nil), part...)
	partB := append([]int32(nil), part...)
	refA := NewRefiner(k, g.Ncon, Options{Tol: 0.05, Passes: passes})
	refB := newReference(k, g.Ncon, Options{Tol: 0.05, Passes: passes})
	mvA := refA.Refine(g, partA, rng.New(seed))
	mvB := refB.Refine(g, partB, rng.New(seed))
	if mvA != mvB {
		t.Errorf("%s: moves diverge: refiner %d, reference %d", tag, mvA, mvB)
	}
	if cutA, cutB := refA.Cut(), refB.Cut(); cutA != cutB {
		t.Errorf("%s: tracked cut diverges: refiner %d, reference %d", tag, cutA, cutB)
	}
	if cutA, want := refA.Cut(), metrics.EdgeCut(g, partA); cutA != want {
		t.Errorf("%s: tracked cut %d != recomputed cut %d", tag, cutA, want)
	}
	for v := range partA {
		if partA[v] != partB[v] {
			t.Fatalf("%s: labels diverge first at vertex %d: refiner %d, reference %d",
				tag, v, partA[v], partB[v])
		}
	}
}

// zeroEdges returns a copy of g in which every edge touching a vertex
// whose id is a multiple of 3 weighs 0. Such a vertex on the boundary has
// id == ed == maxRow == 0, the case where the candidate gate's maxRow >= id
// must admit a zero-gain, balance-improving move.
func zeroEdges(g *graph.Graph) *graph.Graph {
	z := g.Clone()
	for v := int32(0); int(v) < z.NumVertices(); v++ {
		for j := z.Xadj[v]; j < z.Xadj[v+1]; j++ {
			if v%3 == 0 || z.Adjncy[j]%3 == 0 {
				z.Adjwgt[j] = 0
			}
		}
	}
	return z
}

// skew returns a copy of part with about one in seven vertices outside
// subdomain 0 pulled into it, so refinement opens with balance passes.
func skew(part []int32) []int32 {
	out := append([]int32(nil), part...)
	r := rng.New(9)
	for v := range out {
		if out[v] != 0 && r.Intn(7) == 0 {
			out[v] = 0
		}
	}
	return out
}

// TestBoundaryDrivenMatchesReference sweeps a (graph, m, k, seed, passes)
// grid: two meshes at m ∈ {1, 3} and k ∈ {4, 8}, plus a mesh with
// zero-weight edges, Type 2 weights at m=5, and a power-law graph at
// k ∈ {32, 96, 128}, whose rejection masks fold subdomains past 64 onto
// one bit. Each problem also starts once from a skewed partition, so
// balance passes run between the greedy passes' masked visits. Run under
// -race in CI; the graphs are kept modest for that.
func TestBoundaryDrivenMatchesReference(t *testing.T) {
	type problem struct {
		name string
		g    *graph.Graph
		k    int
	}
	var problems []problem
	for _, mesh := range []struct {
		name string
		g    *graph.Graph
	}{
		{"mrng-10x10x10", gen.MRNGLike(10, 10, 10, 5)},
		{"mrng-16x8x6", gen.MRNGLike(16, 8, 6, 11)},
	} {
		for _, m := range []int{1, 3} {
			g := mesh.g
			if m > 1 {
				g = gen.Type1(mesh.g, m, 17)
			}
			for _, k := range []int{4, 8} {
				problems = append(problems, problem{fmt.Sprintf("%s m=%d", mesh.name, m), g, k})
			}
		}
	}
	plaw := gen.Type1(gen.PowerLaw(3000, 8, 2.5, 7), 2, 17)
	problems = append(problems,
		problem{"zero-edges mrng-10x10x10 m=3", gen.Type1(zeroEdges(gen.MRNGLike(10, 10, 10, 5)), 3, 17), 8},
		problem{"type2 mrng-10x10x10 m=5", gen.Type2(gen.MRNGLike(10, 10, 10, 5), 5, 17), 8},
		problem{"powerlaw-3000 m=2", plaw, 32},
		problem{"powerlaw-3000 m=2", plaw, 96},
		problem{"powerlaw-3000 m=2", plaw, 128},
	)
	for _, p := range problems {
		part := initpart.RecursiveBisect(p.g, p.k, rng.New(2), initpart.Options{Tol: 0.05})
		for _, start := range []struct {
			name string
			part []int32
		}{{"", part}, {" skewed", skew(part)}} {
			for _, seed := range []uint64{3, 101} {
				for _, passes := range []int{1, 8} {
					tag := fmt.Sprintf("%s k=%d%s seed=%d passes=%d", p.name, p.k, start.name, seed, passes)
					runBoth(t, tag, p.g, start.part, p.k, passes, seed)
				}
			}
		}
	}
}

// TestGreedyPassSkipsRejected is the work test of the rejection masks,
// which the outputs alone cannot show: on a power-law input, every pass
// after the first gathers fewer candidates than it starts with.
func TestGreedyPassSkipsRejected(t *testing.T) {
	g := gen.Type1(gen.PowerLaw(20000, 8, 2.5, 7), 2, 17)
	part := initpart.RecursiveBisect(g, 32, rng.New(2), initpart.Options{Tol: 0.05})
	tr := trace.New("test")
	ref := NewRefiner(32, g.Ncon, Options{Tol: 0.05, Trace: tr.Rank(0)})
	ref.Refine(g, part, rng.New(3))
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var exported struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Candidates, Gathered *int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exported); err != nil {
		t.Fatal(err)
	}
	pass := 0
	for _, e := range exported.TraceEvents {
		if e.Name != "refine.pass" || e.Ph != "E" {
			continue
		}
		if e.Args.Candidates == nil || e.Args.Gathered == nil {
			t.Fatalf("refine.pass span %d ends without candidates and gathered", pass)
		}
		cand, gathered := *e.Args.Candidates, *e.Args.Gathered
		t.Logf("pass %d: %d candidates, %d gathered", pass, cand, gathered)
		if pass > 0 && gathered >= cand {
			t.Errorf("pass %d gathered %d of %d candidates, want fewer", pass, gathered, cand)
		}
		pass++
	}
	if pass < 2 {
		t.Fatalf("%d refinement passes ran, want at least 2", pass)
	}
}

// TestBoundaryBalanceMatchesReference pins Refine at 12 passes on a skewed
// partition, whose balance passes exercise the interior-vertex path (cached
// id plus an O(1) empty gather; interior vertices stay eligible for balance
// moves).
func TestBoundaryBalanceMatchesReference(t *testing.T) {
	base := gen.MRNGLike(10, 10, 10, 5)
	for _, m := range []int{1, 3} {
		g := base
		if m > 1 {
			g = gen.Type1(base, m, 17)
		}
		part := skew(initpart.RecursiveBisect(g, 8, rng.New(2), initpart.Options{Tol: 0.05}))
		if imb := metrics.MaxImbalance(g, part, 8); imb < 1.10 {
			t.Fatalf("m=%d: injection too weak: %.3f", m, imb)
		}
		tag := fmt.Sprintf("balance m=%d", m)
		runBoth(t, tag, g, part, 8, 12, 3)
	}
}

// TestRefineAllocBudget is the committed allocation budget for the
// refinement hot path: a warm Refiner (tables reserved and
// seeded once) must refine a level allocation-free — everything it needs is
// pooled, so the budget is only headroom for incidental runtime churn.
func TestRefineAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting loop")
	}
	g := gen.Type1(gen.MRNGLike(12, 12, 12, 5), 2, 17)
	part0 := initpart.RecursiveBisect(g, 8, rng.New(2), initpart.Options{Tol: 0.05})
	ref := NewRefiner(8, g.Ncon, Options{Tol: 0.05, Passes: 4})
	ref.Reserve(g)
	part := make([]int32, len(part0))
	copy(part, part0)
	ref.Refine(g, part, rng.New(3)) // warm the pooled tables

	const budget = 8.0
	got := testing.AllocsPerRun(5, func() {
		copy(part, part0)
		ref.Refine(g, part, rng.New(3))
	})
	t.Logf("warm Refine (n=%d, k=8, m=2): %.0f allocs/op (budget %.0f)",
		g.NumVertices(), got, budget)
	if got > budget {
		t.Errorf("refinement allocations regressed: %.0f/op exceeds the committed budget of %.0f",
			got, budget)
	}
}

// TestReserveMemoryBudget is the committed memory budget of a reserved
// refiner: every table is per-vertex, 41 bytes a vertex (order and nfr at
// 4, id, ed, maxRow and the rejection mask at 8, the gate at 1), and nothing is
// sized by the edge count. The graph is large enough that allocation
// size-class rounding adds less than a byte per vertex.
func TestReserveMemoryBudget(t *testing.T) {
	g := gen.PowerLaw(60000, 10, 2.5, 7)
	n := g.NumVertices()
	if deg := float64(len(g.Adjncy)) / float64(n); deg < 8 {
		t.Fatalf("average degree %.2f, want >= 8 so edge-sized tables would show", deg)
	}
	const budget = 48.0 // bytes per vertex
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewRefiner(64, 3, Options{}).Reserve(g)
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("Reserve (n=%d, %d adjacency entries): %.1f B/vertex (budget %.0f)",
		n, len(g.Adjncy), got, budget)
	if got > budget {
		t.Errorf("reserved refiner memory regressed: %.1f B/vertex exceeds the committed budget of %.0f",
			got, budget)
	}
}

// benchRefine times refine over a fixed problem; newRef builds either the
// production refiner or the full-scan reference.
func benchRefine[R interface {
	Reserve(*graph.Graph)
	Refine(*graph.Graph, []int32, *rng.RNG) int
}](b *testing.B, newRef func(k, m int, opt Options) R) {
	g := gen.Type1(gen.MRNGLike(20, 16, 16, 5), 2, 17)
	part0 := initpart.RecursiveBisect(g, 8, rng.New(2), initpart.Options{Tol: 0.05})
	ref := newRef(8, g.Ncon, Options{Tol: 0.05, Passes: 4})
	ref.Reserve(g)
	part := make([]int32, len(part0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(part, part0)
		ref.Refine(g, part, rng.New(3))
	}
}

func BenchmarkRefineBoundary(b *testing.B)  { benchRefine(b, NewRefiner) }
func BenchmarkRefineReference(b *testing.B) { benchRefine(b, newReference) }
