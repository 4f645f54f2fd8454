package prefine

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pgraph"
	"repro/internal/rng"
	"repro/internal/trace"
)

func testProblem(m int) *graph.Graph {
	base := gen.MRNGLike(10, 10, 10, 3)
	if m == 1 {
		return base
	}
	return gen.Type1(base, m, 7)
}

// runRefine distributes g, installs the same initial partition on every
// rank, refines, and returns the gathered labels.
func runRefine(t *testing.T, g *graph.Graph, init []int32, k, p int, opt Options) []int32 {
	t.Helper()
	out := make([]int32, g.NumVertices())
	mpi.Run(p, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		part := make([]int32, dg.NLocal())
		copy(part, init[dg.First():int(dg.First())+dg.NLocal()])
		r := NewRefiner(dg, part, k, opt)
		r.Refine(rng.New(9).Derive(uint64(c.Rank())))
		all, _ := c.AllgathervI32(part)
		if c.Rank() == 0 {
			copy(out, all)
		}
	})
	return out
}

func initialPartition(g *graph.Graph, k int) []int32 {
	return initpart.RecursiveBisect(g, k, rng.New(2), initpart.Options{Tol: 0.05})
}

func TestRefineImprovesCutOrBalance(t *testing.T) {
	g := testProblem(2)
	init := initialPartition(g, 8)
	before := metrics.EdgeCut(g, init)
	imbBefore := metrics.MaxImbalance(g, init, 8)
	for _, p := range []int{1, 4, 8} {
		part := runRefine(t, g, init, 8, p, Options{Tol: 0.05})
		after := metrics.EdgeCut(g, part)
		imbAfter := metrics.MaxImbalance(g, part, 8)
		t.Logf("p=%d: cut %d -> %d, imbalance %.3f -> %.3f", p, before, after, imbBefore, imbAfter)
		// Refinement may trade edge-cut for balance when the input exceeds
		// tolerance, but never on an already balanced input, and the
		// trade must be bounded.
		if imbBefore <= 1.05 && after > before {
			t.Errorf("p=%d: balanced input, yet cut worsened %d -> %d", p, before, after)
		}
		if float64(after) > 1.10*float64(before) {
			t.Errorf("p=%d: cut worsened more than 10%%: %d -> %d", p, before, after)
		}
		if imbAfter > 1.08 {
			t.Errorf("p=%d: imbalance %.3f", p, imbAfter)
		}
	}
}

// TestRefineImprovesBalancedInput refines a balanced-but-suboptimal
// partition (produced by a first refinement round) and verifies the cut is
// monotone non-increasing from a balanced start.
func TestRefineImprovesBalancedInput(t *testing.T) {
	g := testProblem(2)
	init := initialPartition(g, 8)
	// One refinement round to reach a balanced state.
	balanced := runRefine(t, g, init, 8, 4, Options{Tol: 0.05})
	if imb := metrics.MaxImbalance(g, balanced, 8); imb > 1.05 {
		t.Skipf("could not produce balanced input (%.3f)", imb)
	}
	before := metrics.EdgeCut(g, balanced)
	part := runRefine(t, g, balanced, 8, 4, Options{Tol: 0.05})
	after := metrics.EdgeCut(g, part)
	t.Logf("balanced input: cut %d -> %d", before, after)
	if after > before {
		t.Errorf("cut worsened from a balanced start: %d -> %d", before, after)
	}
}

func TestRefineMaintainsMultiConstraintBalance(t *testing.T) {
	for _, m := range []int{3, 5} {
		g := testProblem(m)
		init := initialPartition(g, 8)
		part := runRefine(t, g, init, 8, 4, Options{Tol: 0.05})
		imbs := metrics.Imbalances(g, part, 8)
		for c, imb := range imbs {
			if imb > 1.09 {
				t.Errorf("m=%d constraint %d: imbalance %.3f", m, c, imb)
			}
		}
	}
}

// TestReservationPreventsOverflow: start from a balanced partition and
// verify the reservation scheme keeps every subdomain within its limit
// (small residual slack allowed), while the free scheme is the one that may
// drift.
func TestReservationPreventsOverflow(t *testing.T) {
	g := testProblem(3)
	init := initialPartition(g, 8)
	part := runRefine(t, g, init, 8, 8, Options{Tol: 0.05, Scheme: Reservation})
	if imb := metrics.MaxImbalance(g, part, 8); imb > 1.09 {
		t.Errorf("reservation let imbalance reach %.3f", imb)
	}
}

func TestBalancePhaseRecoversInjectedImbalance(t *testing.T) {
	g := testProblem(2)
	init := initialPartition(g, 8)
	// Skew: ~20% of other parts' vertices dumped into part 0.
	r := rng.New(5)
	for v := range init {
		if init[v] != 0 && r.Intn(5) == 0 {
			init[v] = 0
		}
	}
	before := metrics.MaxImbalance(g, init, 8)
	if before < 1.2 {
		t.Fatalf("injection too weak (%.3f)", before)
	}
	part := runRefine(t, g, init, 8, 4, Options{Tol: 0.05, Passes: 12})
	after := metrics.MaxImbalance(g, part, 8)
	t.Logf("imbalance %.3f -> %.3f", before, after)
	if after > 1.10 {
		t.Errorf("parallel balance failed to recover: %.3f", after)
	}
}

// TestTrackedStateConsistency: after refinement the refiner's replicated
// pwgts must equal a recount, and ghost labels must match the owners'.
func TestTrackedStateConsistency(t *testing.T) {
	g := testProblem(3)
	init := initialPartition(g, 6)
	mpi.Run(4, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		part := make([]int32, dg.NLocal())
		copy(part, init[dg.First():int(dg.First())+dg.NLocal()])
		r := NewRefiner(dg, part, 6, Options{Tol: 0.05})
		r.Refine(rng.New(1).Derive(uint64(c.Rank())))

		all, _ := c.AllgathervI32(part)
		want := metrics.PartWeights(g, all, 6)
		for i := range want {
			if r.st.Pwgts[i] != want[i] {
				t.Errorf("rank %d: pwgts[%d] = %d, recount %d", c.Rank(), i, r.st.Pwgts[i], want[i])
			}
		}
		ghosts := r.st.Labels[dg.NLocal():]
		for slot, gid := range dg.GhostGlobal {
			if ghosts[slot] != all[gid] {
				t.Errorf("rank %d: ghost %d label %d, owner says %d", c.Rank(), gid, ghosts[slot], all[gid])
			}
		}
	})
}

func TestSchemesDiffer(t *testing.T) {
	g := testProblem(3)
	init := initialPartition(g, 8)
	resPart := runRefine(t, g, init, 8, 8, Options{Tol: 0.05, Scheme: Reservation})
	slicePart := runRefine(t, g, init, 8, 8, Options{Tol: 0.05, Scheme: Slice})
	resCut := metrics.EdgeCut(g, resPart)
	sliceCut := metrics.EdgeCut(g, slicePart)
	t.Logf("reservation=%d slice=%d", resCut, sliceCut)
	// On a single instance the two schemes land within noise of each other;
	// the property worth pinning is that the permissive reservation commit
	// is not systematically worse than the restrictive slice scheme, so give
	// the comparison a small headroom instead of demanding a strict win on
	// this one seed.
	if float64(resCut) > 1.02*float64(sliceCut) {
		t.Errorf("reservation (%d) worse than the restrictive slice scheme (%d)", resCut, sliceCut)
	}
}

func TestRefineOnPerfectPartitionIsStable(t *testing.T) {
	// A 2-part path split at the middle is optimal; refinement must not
	// degrade it.
	b := graph.NewBuilder(40, 1)
	for v := int32(0); v < 39; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int32, 40)
	for v := 20; v < 40; v++ {
		init[v] = 1
	}
	part := runRefine(t, g, init, 2, 2, Options{Tol: 0.05})
	if cut := metrics.EdgeCut(g, part); cut != 1 {
		t.Errorf("optimal cut degraded to %d", cut)
	}
}

func TestSliceSmartScheme(t *testing.T) {
	g := testProblem(3)
	init := initialPartition(g, 8)
	part := runRefine(t, g, init, 8, 8, Options{Tol: 0.05, Scheme: SliceSmart})
	if err := metrics.CheckPartition(g, part, 8); err != nil {
		t.Fatal(err)
	}
	// Like the plain slice scheme it must never create new imbalance.
	if imb := metrics.MaxImbalance(g, part, 8); imb > 1.09 {
		t.Errorf("slice-smart imbalance %.3f", imb)
	}
	smart := metrics.EdgeCut(g, part)
	plain := metrics.EdgeCut(g, runRefine(t, g, init, 8, 8, Options{Tol: 0.05, Scheme: Slice}))
	t.Logf("slice=%d slice-smart=%d", plain, smart)
}

// TestSweepGateSkipsBoundedRows is the work test of the row-bound gate,
// which the outputs alone cannot show: on a Type 1 mesh at p=4, the up
// sweeps of every pass after the first gather fewer vertices (maxRow > id)
// than they have candidates (ed > id), summed over the ranks.
func TestSweepGateSkipsBoundedRows(t *testing.T) {
	g := testProblem(3)
	init := initialPartition(g, 8)
	tr := trace.New("test")
	mpi.Run(4, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		part := make([]int32, dg.NLocal())
		copy(part, init[dg.First():int(dg.First())+dg.NLocal()])
		r := NewRefiner(dg, part, 8, Options{Tol: 0.05, Trace: tr.Rank(c.Rank())})
		r.Refine(rng.New(9).Derive(uint64(c.Rank())))
	})
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var exported struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Args struct {
				Candidates, Gathered *int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &exported); err != nil {
		t.Fatal(err)
	}
	var candidates, gathered []int // per pass, summed over ranks
	passOf := map[int]int{}        // next pass index per rank
	for _, e := range exported.TraceEvents {
		if e.Name != "refine.pass" || e.Ph != "E" {
			continue
		}
		if e.Args.Candidates == nil || e.Args.Gathered == nil {
			t.Fatalf("rank %d: refine.pass span ends without candidates and gathered", e.Tid)
		}
		pass := passOf[e.Tid]
		passOf[e.Tid]++
		if pass == len(candidates) {
			candidates, gathered = append(candidates, 0), append(gathered, 0)
		}
		candidates[pass] += *e.Args.Candidates
		gathered[pass] += *e.Args.Gathered
	}
	if len(candidates) < 2 {
		t.Fatalf("%d refinement passes ran, want at least 2", len(candidates))
	}
	for pass := range candidates {
		t.Logf("pass %d: %d candidates, %d gathered", pass, candidates[pass], gathered[pass])
		if gathered[pass] > candidates[pass] {
			t.Errorf("pass %d gathered %d vertices, more than its %d candidates", pass, gathered[pass], candidates[pass])
		}
		if pass > 0 && gathered[pass] >= candidates[pass] {
			t.Errorf("pass %d gathered %d of %d candidates, want fewer", pass, gathered[pass], candidates[pass])
		}
	}
}
