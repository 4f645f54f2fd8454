package kwayrefine

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func setupProblem(t *testing.T, m, k int) (*graph.Graph, []int32) {
	t.Helper()
	base := gen.MRNGLike(10, 10, 10, 5)
	g := base
	if m > 1 {
		g = gen.Type1(base, m, 17)
	}
	part := initpart.RecursiveBisect(g, k, rng.New(2), initpart.Options{Tol: 0.05})
	return g, part
}

func TestRefineImprovesCutOrBalance(t *testing.T) {
	// Greedy refinement only worsens the cut when it has to buy balance
	// (the initial partitioning may exceed tolerance); on an already
	// balanced input the cut must not increase.
	for _, m := range []int{1, 3} {
		g, part := setupProblem(t, m, 8)
		before := metrics.EdgeCut(g, part)
		imbBefore := metrics.MaxImbalance(g, part, 8)
		ref := NewRefiner(8, g.Ncon, Options{Tol: 0.05})
		ref.Refine(g, part, rng.New(3))
		after := metrics.EdgeCut(g, part)
		imbAfter := metrics.MaxImbalance(g, part, 8)
		t.Logf("m=%d: cut %d -> %d, imbalance %.3f -> %.3f", m, before, after, imbBefore, imbAfter)
		if imbBefore <= 1.05 && after > before {
			t.Errorf("m=%d: balanced input, yet cut worsened %d -> %d", m, before, after)
		}
		if imbBefore > 1.05 {
			if imbAfter > imbBefore {
				t.Errorf("m=%d: imbalance worsened %.3f -> %.3f", m, imbBefore, imbAfter)
			}
			if float64(after) > 1.10*float64(before) {
				t.Errorf("m=%d: cut worsened more than 10%% (%d -> %d) while balancing", m, before, after)
			}
		}
	}
}

func TestRefinePreservesValidity(t *testing.T) {
	g, part := setupProblem(t, 2, 8)
	ref := NewRefiner(8, g.Ncon, Options{Tol: 0.05})
	ref.Refine(g, part, rng.New(3))
	if err := metrics.CheckPartition(g, part, 8); err != nil {
		t.Fatal(err)
	}
}

func TestRefineKeepsBalance(t *testing.T) {
	g, part := setupProblem(t, 3, 8)
	ref := NewRefiner(8, g.Ncon, Options{Tol: 0.05})
	ref.Refine(g, part, rng.New(3))
	if imb := metrics.MaxImbalance(g, part, 8); imb > 1.06 {
		t.Errorf("imbalance after refinement: %.4f", imb)
	}
}

// TestBalanceRecoversModerateImbalance injects a skewed partition and
// verifies Refine's balance passes drive every constraint back under the
// limit.
func TestBalanceRecoversModerateImbalance(t *testing.T) {
	g, part := setupProblem(t, 2, 8)
	// Skew: move ~15% of part-1..7 vertices into part 0.
	r := rng.New(9)
	for v := range part {
		if part[v] != 0 && r.Intn(7) == 0 {
			part[v] = 0
		}
	}
	before := metrics.MaxImbalance(g, part, 8)
	if before < 1.10 {
		t.Fatalf("injection too weak: %.3f", before)
	}
	ref := NewRefiner(8, g.Ncon, Options{Tol: 0.05, Passes: 12})
	ref.Refine(g, part, rng.New(3))
	after := metrics.MaxImbalance(g, part, 8)
	t.Logf("imbalance %.3f -> %.3f", before, after)
	if after > 1.07 {
		t.Errorf("balance did not recover: %.3f", after)
	}
}

// TestRefinerTrackedWeightsMatchRecount: the refiner's incremental pwgts
// must equal a from-scratch recount after refinement.
func TestRefinerTrackedWeightsMatchRecount(t *testing.T) {
	g, part := setupProblem(t, 3, 6)
	ref := NewRefiner(6, g.Ncon, Options{Tol: 0.05})
	ref.Refine(g, part, rng.New(3))
	want := metrics.PartWeights(g, part, 6)
	for i, w := range ref.st.Pwgts {
		if w != want[i] {
			t.Fatalf("pwgts[%d] = %d, recount %d", i, w, want[i])
		}
	}
}

func TestRefineConvergesToNoMoves(t *testing.T) {
	g, part := setupProblem(t, 2, 4)
	ref := NewRefiner(4, g.Ncon, Options{Tol: 0.05, Passes: 20})
	ref.Refine(g, part, rng.New(3))
	// A second run from the converged state should move little.
	moves := ref.Refine(g, part, rng.New(4))
	if moves > g.NumVertices()/50 {
		t.Errorf("second refinement made %d moves; expected near-convergence", moves)
	}
}

func TestZeroWeightConstraintHandled(t *testing.T) {
	// A constraint that no vertex carries must not divide by zero.
	b := graph.NewBuilder(8, 2)
	for v := int32(0); v < 8; v++ {
		b.SetVertexWeight(v, []int32{1, 0})
	}
	for v := int32(0); v < 7; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	part := []int32{0, 0, 0, 0, 1, 1, 1, 1}
	ref := NewRefiner(2, 2, Options{Tol: 0.05})
	ref.Refine(g, part, rng.New(1))
	if err := metrics.CheckPartition(g, part, 2); err != nil {
		t.Fatal(err)
	}
}
