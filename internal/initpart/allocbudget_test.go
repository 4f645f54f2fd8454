package initpart

import (
	"testing"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestRecursiveBisectAllocBudget is the committed allocation budget for the
// pooled initial-partitioning hot path: a sequential RecursiveBisect on a
// realistically coarsened mesh must stay within budget. The arena refactor
// brought this from ~670 allocations per call down to ~57 (the remaining
// ones are the per-call bisector/worker setup plus the returned labels);
// the budget leaves ~2x headroom for incidental churn while still failing
// loudly if per-node or per-trial allocations creep back into the
// recursion.
func TestRecursiveBisectAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting loop")
	}
	spec, ok := gen.MeshByName("mrng1t")
	if !ok {
		t.Fatal("mesh mrng1t not registered")
	}
	g := spec.Build(1*7919 + 7)
	levels, _ := coarsen.BuildHierarchy(g, 2000, rng.New(1), coarsen.Options{BalancedEdge: true})
	coarsest := levels[len(levels)-1].Graph

	const budget = 130.0
	got := testing.AllocsPerRun(5, func() {
		RecursiveBisect(coarsest, 8, rng.New(1), Options{Tol: 0.05, TrialWorkers: 1})
	})
	t.Logf("RecursiveBisect on %s coarsest (n=%d): %.0f allocs/op (budget %.0f)",
		"mrng1t", coarsest.NumVertices(), got, budget)
	if got > budget {
		t.Errorf("RecursiveBisect allocations regressed: %.0f/op exceeds the committed budget of %.0f",
			got, budget)
	}
}
