package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func completeGraph(n int32) *graph.Graph {
	b := graph.NewBuilder(int(n), 1)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	return b.MustFinish()
}

// TestBuildHierarchyPlanIdentity pins the plan side of the
// worker-invariance contract: the hierarchy every worker count carves from
// its plan must hold the same bytes, and the plan must account for exactly
// those bytes — the same retained total and the same peak at every worker
// count — and release them all on retirement.
func TestBuildHierarchyPlanIdentity(t *testing.T) {
	graphs := []namedGraph{
		{"mesh-m3", gen.Type1(gen.MRNGLike(16, 16, 16, 3), 3, 3)},
		{"powerlaw", gen.PowerLaw(6000, 8, 2.5, 13)},
	}
	for _, kg := range graphs {
		name, g := kg.name, kg.g
		for _, scheme := range []Scheme{SchemeMatching, SchemeCluster} {
			var want []Level
			refPeak := int64(-1)
			for _, w := range []int{0, 1, 2, 4, 8} {
				got, plan := BuildHierarchy(g, 64, rng.New(2), Options{Scheme: scheme, Tol: 0.05, BalancedEdge: true, Workers: w})
				if want == nil {
					want = got
				}
				if len(got) != len(want) {
					t.Errorf("%s scheme=%v workers=%d: %d levels, want %d", name, scheme, w, len(got), len(want))
					continue
				}
				for i := range got {
					if err := graphsEqual(got[i].Graph, want[i].Graph); err != nil {
						t.Errorf("%s scheme=%v workers=%d level %d: %v", name, scheme, w, i, err)
					}
					if i > 0 {
						if err := sliceEq("cmap", got[i].CMap, want[i].CMap); err != nil {
							t.Errorf("%s scheme=%v workers=%d level %d: %v", name, scheme, w, i, err)
						}
					}
				}
				// The plan must account for exactly the retained arrays of
				// every coarse level, and release them all on retirement.
				wantBytes := int64(0)
				for i := 1; i < len(got); i++ {
					cg := got[i].Graph
					wantBytes += 4 * int64(len(got[i].CMap)+len(cg.Vwgt)+len(cg.Xadj)+len(cg.Adjncy)+len(cg.Adjwgt))
				}
				if plan.Retained() != wantBytes {
					t.Errorf("%s scheme=%v workers=%d: plan retained %d bytes, hierarchy holds %d", name, scheme, w, plan.Retained(), wantBytes)
				}
				if plan.Live() != len(got)-1 {
					t.Errorf("%s scheme=%v workers=%d: plan has %d live levels, hierarchy %d", name, scheme, w, plan.Live(), len(got)-1)
				}
				// Peak retained bytes are part of the determinism contract:
				// worker count must not change what the hierarchy holds.
				if refPeak < 0 {
					refPeak = plan.Peak()
				} else if plan.Peak() != refPeak {
					t.Errorf("%s scheme=%v workers=%d: plan peak %d, workers=0 peak %d", name, scheme, w, plan.Peak(), refPeak)
				}
				// The estimate is calibrated for the pipeline's coarsenTo
				// floor (>= 2000) on mesh-like shrink; this test's
				// coarsenTo=64 power-law hierarchy legitimately outgrows it
				// (and must still complete, which the asserts above prove).
				// The mesh, even overdriven, has to stay in budget.
				if name == "mesh-m3" && plan.OverBudget() {
					t.Errorf("%s scheme=%v workers=%d: over budget (peak %d, budget %d)", name, scheme, w, plan.Peak(), plan.Budget())
				}
				for plan.Live() > 0 {
					plan.RetireTop()
				}
				if plan.Retained() != 0 {
					t.Errorf("%s scheme=%v workers=%d: %d bytes retained after full retirement", name, scheme, w, plan.Retained())
				}
			}
		}
	}
}

// TestBuildHierarchyPlanStallRetires pins the stall-cutoff path: a level
// carved and then discarded by the 19/20 shrink check must be retired so
// the plan balances. A complete graph stalls matching immediately (one
// match halves it, the next can't shrink 5%): coarsenTo=1 forces the loop
// to run until the cutoff fires.
func TestBuildHierarchyPlanStallRetires(t *testing.T) {
	g := completeGraph(24)
	levels, plan := BuildHierarchy(g, 1, rng.New(7), Options{BalancedEdge: true})
	if plan.Live() != len(levels)-1 {
		t.Fatalf("plan live %d, hierarchy coarse levels %d: discarded stall level not retired", plan.Live(), len(levels)-1)
	}
}
