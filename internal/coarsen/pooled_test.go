package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// TestPooledHierarchyMatchesFresh pins the scratch-reuse contract:
// BuildHierarchy (one scratch and one pool reused across every level) must
// produce exactly the hierarchy obtained by replaying its loop with the
// oracles (fresh buffers per call), the same RNG stream, and the same
// per-level MaxVertexWeight rule, at every worker count. The 16^3 mesh
// starts above minParallelN, so its finest levels run on the pool and its
// coarse ones on one worker. Reuse is an allocation optimization only — it
// must never leak state between levels.
func TestPooledHierarchyMatchesFresh(t *testing.T) {
	g := gen.Type1(gen.MRNGLike(16, 16, 16, 3), 3, 7)
	const coarsenTo = 120
	opt := Options{BalancedEdge: true}

	// Replay BuildHierarchy's loop with the oracles.
	fresh := []Level{{Graph: g}}
	cur := g
	rand := rng.New(9)
	for cur.NumVertices() > coarsenTo {
		o := opt
		var maxTot int64
		for _, tot := range cur.TotalVertexWeight() {
			if tot > maxTot {
				maxTot = tot
			}
		}
		o.MaxVertexWeight = 1 + maxTot*3/int64(2*coarsenTo)
		match := refMatch(cur, rand, o)
		coarse, cmap := refContract(cur, match)
		if coarse.NumVertices() > cur.NumVertices()*19/20 {
			break
		}
		fresh = append(fresh, Level{Graph: coarse, CMap: cmap})
		cur = coarse
	}
	if len(fresh) < 3 {
		t.Fatalf("hierarchy too shallow (%d levels) to exercise scratch reuse", len(fresh))
	}

	for _, w := range kernelWorkerCounts {
		o := opt
		o.Workers = w
		pooled, _ := BuildHierarchy(g, coarsenTo, rng.New(9), o)
		if len(pooled) != len(fresh) {
			t.Fatalf("workers=%d: hierarchy depth: pooled %d, fresh %d", w, len(pooled), len(fresh))
		}
		for lv := range pooled {
			if err := graphsEqual(pooled[lv].Graph, fresh[lv].Graph); err != nil {
				t.Fatalf("workers=%d level %d: %v", w, lv, err)
			}
			if err := sliceEq("cmap", pooled[lv].CMap, fresh[lv].CMap); err != nil {
				t.Fatalf("workers=%d level %d: %v", w, lv, err)
			}
		}
	}
}
