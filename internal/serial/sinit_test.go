package serial

import (
	"testing"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/initpart"
	"repro/internal/kwayrefine"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func TestSerialLevelCuts(t *testing.T) {
	spec, _ := gen.MeshByName("mrng3s")
	base := spec.Build(7)
	g := gen.Type1(base, 3, 42)
	k := 32
	rand := rng.New(3)
	levels, _ := coarsen.BuildHierarchy(g, 2000, rand, coarsen.Options{BalancedEdge: true})
	coarsest := levels[len(levels)-1].Graph
	part := initpart.RecursiveBisect(coarsest, k, rand, initpart.Options{Tol: 0.05})
	t.Logf("serial initCut=%d coarsestN=%d levels=%d", metrics.EdgeCut(coarsest, part), coarsest.NumVertices(), len(levels))
	ref := kwayrefine.NewRefiner(k, g.Ncon, kwayrefine.Options{Tol: 0.05})
	mv := ref.Refine(coarsest, part, rand)
	t.Logf("after refine coarsest: cut=%d moves=%d", metrics.EdgeCut(coarsest, part), mv)
	for lvl := len(levels) - 1; lvl > 0; lvl-- {
		finer := levels[lvl-1].Graph
		cmap := levels[lvl].CMap
		fpart := make([]int32, finer.NumVertices())
		for v := range fpart {
			fpart[v] = part[cmap[v]]
		}
		part = fpart
		mv := ref.Refine(finer, part, rand)
		t.Logf("level %d: n=%d cut=%d moves=%d imb=%.4f", lvl-1, finer.NumVertices(), metrics.EdgeCut(finer, part), mv, metrics.MaxImbalance(finer, part, k))
	}
}
