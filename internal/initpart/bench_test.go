package initpart

import (
	"fmt"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/rng"
)

// BenchmarkRecursiveBisect measures the initial-partitioning hot path on a
// realistically coarsened mesh (the same workload the serial pipeline's
// init phase runs). Run with -benchmem: the allocs/op column is the number
// the arena pooling exists to keep small, and the committed budget is
// enforced by TestRecursiveBisectAllocBudget.
func BenchmarkRecursiveBisect(b *testing.B) {
	spec, ok := gen.MeshByName("mrng1t")
	if !ok {
		b.Fatal("mesh mrng1t not registered")
	}
	g := spec.Build(1*7919 + 7)
	levels, _ := coarsen.BuildHierarchy(g, 2000, rng.New(1), coarsen.Options{BalancedEdge: true})
	coarsest := levels[len(levels)-1].Graph
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RecursiveBisect(coarsest, 8, rng.New(1), Options{Tol: 0.05, TrialWorkers: workers})
			}
		})
	}
}
