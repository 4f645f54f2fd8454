//go:build mcdebug

package check

import (
	"repro/internal/gaincache"
	"repro/internal/graph"
)

// Enabled reports whether the runtime invariant checks are compiled in.
// It is a build-time constant so `if check.Enabled { ... }` blocks are
// dead-code-eliminated entirely in release builds.
const Enabled = true

// Graph panics if g violates the CSR structural invariants.
func Graph(where string, g *graph.Graph) {
	if err := VerifyGraph(g); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}

// Coarsening panics if coarse is not a contraction of fine under cmap.
func Coarsening(where string, fine, coarse *graph.Graph, cmap []int32) {
	if err := VerifyCoarsening(fine, coarse, cmap); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}

// Matching panics if match is not a valid capped matching of g.
func Matching(where string, g *graph.Graph, match []int32, maxW int64) {
	if err := VerifyMatching(g, match, maxW); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}

// ClusterCaps panics if any multi-member cluster of cmap exceeds the
// per-constraint weight caps of the size-constrained label propagation.
func ClusterCaps(where string, g *graph.Graph, cmap []int32, nc int, caps []int64) {
	if err := VerifyClusterCaps(g, cmap, nc, caps); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}

// Boundary panics if a refiner's boundary state (degrees, row bounds,
// boundary count and, for the serial refiner, its candidate gate, count and
// rejection masks) disagrees with a re-derivation from its CSR and labels.
func Boundary(where string, s *gaincache.State, rej []uint64, gate []bool, candidates int) {
	if err := VerifyBoundary(s, rej, gate, candidates); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}

// Partition panics if part is not a valid k-way partitioning of g, or if
// the supplied incremental aggregates (wantCut when >= 0, wantPwgts when
// non-nil) disagree with a from-scratch recomputation.
func Partition(where string, g *graph.Graph, part []int32, k int, wantCut int64, wantPwgts []int64) {
	if err := VerifyPartition(g, part, k, wantCut, wantPwgts); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}
