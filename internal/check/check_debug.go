//go:build mcdebug

package check

import (
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

// GainCache panics if the boundary refiner's incremental id/ed/nfr tables,
// its boundary count or its candidate gate and count disagree with a
// from-scratch re-derivation, if its row bound is below a vertex's
// heaviest gain row, or if a nonzero rejection mask misses a subdomain
// whose row reaches the vertex's internal degree.
func GainCache(where string, g *graph.Graph, part []int32, id, ed, maxRow []int64, nfr []int32, boundary int, rej []uint64, gate []bool, candidates int) {
	if err := VerifyGainCache(g, part, id, ed, maxRow, nfr, boundary, rej, gate, candidates); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}

// DegreeCache panics if the parallel refiner's per-rank id/ed/nfr cache
// disagrees with a re-derivation from the owned and ghost labels.
func DegreeCache(where string, xadj, adjncy, adjwgt, part, ghostPart []int32, id, ed []int64, nfr []int32) {
	if err := VerifyDegreeCache(xadj, adjncy, adjwgt, part, ghostPart, id, ed, nfr); err != nil {
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
