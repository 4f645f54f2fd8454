//go:build !mcdebug

package check

import (
	"repro/internal/gaincache"
	"repro/internal/graph"
)

// Enabled reports whether the runtime invariant checks are compiled in.
// Without the mcdebug build tag it is the constant false, so gated blocks
// vanish from release builds.
const Enabled = false

// Graph is a no-op without the mcdebug build tag.
func Graph(where string, g *graph.Graph) {}

// Coarsening is a no-op without the mcdebug build tag.
func Coarsening(where string, fine, coarse *graph.Graph, cmap []int32) {}

// Matching is a no-op without the mcdebug build tag.
func Matching(where string, g *graph.Graph, match []int32, maxW int64) {}

// ClusterCaps is a no-op without the mcdebug build tag.
func ClusterCaps(where string, g *graph.Graph, cmap []int32, nc int, caps []int64) {}

// Boundary is a no-op without the mcdebug build tag.
func Boundary(where string, s *gaincache.State, rej []uint64, gate []bool, candidates int) {}

// Partition is a no-op without the mcdebug build tag.
func Partition(where string, g *graph.Graph, part []int32, k int, wantCut int64, wantPwgts []int64) {
}
