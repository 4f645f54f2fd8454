// Package pinit implements the parallel initial-partitioning phase: the
// coarsest distributed graph is gathered onto every rank, each rank
// computes an independent serial multi-constraint k-way partitioning from
// its own random seed, and the globally best result (balanced first, then
// lowest edge-cut, ties to the lowest rank) is adopted by all ranks — the
// strategy of the parallel k-way formulation the paper builds on.
package pinit

import (
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/kwayrefine"
	"repro/internal/metrics"
	"repro/internal/pgraph"
	"repro/internal/rng"
)

// Options configures the per-rank serial partitionings.
type Options struct {
	Tol    float64
	Trials int // bisection trials per rank (default 4)
	Passes int // serial refinement passes on the gathered graph
	// TrialWorkers bounds the goroutines running bisection trials
	// concurrently (0 = GOMAXPROCS, 1 = sequential); the result is
	// bit-identical for every value (initpart.Options.TrialWorkers).
	TrialWorkers int
	// Stop, when non-nil, is this rank's own cancellation check, not a
	// collective vote: the recursive bisection polls it between trials
	// and FM passes, and the k-way refinement of the gathered graph at
	// each pass. Once it fires the rank's candidate is cut short and
	// meaningless, but the rank still reaches the collectives below, so
	// the caller's next collective vote can abandon the run on every rank.
	Stop func() bool
}

// Partition gathers the coarsest graph, has every rank partition it
// independently, and returns the winning k-way labels for all global coarse
// vertices (identical on every rank), plus the winner's edge-cut.
func Partition(dg *pgraph.DGraph, k int, rand *rng.RNG, opt Options) ([]int32, int64) {
	if opt.Tol <= 0 {
		opt.Tol = 0.05
	}
	g := dg.Gather()
	c := dg.Comm
	c.Work(g.NumVertices() + g.NumEdges())

	// A badly imbalanced initial partitioning poisons the whole
	// uncoarsening phase (paper §4), so each rank retries its candidate
	// from derived seeds a couple of times before entering the global
	// best-of-p vote. The coarsest graph is small; retries are cheap.
	part := computeCandidate(g, k, rand, opt)
	cut := metrics.EdgeCut(g, part)
	imb := metrics.MaxImbalance(g, part, k)
	for attempt := 0; attempt < 2 && imb > 1+2*opt.Tol && (opt.Stop == nil || !opt.Stop()); attempt++ {
		p2 := computeCandidate(g, k, rand, opt)
		cut2 := metrics.EdgeCut(g, p2)
		imb2 := metrics.MaxImbalance(g, p2, k)
		if imb2 < imb || (imb2 <= 1+opt.Tol && cut2 < cut) {
			part, cut, imb = p2, cut2, imb2
		}
		c.Work(g.NumVertices() + g.NumEdges())
	}

	// Key minimization: heavily penalize imbalance beyond 1.5x the
	// tolerance so a balanced partitioning always beats an unbalanced one.
	key := cut
	if imb > 1+1.5*opt.Tol {
		key += int64(1) << 40
		key += int64(imb * 1000)
	}
	minKey := []int64{key}
	c.AllreduceMinI64(minKey)

	winner := int64(c.Size())
	if key == minKey[0] {
		winner = int64(c.Rank())
	}
	w := []int64{winner}
	c.AllreduceMinI64(w)

	best := c.BcastI32(int(w[0]), part)
	bestCut := c.BcastI64Scalar(int(w[0]), cut)
	return best, bestCut
}

// computeCandidate runs the serial pipeline on the gathered coarsest
// graph: recursive bisection, then a few k-way refinement passes.
func computeCandidate(g *graph.Graph, k int, rand *rng.RNG, opt Options) []int32 {
	part := initpart.RecursiveBisect(g, k, rand, initpart.Options{Tol: opt.Tol, Trials: opt.Trials, TrialWorkers: opt.TrialWorkers, Stop: opt.Stop})
	ref := kwayrefine.NewRefiner(k, g.Ncon, kwayrefine.Options{Tol: opt.Tol, Passes: opt.Passes, Stop: opt.Stop})
	ref.Refine(g, part, rand)
	return part
}
