// Package parallel is the parallel multilevel multi-constraint k-way graph
// partitioner of the paper, assembled from the parallel coarsening
// (internal/pcoarsen), parallel initial partitioning (internal/pinit) and
// reservation-based parallel refinement (internal/prefine) phases, running
// on p simulated processors provided by internal/mpi.
package parallel

import (
	"context"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pcoarsen"
	"repro/internal/pgraph"
	"repro/internal/pinit"
	"repro/internal/prefine"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Options configures the parallel partitioner. The zero value selects the
// paper's settings: 5% tolerance, balanced-edge matching, the reservation
// refinement scheme, and the T3E-like cost model.
type Options struct {
	Seed       uint64
	Tol        float64
	CoarsenTo  int
	InitTrials int
	InitPasses int
	// TrialWorkers bounds the goroutines running each rank's bisection
	// trials concurrently (0 = GOMAXPROCS, 1 = sequential); results are
	// bit-identical either way (initpart.Options.TrialWorkers).
	TrialWorkers int
	RefinePasses int
	// RefineRounds splits each refinement sweep into this many
	// propose/reduce/commit rounds (0 = scheme-dependent default; see
	// prefine.Options.Rounds).
	RefineRounds int
	// Scheme selects the concurrent-refinement balance protection
	// (reservation by default; slice and free are the paper's rejected
	// alternatives, kept for the ablation benchmarks).
	Scheme prefine.Scheme
	// NoBalancedEdge disables the balanced-edge matching tie-break.
	NoBalancedEdge bool
	// DirectionFilter enables the up/down direction restriction of the
	// coarse-grain formulation's refinement sub-phases. Off by default:
	// with tentative within-rank state and cut-tracked convergence the
	// oscillation it guards against does not materialize, and the
	// restriction costs ~20% edge-cut (see BenchmarkAblationDirection).
	DirectionFilter bool
	// Model is the simulated-communication cost model; the zero value
	// selects mpi.T3E().
	Model mpi.CostModel
}

func (o Options) withDefaults(k int) Options {
	if o.Tol <= 0 {
		o.Tol = 0.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 30 * k
		if o.CoarsenTo < 2000 {
			o.CoarsenTo = 2000
		}
	}
	if o.Model == (mpi.CostModel{}) {
		o.Model = mpi.T3E()
	}
	return o
}

// Stats reports the outcome of a parallel partitioning.
type Stats struct {
	EdgeCut   int64
	Imbalance float64
	Levels    int
	CoarsestN int
	Moves     int64 // committed refinement moves (global)
	InitCut   int64 // edge-cut of the winning initial partitioning
	// SimTime is the simulated parallel run time under Options.Model; the
	// reproduction target for the paper's Tables 2-4.
	SimTime float64
	// WallTime is the real elapsed time of the run (all p ranks as
	// goroutines on the host).
	WallTime time.Duration
}

// maxRestarts bounds the seeded retries Partition may take when a run
// converges badly imbalanced — the paper's §4 failure mode (an initial
// partitioning much more than 20% imbalanced is rarely repaired during
// uncoarsening). Rare, so the retry cost is negligible on average.
const maxRestarts = 2

// Partition computes a k-way multi-constraint partitioning of g on p
// simulated processors and returns the global part labels. Runs that end
// badly imbalanced are retried from derived seeds (up to maxRestarts).
func Partition(g *graph.Graph, k, p int, opt Options) ([]int32, Stats, error) {
	return PartitionCtx(context.Background(), g, k, p, opt)
}

// PartitionCtx is Partition with cooperative cancellation. Each simulated
// rank polls ctx at level boundaries and refinement passes, but never acts
// on its local observation alone: the decision to abort is taken by a
// collective vote (mpi.Comm.AgreeAbort), so all p ranks unwind at the same
// collective boundary and the SPMD teardown cannot poison the barrier (see
// DESIGN.md, "Cancellation contract"). On cancellation the goroutine world
// is drained cleanly and an error wrapping ctx.Err() is returned.
func PartitionCtx(ctx context.Context, g *graph.Graph, k, p int, opt Options) ([]int32, Stats, error) {
	return PartitionTraced(ctx, g, k, p, opt, nil)
}

// PartitionTraced is PartitionCtx with span tracing: every rank records
// its own track (tid = rank) with top-level phase spans ("distribute",
// "coarsen", "init", "refine"), one nested span per coarsening level,
// refinement level and refinement pass, and cumulative per-collective MPI
// counters (calls, bytes, simulated wait) sampled at phase boundaries.
// All recording is rank-local — no extra collectives, no Work — so traced
// runs produce the same partitions and simulated times as untraced ones,
// and a nil tracer is a complete no-op. See DESIGN.md, "Observability".
func PartitionTraced(ctx context.Context, g *graph.Graph, k, p int, opt Options, tr *trace.Tracer) ([]int32, Stats, error) {
	part, stats, err := partitionOnce(ctx, g, k, p, opt, tr)
	if err != nil {
		return part, stats, err
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 0.05
	}
	for attempt := 1; attempt <= maxRestarts && stats.Imbalance > 1+2*tol; attempt++ {
		retryOpt := opt
		retryOpt.Seed = opt.Seed ^ (uint64(attempt) * 0x9e3779b97f4a7c15)
		p2, s2, err2 := partitionOnce(ctx, g, k, p, retryOpt, tr)
		if err2 != nil {
			break
		}
		// Simulated time accumulates: the retries are real work the
		// machine would have done.
		s2.SimTime += stats.SimTime
		s2.WallTime += stats.WallTime
		if s2.Imbalance < stats.Imbalance || (s2.Imbalance <= 1+tol && s2.EdgeCut < stats.EdgeCut) {
			part, stats = p2, s2
		} else {
			stats.SimTime = s2.SimTime
			stats.WallTime = s2.WallTime
		}
	}
	return part, stats, nil
}

func partitionOnce(ctx context.Context, g *graph.Graph, k, p int, opt Options, tr *trace.Tracer) ([]int32, Stats, error) {
	n := g.NumVertices()
	if k < 1 {
		return nil, Stats{}, fmt.Errorf("parallel: k = %d, want >= 1", k)
	}
	if p < 1 {
		return nil, Stats{}, fmt.Errorf("parallel: p = %d, want >= 1", p)
	}
	if k > n {
		return nil, Stats{}, fmt.Errorf("parallel: k = %d exceeds vertex count %d", k, n)
	}
	if p > n {
		return nil, Stats{}, fmt.Errorf("parallel: p = %d exceeds vertex count %d", p, n)
	}
	if k == 1 {
		return make([]int32, n), Stats{Levels: 1, CoarsestN: n}, nil
	}
	opt = opt.withDefaults(k)

	var stats Stats
	final := make([]int32, n)
	// Per-rank outputs are written to disjoint slots; rank 0's copy of
	// replicated values fills the shared stats.
	perRank := make([]rankOut, p)

	res := mpi.Run(p, opt.Model, func(c *mpi.Comm) {
		// tr.Rank is nil-safe: untraced runs hand every rank a nil (no-op)
		// recorder.
		out := spmdBody(ctx, c, g, k, opt, tr.Rank(c.Rank()))
		perRank[c.Rank()] = out
	})

	if perRank[0].aborted {
		// Every rank returned aborted (the vote is collective), the world
		// has drained, and mpi.Run has returned: teardown is complete.
		stats.SimTime = res.SimTime
		stats.WallTime = res.WallTime
		return nil, stats, fmt.Errorf("parallel: aborted: %w", ctx.Err())
	}
	copy(final, perRank[0].part)
	stats.Levels = perRank[0].levels
	stats.CoarsestN = perRank[0].coarsestN
	stats.InitCut = perRank[0].initCut
	// Refine's per-phase counts are already global (allreduced), so any
	// rank's tally is the total.
	stats.Moves = perRank[0].localMoves
	stats.SimTime = res.SimTime
	stats.WallTime = res.WallTime
	stats.EdgeCut = metrics.EdgeCut(g, final)
	stats.Imbalance = metrics.MaxImbalance(g, final, k)
	return final, stats, nil
}

type rankOut struct {
	part       []int32
	levels     int
	coarsestN  int
	initCut    int64
	localMoves int64
	// aborted is set when the ranks collectively voted to abandon the run
	// (context cancellation); identical on every rank by construction.
	aborted bool
}

// spmdBody is the program every simulated processor executes.
func spmdBody(ctx context.Context, c *mpi.Comm, g *graph.Graph, k int, opt Options, rk *trace.Rank) rankOut {
	rand := rng.New(opt.Seed).Derive(uint64(c.Rank()))
	// stop is the collective cancellation vote: every call site is reached
	// by all ranks in lockstep, and the voted result is identical on every
	// rank, so either all ranks continue or all return together. A context
	// that can never fire (Done() == nil, e.g. context.Background) skips
	// the vote machinery entirely, so non-cancellable runs pay no extra
	// collectives and their simulated times are unchanged.
	// local is the rank's own check, for pinit, whose work between
	// collectives is one rank's bisection trials on the gathered graph.
	var stop, local func() bool
	if ctx.Done() != nil {
		stop = func() bool { return c.AgreeAbort(ctx.Err() != nil) }
		local = func() bool { return ctx.Err() != nil }
	}

	// Distribute and coarsen.
	rk.Begin("distribute")
	dg := pgraph.Distribute(c, g)
	if rk != nil {
		rk.End(trace.I64("local_n", int64(dg.NLocal())))
	}
	if rk != nil {
		rk.Begin("coarsen",
			trace.I64("global_n", int64(dg.GlobalN())),
			trace.I64("local_n", int64(dg.NLocal())))
	}
	levels := pcoarsen.BuildHierarchy(dg, opt.CoarsenTo, rand, pcoarsen.Options{
		BalancedEdge: !opt.NoBalancedEdge,
		Stop:         stop,
		Trace:        rk,
	})
	if levels == nil {
		rk.End()
		return rankOut{aborted: true}
	}
	if rk != nil {
		rk.End(
			trace.I64("levels", int64(len(levels))),
			trace.I64("coarsest_global_n", int64(levels[len(levels)-1].DG.GlobalN())))
		emitCommCounters(rk, c)
	}
	coarsest := levels[len(levels)-1].DG

	if check.Enabled {
		// Gather every level onto all ranks and verify the contraction
		// chain. All the calls below are collective, but the guard is a
		// build-time constant, so every rank takes the same path.
		check.Graph("parallel: input", g)
		finerG := levels[0].DG.Gather()
		for lvl := 1; lvl < len(levels); lvl++ {
			coarseG := levels[lvl].DG.Gather()
			cmapAll, _ := c.AllgathervI32(levels[lvl].CMap)
			check.Graph(fmt.Sprintf("parallel: coarse level %d", lvl), coarseG)
			check.Coarsening(fmt.Sprintf("parallel: contraction %d->%d", lvl-1, lvl),
				finerG, coarseG, cmapAll)
			finerG = coarseG
		}
	}

	// Initial partitioning on the gathered coarsest graph.
	if stop != nil && stop() {
		return rankOut{aborted: true}
	}
	if rk != nil {
		rk.Begin("init",
			trace.I64("coarsest_global_n", int64(coarsest.GlobalN())),
			trace.I64("k", int64(k)))
	}
	partAll, ist := pinit.Partition(coarsest, k, rand, pinit.Options{
		Tol:          opt.Tol,
		Trials:       opt.InitTrials,
		Passes:       opt.InitPasses,
		TrialWorkers: opt.TrialWorkers,
		Stop:         local,
	})
	if rk != nil {
		rk.End(
			trace.I64("cut", ist.Cut),
			trace.I64("bisections", int64(ist.Bisections)),
			trace.I64("trials", int64(ist.Trials)))
		emitCommCounters(rk, c)
	}
	first := coarsest.First()
	part := make([]int32, coarsest.NLocal())
	copy(part, partAll[first:int(first)+coarsest.NLocal()])

	// Uncoarsen with parallel multi-constraint refinement at every level.
	var moves int64
	ropt := prefine.Options{
		Tol: opt.Tol, Passes: opt.RefinePasses, Scheme: opt.Scheme,
		Rounds:          opt.RefineRounds,
		DirectionFilter: opt.DirectionFilter,
		Stop:            stop,
		Trace:           rk,
	}
	rk.Begin("refine", trace.I64("levels", int64(len(levels))))
	if rk != nil {
		rk.Begin("refine.level",
			trace.I64("level", int64(len(levels)-1)),
			trace.I64("local_n", int64(coarsest.NLocal())))
	}
	ref := prefine.NewRefiner(coarsest, part, k, ropt)
	lvlMoves := ref.Refine(rand)
	moves += lvlMoves
	if rk != nil {
		rk.End(trace.I64("moves", lvlMoves))
	}
	if check.Enabled {
		checkParallelPartition(c, "parallel: coarsest refinement", coarsest, ref, k)
	}
	for lvl := len(levels) - 1; lvl > 0; lvl-- {
		if stop != nil && stop() {
			rk.End() // close "refine"
			return rankOut{aborted: true}
		}
		coarseDG := levels[lvl].DG
		finer := levels[lvl-1].DG
		cmap := levels[lvl].CMap
		part = coarseDG.FetchByGlobal(cmap, part)
		if rk != nil {
			rk.Begin("refine.level",
				trace.I64("level", int64(lvl-1)),
				trace.I64("local_n", int64(finer.NLocal())))
		}
		ref = prefine.NewRefiner(finer, part, k, ropt)
		lvlMoves = ref.Refine(rand)
		moves += lvlMoves
		if rk != nil {
			rk.End(trace.I64("moves", lvlMoves))
		}
		if check.Enabled {
			checkParallelPartition(c, fmt.Sprintf("parallel: refinement at level %d", lvl-1), finer, ref, k)
		}
	}
	if rk != nil {
		rk.End() // close "refine"
		emitCommCounters(rk, c)
	}
	// A vote that fired inside the last level's refinement left the run
	// unfinished; surface the abort instead of an under-refined success.
	if stop != nil && stop() {
		return rankOut{aborted: true}
	}

	full, _ := c.AllgathervI32(part)
	if check.Enabled {
		check.Partition("parallel: final", g, full, k, -1, nil)
	}
	emitCommCounters(rk, c)
	return rankOut{
		part:       full,
		levels:     len(levels),
		coarsestN:  coarsest.GlobalN(),
		initCut:    ist.Cut,
		localMoves: moves,
	}
}

// checkParallelPartition verifies, under the mcdebug build tag, one level's
// refined distributed partitioning against a from-scratch recomputation on
// the gathered graph: the replicated incremental subdomain weights must
// match metrics.PartWeights, and GlobalCut, the summed cached external
// degree, must match metrics.EdgeCut. Collective (Gather, AllgathervI32,
// GlobalCut); callers gate on the build-time constant check.Enabled so all
// ranks participate.
func checkParallelPartition(c *mpi.Comm, where string, dg *pgraph.DGraph, ref *prefine.Refiner, k int) {
	full := dg.Gather()
	partAll, _ := c.AllgathervI32(ref.Part())
	check.Partition(where, full, partAll, k, ref.GlobalCut(), ref.PartWeights())
}

// emitCommCounters samples this rank's cumulative per-collective MPI
// accounting (mpi.Comm.CollectiveStats) onto its trace track as one
// counter series per collective family: calls, contributed bytes, and
// simulated wait seconds. Cumulative samples at phase boundaries render as
// monotone staircases in Perfetto. No-op on a nil recorder.
func emitCommCounters(rk *trace.Rank, c *mpi.Comm) {
	if rk == nil {
		return
	}
	for k := mpi.Collective(0); int(k) < mpi.NumCollectives; k++ {
		s := c.CollectiveStats(k)
		if s.Calls == 0 {
			continue
		}
		rk.Counter("mpi."+k.String(),
			trace.I64("calls", s.Calls),
			trace.I64("bytes", s.Bytes),
			trace.F64("wait_s", s.SimWait))
	}
}
