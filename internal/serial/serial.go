// Package serial is the serial multilevel multi-constraint k-way graph
// partitioner of SC'98 — the algorithm implemented in MeTiS that the
// parallel paper normalizes every result against.
//
// The three phases of the multilevel paradigm (paper Figure 1):
//
//  1. Coarsening: heavy-edge matching with the balanced-edge tie-break,
//     applied until the graph is small (internal/coarsen).
//  2. Initial partitioning: multi-constraint recursive bisection of the
//     coarsest graph (internal/initpart).
//  3. Uncoarsening: the partitioning is projected level by level back to
//     the input graph, refined at each level by multi-constraint greedy
//     k-way refinement (internal/kwayrefine).
package serial

import (
	"context"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/kwayrefine"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Options configures the serial partitioner. The zero value selects the
// paper's defaults (5% tolerance, balanced-edge matching on).
type Options struct {
	// Seed drives all randomized decisions; a fixed seed reproduces the
	// partitioning exactly.
	Seed uint64
	// Tol is the load-imbalance tolerance for every constraint (paper: 5%).
	Tol float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices; 0 selects max(30*k, 2000) capped at the input size.
	CoarsenTo int
	// InitTrials is the number of seeded attempts per bisection during
	// initial partitioning (0 = default 4).
	InitTrials int
	// TrialWorkers bounds the goroutines running those attempts
	// concurrently (0 = GOMAXPROCS, 1 = sequential). The result is
	// bit-identical for every value; see initpart.Options.TrialWorkers.
	TrialWorkers int
	// RefinePasses bounds refinement iterations per level (0 = default 8).
	RefinePasses int
	// NoBalancedEdge disables the SC'98 balanced-edge matching tie-break
	// (ablation 2).
	NoBalancedEdge bool
	// CoarsenScheme selects how levels group vertices: heavy-edge matching
	// (the zero value, the paper default, bit-identical to earlier
	// releases), size-constrained label-propagation clustering, or auto
	// (sniff the finest graph's degree skew). See coarsen.Scheme.
	CoarsenScheme coarsen.Scheme
	// CoarsenWorkers sets the shared-memory worker count for the coarsening
	// kernels (matching and contraction; label propagation runs on one
	// goroutine). Every value gives a bit-identical result (see
	// coarsen.Options.Workers and DESIGN.md, "Parallel coarsening
	// contract").
	CoarsenWorkers int
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
	return o
}

// Stats reports what the partitioner did and what it produced.
type Stats struct {
	Levels        int     // multilevel hierarchy depth (including input)
	CoarsestN     int     // vertex count of the coarsest graph
	EdgeCut       int64   // final edge-cut
	Imbalance     float64 // final max per-constraint imbalance
	Moves         int     // total refinement moves during uncoarsening
	Restarts      int     // extra seeded attempts taken to reach balance
	CoarsenTime   time.Duration
	InitTime      time.Duration
	UncoarsenTime time.Duration
	// HierBudgetBytes is the hierarchy memory plan's pre-sized byte budget
	// for the retained coarse levels (hier.EstimateBytes of the input);
	// HierPeakBytes is the measured high-water mark of retained bytes. The
	// uncoarsening loop retires each coarse level after projecting its
	// partition, so by the end every plan byte has been released.
	HierBudgetBytes int64
	HierPeakBytes   int64
	// HierOverBudget records a hierarchy that outgrew the plan's estimate
	// (degenerate coarsening); the run still completes.
	HierOverBudget bool
}

// maxRestarts bounds the seeded retries Partition may take when a run ends
// badly imbalanced. The paper observes that an initial partitioning more
// than ~20% imbalanced is unlikely to be repaired by multilevel refinement;
// on rare seeds the recursive bisection produces exactly that, and a
// restart from a derived seed is the robust (and cheap, since it is rare)
// way out.
const maxRestarts = 2

// Partition computes a k-way multi-constraint partitioning of g and
// returns the subdomain label per vertex. The partitioning targets equal
// per-constraint weight across the k subdomains within opt.Tol. If a run
// converges with a badly imbalanced result, it is retried from derived
// seeds (see Stats.Restarts).
func Partition(g *graph.Graph, k int, opt Options) ([]int32, Stats, error) {
	return PartitionCtx(context.Background(), g, k, opt)
}

// PartitionCtx is Partition with cooperative cancellation: ctx is checked
// at every level boundary of all three multilevel phases and at every
// refinement pass, so a cancelled or expired context aborts the run within
// one pass-sized unit of work. On cancellation it returns a nil
// partitioning and an error wrapping ctx.Err().
func PartitionCtx(ctx context.Context, g *graph.Graph, k int, opt Options) ([]int32, Stats, error) {
	return PartitionTraced(ctx, g, k, opt, nil)
}

// PartitionTraced is PartitionCtx with span tracing: the run records one
// top-level span per multilevel phase ("coarsen", "init", "refine") on the
// tracer's rank-0 track, with one nested span per coarsening level,
// refinement level, and refinement pass. A nil tracer is a no-op and takes
// exactly the untraced code path, so untraced runs stay bit-identical.
// See DESIGN.md, "Observability".
func PartitionTraced(ctx context.Context, g *graph.Graph, k int, opt Options, tr *trace.Tracer) ([]int32, Stats, error) {
	part, stats, err := partitionOnce(ctx, g, k, opt, tr)
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
		p2, s2, err2 := partitionOnce(ctx, g, k, retryOpt, tr)
		if err2 != nil {
			break
		}
		if s2.Imbalance < stats.Imbalance || (s2.Imbalance <= 1+tol && s2.EdgeCut < stats.EdgeCut) {
			part, stats = p2, s2
		}
		stats.Restarts = attempt
	}
	return part, stats, nil
}

func partitionOnce(ctx context.Context, g *graph.Graph, k int, opt Options, tr *trace.Tracer) ([]int32, Stats, error) {
	if k < 1 {
		return nil, Stats{}, fmt.Errorf("serial: k = %d, want >= 1", k)
	}
	n := g.NumVertices()
	if n == 0 {
		return []int32{}, Stats{}, nil
	}
	if k == 1 {
		return make([]int32, n), Stats{Levels: 1, CoarsestN: n}, nil
	}
	if k > n {
		return nil, Stats{}, fmt.Errorf("serial: k = %d exceeds vertex count %d", k, n)
	}
	opt = opt.withDefaults(k)
	rand := rng.New(opt.Seed)
	stop := func() bool { return ctx.Err() != nil }
	var stats Stats
	// The serial pipeline is one "rank": all spans land on track 0. rk is
	// nil (a no-op recorder) for untraced runs.
	rk := tr.Rank(0)

	// Phase 1: coarsening.
	t0 := time.Now()
	if rk != nil {
		rk.Begin("coarsen",
			trace.I64("n", int64(n)),
			trace.I64("edges", int64(g.NumEdges())))
	}
	levels, plan := coarsen.BuildHierarchy(g, opt.CoarsenTo, rand, coarsen.Options{
		Scheme:       opt.CoarsenScheme,
		Tol:          opt.Tol,
		BalancedEdge: !opt.NoBalancedEdge,
		Workers:      opt.CoarsenWorkers,
		Stop:         stop,
		Trace:        rk,
	})
	if levels == nil {
		rk.End()
		return nil, stats, fmt.Errorf("serial: coarsening aborted: %w", ctx.Err())
	}
	if rk != nil {
		rk.End(
			trace.I64("levels", int64(len(levels))),
			trace.I64("coarsest_n", int64(levels[len(levels)-1].Graph.NumVertices())))
	}
	stats.CoarsenTime = time.Since(t0)
	stats.Levels = len(levels)
	coarsest := levels[len(levels)-1].Graph
	stats.CoarsestN = coarsest.NumVertices()
	// Carving only happens during coarsening, so the plan's budget, peak,
	// and over-budget flag are final here; uncoarsening only releases.
	stats.HierBudgetBytes = plan.Budget()
	stats.HierPeakBytes = plan.Peak()
	stats.HierOverBudget = plan.OverBudget()

	if check.Enabled {
		check.Graph("serial: input", g)
		for lvl := 1; lvl < len(levels); lvl++ {
			check.Graph(fmt.Sprintf("serial: coarse level %d", lvl), levels[lvl].Graph)
			check.Coarsening(fmt.Sprintf("serial: contraction %d->%d", lvl-1, lvl),
				levels[lvl-1].Graph, levels[lvl].Graph, levels[lvl].CMap)
		}
	}

	// Phase 2: initial partitioning of the coarsest graph.
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("serial: aborted before initial partitioning: %w", err)
	}
	t0 = time.Now()
	if rk != nil {
		rk.Begin("init",
			trace.I64("coarsest_n", int64(coarsest.NumVertices())),
			trace.I64("k", int64(k)))
	}
	part := initpart.RecursiveBisect(coarsest, k, rand, initpart.Options{
		Tol:          opt.Tol,
		Trials:       opt.InitTrials,
		TrialWorkers: opt.TrialWorkers,
	})
	if rk != nil {
		rk.End(trace.I64("cut", metrics.EdgeCut(coarsest, part)))
	}
	stats.InitTime = time.Since(t0)

	// Phase 3: uncoarsening with refinement at every level.
	t0 = time.Now()
	if rk != nil {
		rk.Begin("refine", trace.I64("levels", int64(len(levels))))
	}
	refiner := kwayrefine.NewRefiner(k, g.Ncon, kwayrefine.Options{
		Tol:    opt.Tol,
		Passes: opt.RefinePasses,
		Stop:   stop,
		Trace:  rk,
	})
	// One refiner serves the whole hierarchy; reserving at the finest
	// level's size up front means no per-level scratch reallocation as the
	// uncoarsening walks toward larger graphs.
	refiner.Reserve(g)
	if rk != nil {
		rk.Begin("refine.level",
			trace.I64("level", int64(len(levels)-1)),
			trace.I64("n", int64(coarsest.NumVertices())))
	}
	mv := refiner.Refine(coarsest, part, rand)
	stats.Moves += mv
	if rk != nil {
		rk.End(trace.I64("moves", int64(mv)))
	}
	if check.Enabled {
		check.Partition("serial: coarsest refinement", coarsest, part, k,
			refiner.Cut(), refiner.PartWeights())
	}
	for lvl := len(levels) - 1; lvl > 0; lvl-- {
		if err := ctx.Err(); err != nil {
			rk.End()
			return nil, stats, fmt.Errorf("serial: aborted during uncoarsening: %w", err)
		}
		finer := levels[lvl-1].Graph
		cmap := levels[lvl].CMap
		fpart := make([]int32, finer.NumVertices())
		for v := range fpart {
			fpart[v] = part[cmap[v]]
		}
		part = fpart
		// This level's partition is projected; retire its coarse graph and
		// cmap so peak RSS during uncoarsening is the finest graph plus the
		// refiner, not the whole hierarchy. Both reference drops matter: the
		// plan's (accounting + chunks) and the levels slice's.
		levels[lvl] = coarsen.Level{}
		plan.RetireTop()
		if rk != nil {
			rk.Begin("refine.level",
				trace.I64("level", int64(lvl-1)),
				trace.I64("n", int64(finer.NumVertices())))
		}
		mv = refiner.Refine(finer, part, rand)
		stats.Moves += mv
		if rk != nil {
			rk.End(trace.I64("moves", int64(mv)))
		}
		if check.Enabled {
			check.Partition(fmt.Sprintf("serial: refinement at level %d", lvl-1),
				finer, part, k, refiner.Cut(), refiner.PartWeights())
		}
	}
	rk.End()
	stats.UncoarsenTime = time.Since(t0)
	// A context that fired inside the last level's refinement left a valid
	// but unfinished partitioning; the caller asked to abort, so report
	// cancellation rather than a silently under-refined success.
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("serial: aborted during uncoarsening: %w", err)
	}

	// The last Refine ran on g itself, so its maintained cut is g's cut
	// (check.Partition asserts the two agree after every level).
	stats.EdgeCut = refiner.Cut()
	stats.Imbalance = metrics.MaxImbalance(g, part, k)
	return part, stats, nil
}
