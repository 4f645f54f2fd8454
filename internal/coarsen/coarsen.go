// Package coarsen implements the coarsening phase of the multilevel
// paradigm: heavy-edge matching (HEM) with the SC'98 "balanced edge"
// tie-break, size-constrained label-propagation clustering (internal/lp)
// for skewed degree distributions, and graph contraction.
//
// During coarsening the graph is successively shrunk by collapsing groups
// of vertices (matched pairs, or label-propagation clusters); the weight
// vector of a coarse vertex is the component-wise sum of its constituents
// and parallel edges merge by summing weights, so total vertex weight (per
// constraint) and total exposed+internal edge weight are invariants of
// contraction.
package coarsen

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/lp"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Scheme selects how a level groups fine vertices into coarse ones.
type Scheme int

const (
	// SchemeMatching is the SC'98 heavy-edge matching: at most two fine
	// vertices per coarse vertex, ~2x shrink per level on bounded-degree
	// meshes. The zero value, so existing callers keep the paper behaviour
	// bit-identically.
	SchemeMatching Scheme = iota
	// SchemeCluster is size-constrained label propagation (internal/lp):
	// many-to-one clusters under per-constraint weight caps, the scheme
	// that keeps shrinking when hubs make maximal matching stall.
	SchemeCluster
	// SchemeAuto sniffs the degree distribution of the finest graph once
	// (DegreeSkewed) and picks SchemeCluster for skewed inputs,
	// SchemeMatching otherwise.
	SchemeAuto
)

// String returns the flag/API spelling of the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeMatching:
		return "matching"
	case SchemeCluster:
		return "cluster"
	case SchemeAuto:
		return "auto"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme parses the flag/API spelling of a coarsening scheme. The
// empty string means the default (matching), so absent request fields and
// unset flags need no special-casing by callers.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "", "matching":
		return SchemeMatching, nil
	case "cluster":
		return SchemeCluster, nil
	case "auto":
		return SchemeAuto, nil
	}
	return SchemeMatching, fmt.Errorf("unknown coarsening scheme %q (want matching, cluster, or auto)", s)
}

// Options controls matching behaviour.
type Options struct {
	// Scheme selects the grouping strategy per level. The zero value is
	// SchemeMatching — the paper default, bit-identical to the pre-scheme
	// pipeline. SchemeAuto resolves once, on the finest graph.
	Scheme Scheme
	// Tol is the balance tolerance the cluster scheme derives its
	// per-constraint cluster weight caps from (<= 0 means the pipeline
	// default, 0.05). Matching ignores it (its cap is MaxVertexWeight).
	Tol float64
	// LPRounds overrides the label-propagation round count for the cluster
	// scheme (0 = lp.DefaultRounds). Matching ignores it.
	LPRounds int
	// BalancedEdge enables the SC'98 multi-constraint tie-break: among
	// maximum-weight candidate edges, prefer the mate whose combined weight
	// vector is flattest (minimum jaggedness), which keeps coarse vertex
	// weights balanced across constraints and preserves refinement
	// flexibility on coarse graphs.
	BalancedEdge bool
	// MaxVertexWeight, if positive, caps each component of a coarse
	// vertex's weight vector: matches that would exceed it are skipped.
	// This is METIS's guard against coarsening collapsing too much weight
	// into single unsplittable vertices.
	MaxVertexWeight int64
	// Workers bounds the goroutines running the coarsening kernels
	// concurrently: matching candidate scans and contraction. The cluster
	// scheme's label-propagation rounds run on one goroutine at every
	// value. Any value produces a bit-identical hierarchy (and therefore
	// identical partitions and service cache keys); only wall clock
	// changes. See DESIGN.md, "Parallel coarsening contract".
	Workers int
	// Stop, when non-nil, is polled by BuildHierarchy at every level
	// boundary; once it returns true the hierarchy is abandoned and
	// BuildHierarchy returns nil. It is how context cancellation reaches
	// the coarsening loop without the package importing context.
	Stop func() bool
	// Trace, when non-nil, records one "coarsen.level" span per
	// contraction (the observability hook; see DESIGN.md,
	// "Observability"). nil disables all recording.
	Trace *trace.Rank
}

// Match computes a heavy-edge matching of g. The result maps every vertex v
// to its mate (match[v] == v for unmatched vertices), and is an involution:
// match[match[v]] == v.
func Match(g *graph.Graph, rand *rng.RNG, opt Options) []int32 {
	match, _, _ := matchInto(g, rand, opt, newScratch(1))
	return match
}

// Contract collapses the matched pairs of g into a coarser graph. It
// returns the coarse graph and cmap, the fine-vertex → coarse-vertex map.
// Coarse vertex ids are assigned in fine-vertex order (the lower endpoint
// of each matched pair names the coarse vertex).
func Contract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	s, hlv := newScratch(1), newLevel(g)
	cmap := hlv.CMap()
	nc, head, members := pairClusters(match, cmap, s)
	return contract(g, cmap, nc, head, members, s, hlv), cmap
}

// ContractMap collapses an arbitrary many-to-one cluster assignment into a
// coarser graph: cmap maps every fine vertex to a dense cluster id in
// [0, nc) (the shape lp.Cluster produces), and the coarse graph has one
// vertex per cluster with component-wise summed weights and merged edges.
// Contract's matched-pair contraction is the special case where every
// cluster has one or two members.
func ContractMap(g *graph.Graph, cmap []int32, nc int) *graph.Graph {
	s := newScratch(1)
	head, members := clusterMembers(cmap, nc, s)
	return contract(g, cmap, nc, head, members, s, newLevel(g))
}

// newLevel is a one-level plan for the standalone Contract and ContractMap.
func newLevel(g *graph.Graph) *hier.Level {
	return hier.NewPlan(g.NumVertices(), g.Ncon, len(g.Adjncy)).Begin(g.NumVertices())
}

// Level is one rung of the multilevel hierarchy: the graph at this level
// and the map from the next-finer graph's vertices onto it.
type Level struct {
	Graph *graph.Graph
	CMap  []int32 // len = finer graph's vertex count; nil for the finest level
}

// DegreeSkewed reports whether g's degree distribution is skewed enough
// that heavy-edge matching would stall: the maximum degree is both large
// in absolute terms and a large multiple of the average. Well-shaped
// meshes (max degree ~6-26, within ~2x of average) never trip this;
// power-law graphs with hub vertices do. It is the SchemeAuto sniff,
// evaluated once on the finest graph so the decision is a pure function of
// the input and consumes no randomness.
func DegreeSkewed(g *graph.Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return false
	}
	maxDeg := 0
	for v := int32(0); int(v) < n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	// avg*16 compared in edge units: maxDeg*n >= 16 * (2*|E|).
	return maxDeg >= 64 && int64(maxDeg)*int64(n) >= 32*int64(g.NumEdges())
}

// clusterCaps derives the per-constraint cluster weight caps for one
// cluster-coarsening level. Two bounds compose:
//
//   - A global ceiling of 3x the ideal coarsenTo-way share, widened by the
//     balance tolerance the final partition must meet. The factor is
//     looser than matching's 1.5x MaxVertexWeight rule because clusters
//     merge in coarse units — once weights cluster near the cap, two
//     half-full clusters can only combine if the cap leaves a full extra
//     share of headroom — and it still leaves initial partitioning ample
//     granularity: at the default coarsenTo = max(30k, 2000) the cap is at
//     most a tenth of a subdomain's target weight.
//   - A per-level shrink bound of 1 + 2x the current level's average
//     vertex weight. Without it, label propagation collapses a 50k-vertex
//     power-law graph straight to the global ceiling in one level (a >12x
//     jump), and the uncoarsening phase gets almost no intermediate levels
//     to refine across — measurably worse cuts. Bounding each level's
//     clusters to ~2 average vertices keeps the hierarchy geometric, like
//     matching's.
func clusterCaps(g *graph.Graph, coarsenTo int, tol float64) []int64 {
	n := int64(g.NumVertices())
	caps := make([]int64, g.Ncon)
	for c, t := range g.TotalVertexWeight() {
		caps[c] = 1 + int64(float64(t)*3*(1+tol)/float64(coarsenTo))
		if lvl := 1 + 2*t/n; lvl < caps[c] {
			caps[c] = lvl
		}
	}
	return caps
}

// MatchingCap is heavy-edge matching's per-level MaxVertexWeight when the
// caller sets none, from the level's per-constraint weight totals: 1.5x the
// heaviest total's coarsenTo-way share, plus one, so a coarse vertex stays
// near 1/coarsenTo of the heaviest constraint and initial partitioning
// always has room to balance (METIS's rule of thumb). The serial and the
// distributed hierarchy both apply it.
func MatchingCap(tot []int64, coarsenTo int) int64 {
	var maxTot int64
	for _, t := range tot {
		maxTot = max(maxTot, t)
	}
	return 1 + maxTot*3/int64(2*coarsenTo)
}

// BuildHierarchy coarsens g until it has at most coarsenTo vertices or
// coarsening stalls (shrink factor worse than 0.95 per level, the
// slow-coarsening cutoff). The returned slice starts with the input graph
// (CMap nil) and ends with the coarsest graph. Every coarse level's
// retained arrays are carved from the returned hierarchy memory plan,
// sized from g; the uncoarsening loop retires levels through it. If
// opt.Stop fires at a level boundary the partial hierarchy is abandoned and
// both results are nil.
//
// opt.Scheme selects matching (default) or label-propagation cluster
// grouping per level; SchemeAuto resolves to one of the two here, from the
// finest graph's degree distribution. The matching path is bit-identical
// to the pre-scheme pipeline: it consumes the same RNG draws in the same
// order and touches no new state.
func BuildHierarchy(g *graph.Graph, coarsenTo int, rand *rng.RNG, opt Options) ([]Level, *hier.Plan) {
	scheme := opt.Scheme
	if scheme == SchemeAuto {
		scheme = SchemeMatching
		if DegreeSkewed(g) {
			scheme = SchemeCluster
		}
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 0.05
	}
	plan := hier.NewPlan(g.NumVertices(), g.Ncon, len(g.Adjncy))
	levels := []Level{{Graph: g}}
	cur := g
	// One scratch and one worker pool serve every level.
	s := newScratch(opt.Workers)
	defer s.close()
	var lps *lp.Scratch
	if scheme == SchemeCluster {
		lps = lp.NewScratch()
	}
	tr := opt.Trace
	for cur.NumVertices() > coarsenTo {
		if opt.Stop != nil && opt.Stop() {
			return nil, nil
		}
		if tr != nil {
			tr.Begin("coarsen.level",
				trace.I64("level", int64(len(levels))),
				trace.I64("n", int64(cur.NumVertices())),
				trace.I64("edges", int64(cur.NumEdges())))
		}
		s.workers = 1
		if cur.NumVertices() >= minParallelN {
			s.workers = s.pool.Workers()
		}
		// The matching kernels' spans record only levels on the pool.
		ktr := tr
		if s.workers == 1 {
			ktr = nil
		}
		hlv := plan.Begin(cur.NumVertices())
		var coarse *graph.Graph
		var cmap []int32
		if scheme == SchemeCluster {
			caps := clusterCaps(cur, coarsenTo, tol)
			if opt.MaxVertexWeight > 0 {
				for c := range caps {
					caps[c] = opt.MaxVertexWeight
				}
			}
			lcmap, nc := lp.ClusterInto(cur, rand, lp.Options{
				Rounds:           opt.LPRounds,
				MaxClusterWeight: caps,
				Stop:             opt.Stop,
				Trace:            tr,
			}, lps)
			if lcmap == nil { // Stop fired mid-pass
				if tr != nil {
					tr.End(trace.I64("aborted", 1))
				}
				return nil, nil
			}
			if check.Enabled {
				check.ClusterCaps(fmt.Sprintf("coarsen: level %d cluster caps", len(levels)), cur, lcmap, nc, caps)
			}
			if tr != nil {
				tr.Begin("lp.contract", trace.I64("clusters", int64(nc)))
			}
			// lp owns its returned cmap; the hierarchy keeps the plan's copy.
			cmap = hlv.CMap()
			copy(cmap, lcmap)
			head, members := clusterMembers(cmap, nc, s)
			coarse = contract(cur, cmap, nc, head, members, s, hlv)
			if tr != nil {
				tr.End()
			}
		} else {
			o := opt
			if o.MaxVertexWeight == 0 {
				o.MaxVertexWeight = MatchingCap(cur.TotalVertexWeight(), coarsenTo)
			}
			if ktr != nil {
				ktr.Begin("coarsen.match",
					trace.I64("workers", int64(s.workers)),
					trace.I64("n", int64(cur.NumVertices())))
			}
			match, chunks, rescans := matchInto(cur, rand, o, s)
			if ktr != nil {
				ktr.End(trace.I64("chunks", int64(chunks)), trace.I64("rescans", int64(rescans)))
			}
			if check.Enabled {
				check.Matching(fmt.Sprintf("coarsen: level %d matching", len(levels)),
					cur, match, o.MaxVertexWeight)
			}
			if ktr != nil {
				ktr.Begin("coarsen.contract", trace.I64("workers", int64(s.workers)))
			}
			cmap = hlv.CMap()
			nc, head, members := pairClusters(match, cmap, s)
			coarse = contract(cur, cmap, nc, head, members, s, hlv)
			if ktr != nil {
				ktr.End(trace.I64("coarse_n", int64(nc)))
			}
		}
		if tr != nil {
			tr.End(
				trace.I64("coarse_n", int64(coarse.NumVertices())),
				trace.I64("coarse_edges", int64(coarse.NumEdges())))
		}
		if coarse.NumVertices() > cur.NumVertices()*19/20 {
			// Diminishing returns: stop before wasting levels. The level
			// just carved is discarded, so release its plan region too.
			plan.RetireTop()
			break
		}
		levels = append(levels, Level{Graph: coarse, CMap: cmap})
		cur = coarse
	}
	return levels, plan
}
