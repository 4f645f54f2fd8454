// Package pinit implements the parallel initial-partitioning phase. The
// coarsest distributed graph is gathered onto every rank, and the ranks
// compute one recursive bisection of it together, on rank groups that
// halve with the graph: all p ranks bisect the root, each running its
// trials from its own random stream, and the best bisection wins; the
// group then splits between the two sides in proportion to their part
// counts, and each half carries on with its side. A group of one rank
// finishes its subtree alone with the serial recursive bisection. One
// gather assembles the labels, each rank refines them k-way with its own
// stream, and the globally best result (balanced first, then lowest
// edge-cut, ties to the lowest rank) is adopted by all ranks — the
// best-of-p strategy of the parallel k-way formulation the paper builds
// on, with the bisection work shared out instead of repeated p times (see
// DESIGN.md, "Initial partitioning on rank groups").
package pinit

import (
	"math"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/kwayrefine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pgraph"
	"repro/internal/rng"
)

// Options configures the initial partitioning.
type Options struct {
	Tol float64
	// Trials is the number of trials each rank runs at every bisection it
	// takes part in (default 4): a node shared by a group of g ranks is
	// tried g·Trials times.
	Trials int
	Passes int // serial refinement passes on the gathered graph
	// TrialWorkers bounds the goroutines running a rank's bisection trials
	// concurrently (0 = GOMAXPROCS, 1 = sequential); the result is
	// bit-identical for every value (initpart.Options.TrialWorkers).
	TrialWorkers int
	// Stop, when non-nil, is this rank's own cancellation check, not a
	// collective vote: the bisection trials poll it before each trial and
	// FM pass, at the group nodes as in the rank's own subtree, and the
	// k-way refinement of the gathered graph at each pass. Once it fires
	// the rank's candidate is cut short and meaningless, but the rank
	// still reaches every collective below, so the caller's next
	// collective vote can abandon the run on every rank.
	Stop func() bool
}

// Stats reports one rank's view of the initial partitioning.
type Stats struct {
	Cut        int64 // edge-cut of the winning partitioning, on every rank
	Bisections int   // bisection nodes this rank ran
	Trials     int   // bisection trials this rank ran
}

// Partition gathers the coarsest graph, partitions it on rank groups, and
// returns the winning k-way labels for all global coarse vertices
// (identical on every rank), with the winner's edge-cut and this rank's
// bisection work.
func Partition(dg *pgraph.DGraph, k int, rand *rng.RNG, opt Options) ([]int32, Stats) {
	if opt.Tol <= 0 {
		opt.Tol = 0.05
	}
	g := dg.Gather()
	c := dg.Comm
	c.Work(g.NumVertices() + g.NumEdges())

	// A badly imbalanced initial partitioning poisons the whole
	// uncoarsening phase (paper §4), so the ranks retry from their
	// advanced streams a couple of times when no candidate is acceptable.
	// The coarsest graph is small; retries are cheap.
	var st Stats
	part := candidate(c, g, k, rand, opt, &st)
	cut := metrics.EdgeCut(g, part)
	imb := metrics.MaxImbalance(g, part, k)
	for attempt := 0; attempt < 2 && retry(c, imb, opt); attempt++ {
		p2 := candidate(c, g, k, rand, opt, &st)
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
	st.Cut = c.BcastI64Scalar(int(w[0]), cut)
	return best, st
}

// retry is the collective retry decision: the ranks retry only when no
// rank's candidate is within twice the tolerance and no rank's Stop has
// fired. One all-reduce carries both, so every rank takes the same branch.
func retry(c *mpi.Comm, imb float64, opt Options) bool {
	v := []int64{0, 0}
	if imb <= 1+2*opt.Tol {
		v[0] = 1
	}
	if opt.Stop != nil && opt.Stop() {
		v[1] = 1
	}
	c.AllreduceMaxI64(v)
	return v[0] == 0 && v[1] == 0
}

// candidate computes this rank's candidate: the labels of the recursive
// bisection shared by all ranks, then a few k-way refinement passes from
// the rank's own stream. It adds the rank's bisection work to st.
func candidate(c *mpi.Comm, g *graph.Graph, k int, rand *rng.RNG, opt Options, st *Stats) []int32 {
	iopt := initpart.Options{Tol: opt.Tol, Trials: opt.Trials, TrialWorkers: opt.TrialWorkers, Stop: opt.Stop}
	b := initpart.NewBisector(g, iopt)
	part := bisectOnGroups(c, b, g, k, rand)
	nodes, trials := b.Work()
	st.Bisections += nodes
	st.Trials += trials
	ref := kwayrefine.NewRefiner(k, g.Ncon, kwayrefine.Options{Tol: opt.Tol, Passes: opt.Passes, Stop: opt.Stop})
	ref.Refine(g, part, rand)
	return part
}

// groupNode is one rank's place in the bisection tree: the node graph, its
// vertices' ids in the gathered graph, the node's part count and first
// label, and the ranks [lo, hi) that share it.
type groupNode struct {
	g      *graph.Graph
	orig   []int32
	k      int
	base   int32
	lo, hi int
}

// shared reports whether the node is bisected by a group of ranks.
func (nd groupNode) shared() bool { return nd.hi-nd.lo > 1 && nd.k > 1 }

// bisectOnGroups computes the k-way recursive bisection of g on rank
// groups and returns its labels, identical on every rank. At each depth of
// the group tree every rank of a shared node bisects it with its own
// trials, the ranks exchange their best scores, and each node's winner
// (lowest rank among the best) sends its bisection to the others; every
// rank reaches every collective, whether or not its node is shared. A rank
// whose group is down to itself finishes its subtree with b.Recurse, and
// one gather of (vertex, label) pairs assembles the labels.
func bisectOnGroups(c *mpi.Comm, b *initpart.Bisector, g *graph.Graph, k int, rand *rng.RNG) []int32 {
	n := g.NumVertices()
	out := make([]int32, n)
	for v := range out {
		out[v] = -1
	}
	orig := make([]int32, n)
	for v := range orig {
		orig[v] = int32(v)
	}
	nd := groupNode{g: g, orig: orig, k: k, lo: 0, hi: c.Size()}
	me := c.Rank()
	for d := groupDepth(c.Size(), k); d > 0; d-- {
		var bi []int32
		var sc initpart.Score
		if nd.shared() {
			bi, sc = b.Node(nd.g, nd.k, rand)
		}
		scores := gatherScores(c, sc)
		win := nd.lo
		for r := nd.lo + 1; r < nd.hi; r++ {
			if scores[r].Better(scores[win]) {
				win = r
			}
		}
		var send []int32
		if nd.shared() && win == me {
			send = bi
		}
		all, counts := c.AllgathervI32(send)
		if !nd.shared() {
			continue
		}
		off := 0
		for r := 0; r < win; r++ {
			off += counts[r]
		}
		nd = descend(b, nd, all[off:off+counts[win]], me, out)
	}
	// The group is down to this rank, or its node is a single part (the
	// root at k = 1) and its lowest rank labels it.
	if me == nd.lo {
		b.Recurse(nd.g, nd.orig, nd.k, nd.base, out, rand)
	}

	var pairs []int32
	for v, l := range out {
		if l >= 0 {
			pairs = append(pairs, int32(v), l)
		}
	}
	all, _ := c.AllgathervI32(pairs)
	for i := 0; i < len(all); i += 2 {
		out[all[i]] = all[i+1]
	}
	// A vertex no rank labeled is still -1, outside [0,k).
	check.Partition("pinit: group bisection", g, out, k, -1, nil)
	return out
}

// descend moves rank me from shared node nd, bisected as bi, to its side.
// The node's lowest rank labels the vertices of any side of one part; a
// side of more parts is carved out for the ranks that carry it on. A rank
// whose side is finished leaves with an empty node of one part.
func descend(b *initpart.Bisector, nd groupNode, bi []int32, me int, out []int32) groupNode {
	k0 := (nd.k + 1) / 2
	parts := [2]int{k0, nd.k - k0}
	first := [2]int32{nd.base, nd.base + int32(k0)}
	if me == nd.lo {
		for s := int32(0); s < 2; s++ {
			if parts[s] == 1 {
				b.Side(nd.g, bi, nd.orig, s, 1, first[s], out)
			}
		}
	}
	s0 := splitGroup(nd.hi-nd.lo, nd.k)
	side, lo, hi := int32(0), nd.lo, nd.lo+s0
	if me >= hi {
		side, lo, hi = 1, hi, nd.hi
	}
	if parts[side] == 1 {
		return groupNode{k: 1, lo: lo, hi: hi}
	}
	g, orig := b.Side(nd.g, bi, nd.orig, side, parts[side], first[side], out)
	return groupNode{g: g, orig: orig, k: parts[side], base: first[side], lo: lo, hi: hi}
}

// splitGroup returns how many of a shared node's size ranks carry on with
// side 0, which gets ceil(k/2) of its k parts: the share in proportion to
// the sides' part counts, rounded. A side of one part needs no bisection
// and takes no ranks. Otherwise k >= 4, each side holds at least 3/8 of
// the parts, and each of size >= 2 ranks' shares rounds to one or more.
func splitGroup(size, k int) int {
	k0 := (k + 1) / 2
	if k-k0 <= 1 {
		return size
	}
	return (2*size*k0 + k) / (2 * k)
}

// groupDepth is the number of depths of the group tree at which some node
// of k parts, shared by size ranks, is still shared. It depends only on p
// and k, so every rank runs the same number of exchanges.
func groupDepth(size, k int) int {
	if size < 2 || k < 2 {
		return 0
	}
	k0 := (k + 1) / 2
	s0 := splitGroup(size, k)
	return 1 + max(groupDepth(s0, k0), groupDepth(size-s0, k-k0))
}

// gatherScores returns every rank's bisection score, indexed by rank. A
// rank whose node is not shared sends the zero score, which no rank reads.
func gatherScores(c *mpi.Comm, sc initpart.Score) []initpart.Score {
	var balanced int64
	if sc.Balanced {
		balanced = 1
	}
	bal := c.AllgatherI64(balanced)
	imb := c.AllgatherI64(int64(math.Float64bits(sc.Imb)))
	cut := c.AllgatherI64(sc.Cut)
	scores := make([]initpart.Score, len(bal))
	for r := range scores {
		scores[r] = initpart.Score{Balanced: bal[r] != 0, Imb: math.Float64frombits(uint64(imb[r])), Cut: cut[r]}
	}
	return scores
}
