// Package kwayrefine implements the serial multi-constraint k-way
// refinement used during the uncoarsening phase (SC'98): a randomized
// greedy Kernighan-Lin variant that moves boundary vertices to adjacent
// subdomains when the move reduces edge-cut and keeps every one of the m
// constraints within its balance limit, plus an explicit balancing pass
// that accepts cut-increasing moves to drain overweight subdomains.
//
// Refinement is boundary-driven, as the paper describes ("the vertices that
// are on the boundary of the partition are visited"): the refiner keeps the
// boundary state of internal/gaincache (internal and external degrees,
// foreign-neighbor counts, the row bound maxRow and the boundary count),
// seeded by one O(m) scan in setup and updated on every move for the moved
// vertex and its neighbors only. On top of it the serial refiner keeps a
// one-byte candidate gate per vertex, set for boundary vertices with maxRow
// >= id: a vertex whose every row is below its internal degree has no move
// with gain >= 0. A candidate that was evaluated and stayed keeps a
// rejection mask of the subdomains whose row may reach its internal degree,
// so its next visit skips the adjacency scan unless one of them can take it.
// A greedy pass therefore costs O(n) for the random permutation plus
// O(degree) per candidate it gathers. All tables are O(n); no per-edge state
// is kept. The refiner is pinned bit-identical to a full-scan reference kept
// in reference_test.go (see DESIGN.md, "Boundary refinement contract").
package kwayrefine

import (
	"math/bits"

	"repro/internal/check"
	"repro/internal/gaincache"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/vecw"
)

// Options configures refinement.
type Options struct {
	// Tol is the load-imbalance tolerance (paper: 0.05).
	Tol float64
	// Passes bounds the number of refinement iterations per level; the
	// paper notes the iteration count is upper bounded but stops early at
	// a local minimum.
	Passes int
	// Stop, when non-nil, is polled at every pass boundary; once it
	// returns true Refine returns early with the moves made so far. The
	// partitioning is always left in a consistent (if less refined) state,
	// so cancellation mid-uncoarsening is safe.
	Stop func() bool
	// Trace, when non-nil, records one "refine.pass" span per refinement
	// pass (the observability hook; see DESIGN.md, "Observability"),
	// attributed with the boundary size and candidate count at pass start,
	// and the candidates gathered and gain-cache entries rewritten during
	// the pass. nil disables all recording.
	Trace *trace.Rank
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 0.05
	}
	if o.Passes <= 0 {
		o.Passes = 8
	}
	return o
}

// Refiner holds the reusable state for refining partitions of graphs into k
// parts with m constraints. One Refiner serves a whole uncoarsening
// hierarchy: its per-vertex tables grow to the largest graph seen (or to the
// size given to Reserve) and are re-seeded by setup at every level. It keeps
// no per-edge state; a candidate's gain rows are re-derived by an adjacency
// scan each time it is evaluated.
type Refiner struct {
	k, m int
	opt  Options
	// st is the boundary state over the whole graph (no ghosts): degrees,
	// row bounds, boundary count, loads and the gain-row accumulator.
	st gaincache.State
	// cut is seeded from the external degrees in setup and maintained
	// incrementally (each applied move subtracts its gain). Under the
	// mcdebug build tag check.Partition compares it against a scratch
	// recomputation after every Refine.
	cut   int64
	order []int32

	// The serial refiner's own tables over st: the candidate gate gate[v]
	// = nfr[v] > 0 && maxRow[v] >= id[v] with its running count, and the
	// rejection mask rej[v], zero when unknown, else a superset of the
	// subdomains whose row reaches id[v] (bit b&63 for subdomain b, so one
	// bit stands for every subdomain congruent to it when k > 64).
	rej        []uint64
	gate       []bool
	candidates int
	updates    int64 // boundary-state entries rewritten by apply (trace counter)
}

// NewRefiner creates a refiner for k parts and m constraints.
func NewRefiner(k, m int, opt Options) *Refiner {
	return &Refiner{k: k, m: m, opt: opt.withDefaults(), st: gaincache.NewState(k, m)}
}

// Reserve grows the per-vertex tables (41 bytes per vertex) to the given
// graph's size, so refining a hierarchy after announcing the finest level
// up front (as internal/serial does) never reallocates per level.
func (r *Refiner) Reserve(g *graph.Graph) {
	r.grow(g.NumVertices())
}

func (r *Refiner) grow(n int) {
	r.st.Reserve(n)
	if cap(r.order) < n {
		r.order = make([]int32, 0, n)
		r.rej = make([]uint64, 0, n)
		r.gate = make([]bool, 0, n)
	}
}

// setup binds the boundary state to g/part and seeds it (loads, limits,
// degrees and row bounds), takes the cut from the external degrees, clears
// every rejection mask and seeds the candidate gates.
func (r *Refiner) setup(g *graph.Graph, part []int32) {
	n := g.NumVertices()
	r.grow(n)
	r.order = r.order[:n]
	r.rej = r.rej[:n]
	clear(r.rej)
	r.gate = r.gate[:n]
	r.st.Bind(g.Xadj, g.Adjncy, g.Adjwgt, part)
	r.st.Load(g.Vwgt)
	r.st.SetLimits(r.opt.Tol)
	r.st.Seed()
	// Every cut edge contributes its weight to both endpoints' external
	// degree.
	r.cut = r.st.External() / 2
	r.candidates = 0
	for v := range r.gate {
		gate := r.gated(int32(v))
		if r.gate[v] = gate; gate {
			r.candidates++
		}
	}
	r.updates = 0
}

// Cut returns the edge-cut as seeded by setup and maintained incrementally
// across moves; valid after Refine.
func (r *Refiner) Cut() int64 { return r.cut }

// PartWeights returns a copy of the current k*m subdomain weight vectors;
// valid after Refine.
func (r *Refiner) PartWeights() []int64 {
	return append([]int64(nil), r.st.Pwgts...)
}

// Refine runs greedy refinement passes (preceded by balancing passes when
// the partitioning is imbalanced) until convergence or the pass budget is
// exhausted. It returns the number of vertex moves made.
func (r *Refiner) Refine(g *graph.Graph, part []int32, rand *rng.RNG) int {
	r.setup(g, part)
	totalMoves := 0
	for pass := 0; pass < r.opt.Passes; pass++ {
		if r.opt.Stop != nil && r.opt.Stop() {
			break
		}
		updates0, candidates0 := r.updates, r.candidates
		if r.opt.Trace != nil {
			r.opt.Trace.Begin("refine.pass",
				trace.I64("pass", int64(pass)),
				trace.I64("n", int64(g.NumVertices())),
				trace.I64("boundary_n", int64(r.st.Boundary)))
		}
		moves := 0
		if r.st.Imbalanced() {
			moves += r.balancePass(g, part, rand)
		}
		greedyMoves, gathered := r.greedyPass(g, part, rand)
		moves += greedyMoves
		totalMoves += moves
		if r.opt.Trace != nil {
			r.opt.Trace.End(
				trace.I64("moves", int64(moves)),
				trace.I64("candidates", int64(candidates0)),
				trace.I64("gathered", int64(gathered)),
				trace.I64("gain_cache_updates", r.updates-updates0))
		}
		if check.Enabled {
			check.Boundary("kwayrefine: after refine pass", &r.st, r.rej, r.gate, r.candidates)
		}
		if moves == 0 {
			break
		}
	}
	return totalMoves
}

// greedyPass visits vertices in random order and applies the best
// cut-reducing (or cut-neutral, balance-improving) legal move for each
// candidate. The permutation always covers all n vertices — the RNG stream
// is part of the determinism contract — but only gated vertices are
// evaluated: one byte decides, for interior vertices and for boundary
// vertices with maxRow < id alike, that greedyMove would find nothing (no
// row reaches id, so every gain is negative). A gated vertex with a
// rejection mask is gathered only when mayMove finds a subdomain in the
// mask that could take it; a candidate that is gathered and stays records
// the subdomains whose row reaches id as its new mask. Returns the number
// of moves and of candidates gathered.
func (r *Refiner) greedyPass(g *graph.Graph, part []int32, rand *rng.RNG) (moves, gathered int) {
	rand.Perm(r.order)
	for _, v := range r.order {
		if !r.gate[v] {
			continue
		}
		a := part[v]
		vw := g.VertexWeight(v)
		if r.rej[v] != 0 && !r.mayMove(v, a, vw) {
			continue
		}
		gathered++
		r.st.Gather(v)
		r.setGate(v)
		id := r.st.ID[v]
		if b, gain := r.greedyMove(a, vw, id); b >= 0 {
			r.apply(g, v, a, b, vw, gain)
			moves++
			continue
		}
		// Zero when the gather closed the gate: no row reaches id.
		var mask uint64
		for _, b := range r.st.Rows.Touched() {
			if r.st.Rows.Weight(b) >= id {
				mask |= 1 << (b & 63)
			}
		}
		r.rej[v] = mask
	}
	return moves, gathered
}

// mayMove reports whether greedyMove could find a move for gated vertex v
// (in subdomain a, weight vw) with rejection mask rej[v] != 0, without
// gathering its rows. A move needs a row that reaches id, so a subdomain b
// != a in the mask, with room for v; and when maxRow[v] == id no row can
// have a positive gain, so the move must also strictly improve balance.
// False means greedyMove would return -1. It holds for any maxRow that is
// an upper bound, and for any mask that is a superset.
func (r *Refiner) mayMove(v, a int32, vw []int32) bool {
	zeroGain := r.st.MaxRow[v] == r.st.ID[v]
	for mask := r.rej[v]; mask != 0; mask &= mask - 1 {
		for b := int32(bits.TrailingZeros64(mask)); int(b) < r.k; b += 64 {
			if b == a || !r.fits(b, vw) {
				continue
			}
			if !zeroGain || r.st.BalanceDelta(a, b, vw) < 0 {
				return true
			}
		}
	}
	return false
}

// greedyMove picks, among the gathered rows of a vertex in subdomain a with
// weight vw and internal degree id, the legal move with the largest gain
// >= 0, ties broken by the balance change; a zero-gain move must strictly
// improve balance. Returns -1 when no row qualifies.
func (r *Refiner) greedyMove(a int32, vw []int32, id int64) (int32, int64) {
	bestB := int32(-1)
	var bestGain int64
	bestBal := 0.0
	for _, b := range r.st.Rows.Touched() {
		gain := r.st.Rows.Weight(b) - id
		if gain < 0 || (bestB >= 0 && gain < bestGain) {
			continue
		}
		if !r.fits(b, vw) {
			continue
		}
		bal := r.st.BalanceDelta(a, b, vw)
		if gain == 0 && bal >= 0 && bestB < 0 {
			continue // zero-gain move must strictly improve balance
		}
		if bestB < 0 || gain > bestGain || (gain == bestGain && bal < bestBal) {
			bestB, bestGain, bestBal = b, gain, bal
		}
	}
	return bestB, bestGain
}

// balancePass drains overweight subdomains: every vertex in an overweight
// subdomain may be moved — regardless of edge-cut gain — to the adjacent
// (or, failing that, any) subdomain that can take it, preferring the
// smallest cut damage. Interior vertices of overweight subdomains are
// eligible too (they become fully exposed), so the pass cannot filter
// through the boundary set or the candidate gate; it does use the cache to
// skip the adjacency scan for them. Returns the number of moves.
func (r *Refiner) balancePass(g *graph.Graph, part []int32, rand *rng.RNG) int {
	rand.Perm(r.order)
	moves := 0
	for _, v := range r.order {
		a := part[v]
		if !r.over(a) {
			continue
		}
		vw := g.VertexWeight(v)
		// Interior vertices (overweight subdomains may drain them too)
		// gather an empty row set in O(1).
		r.st.Gather(v)
		r.setGate(v)
		if b, gain := r.balanceMove(v, a, vw, r.st.ID[v]); b >= 0 {
			r.apply(g, v, a, b, vw, gain)
			moves++
			if !r.over(a) && !r.st.Imbalanced() {
				break
			}
		}
	}
	return moves
}

// balanceMove picks the balance-improving move for v (in subdomain a, weight
// vw, internal degree id) with the best gain among the gathered adjacent
// rows or, when none can take v, among all other subdomains (gain is then
// -id: v becomes fully exposed). Returns -1 when no move is legal.
func (r *Refiner) balanceMove(v, a int32, vw []int32, id int64) (int32, int64) {
	bestB := int32(-1)
	var bestGain int64
	bestBal := 0.0
	for _, b := range r.st.Rows.Touched() {
		r.tryCandidate(a, b, vw, r.st.Rows.Weight(b)-id, &bestB, &bestGain, &bestBal)
	}
	if bestB < 0 {
		for b := int32(0); int(b) < r.k; b++ {
			if b == a || r.st.Rows.Marked(v, b) {
				continue
			}
			r.tryCandidate(a, b, vw, -id, &bestB, &bestGain, &bestBal)
		}
	}
	return bestB, bestGain
}

// tryCandidate updates the running best (b, gain) if moving v (weight vw)
// from a to b is legal and better: balance improvement first, then gain.
func (r *Refiner) tryCandidate(a, b int32, vw []int32, gain int64, bestB *int32, bestGain *int64, bestBal *float64) {
	if !r.fits(b, vw) {
		return
	}
	bal := r.st.BalanceDelta(a, b, vw)
	if bal >= 0 {
		return // must strictly improve balance in a balance pass
	}
	if *bestB < 0 || gain > *bestGain || (gain == *bestGain && bal < *bestBal) {
		*bestB, *bestGain, *bestBal = b, gain, bal
	}
}

// apply commits the move of v (weight vw, cut reduction gain) from a to b:
// the loads and the cut, then the boundary state through its one move
// update (v's entry and every neighbor's), then the serial tables. The
// mover's mask is cleared, and every neighbor's mask stays a superset of the
// rows that reach its id: a neighbor in a has its id fall, so any row may
// now reach it and its mask is cleared; a neighbor in b has its id rise
// while one row falls, so its mask holds; any other neighbor gains b's bit,
// the one row that grew. The gate is re-derived for v and every neighbor.
// O(degree(v)).
func (r *Refiner) apply(g *graph.Graph, v, a, b int32, vw []int32, gain int64) {
	m := r.m
	vecw.Move(r.st.Pwgts[int(a)*m:(int(a)+1)*m], r.st.Pwgts[int(b)*m:(int(b)+1)*m], vw)
	r.cut -= gain
	r.st.Move(v, a, b)
	adj, _ := g.Neighbors(v)
	for _, u := range adj {
		if pu := r.st.Labels[u]; pu == a {
			r.rej[u] = 0
		} else if pu != b && r.rej[u] != 0 {
			r.rej[u] |= 1 << (b & 63)
		}
		r.setGate(u)
	}
	r.rej[v] = 0
	r.setGate(v)
	r.updates += int64(len(adj)) + 1
}

// gated reports whether v is a candidate: a boundary vertex whose row bound
// reaches its internal degree.
func (r *Refiner) gated(v int32) bool { return r.st.Nfr[v] > 0 && r.st.MaxRow[v] >= r.st.ID[v] }

// setGate re-derives v's candidate gate and keeps the running candidate
// count in step.
func (r *Refiner) setGate(v int32) {
	if gate := r.gated(v); gate != r.gate[v] {
		r.gate[v] = gate
		if gate {
			r.candidates++
		} else {
			r.candidates--
		}
	}
}

// fits reports whether subdomain b can take weight vw within its limit.
func (r *Refiner) fits(b int32, vw []int32) bool {
	m := r.m
	return vecw.FitsUnder(r.st.Pwgts[int(b)*m:(int(b)+1)*m], vw, r.st.Limit[int(b)*m:(int(b)+1)*m])
}

// over reports whether subdomain a is over its limit on any constraint.
func (r *Refiner) over(a int32) bool {
	m := r.m
	return vecw.AnyOver(r.st.Pwgts[int(a)*m:(int(a)+1)*m], r.st.Limit[int(a)*m:(int(a)+1)*m])
}
