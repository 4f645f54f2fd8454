// Package kwayrefine implements the serial multi-constraint k-way
// refinement used during the uncoarsening phase (SC'98): a randomized
// greedy Kernighan-Lin variant that moves boundary vertices to adjacent
// subdomains when the move reduces edge-cut and keeps every one of the m
// constraints within its balance limit, plus an explicit balancing pass
// that accepts cut-increasing moves to drain overweight subdomains.
//
// Refinement is boundary-driven, as the paper describes ("the vertices that
// are on the boundary of the partition are visited"): the refiner keeps
// per-vertex internal/external edge-weight tables (the gain cache) and a
// count of the boundary vertices they induce, seeded by one O(m) scan in
// setup and updated incrementally — only the moved vertex and its
// neighbors — on every move. The cache also keeps maxRow, an upper bound on
// each vertex's heaviest gain row (edge weight toward one foreign
// subdomain), and a one-byte candidate gate per vertex, set for boundary
// vertices with maxRow >= id: a vertex whose every row is below its
// internal degree has no move with gain >= 0. A candidate that was
// evaluated and stayed keeps a rejection mask of the subdomains whose row
// may reach its internal degree, so its next visit skips the adjacency scan
// unless one of them can take it. A greedy pass therefore costs O(n) for
// the random permutation plus O(degree) per candidate it gathers. All
// tables are O(n); no per-edge state is kept. The refiner is pinned
// bit-identical to a full-scan reference kept in reference_test.go (see
// DESIGN.md, "Boundary refinement contract").
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
	// returns true Refine/Balance return early with the moves made so
	// far. The partitioning is always left in a consistent (if less
	// refined) state, so cancellation mid-uncoarsening is safe.
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
	k, m  int
	opt   Options
	pwgts []int64 // k*m
	limit []int64 // k*m
	avg   []float64
	// cut is seeded from the external-degree table in setup and maintained
	// incrementally (each applied move subtracts its gain). Under the
	// mcdebug build tag check.Partition compares it against a scratch
	// recomputation after every Refine.
	cut int64
	// rows is the per-vertex gain-row accumulator (edge weight toward each
	// adjacent foreign subdomain), shared structurally with the parallel
	// refiner via internal/gaincache.
	rows  *gaincache.Rows
	order []int32

	// The gain cache: per-vertex internal (same-subdomain) and external
	// edge weight, foreign-neighbor count, and the number of boundary
	// vertices (nfr > 0) it induces; maxRow[v], an upper bound on v's
	// heaviest gain row, never above ed[v]; the candidate gate gate[v] =
	// nfr[v] > 0 && maxRow[v] >= id[v] with its running count; and the
	// rejection mask rej[v], zero when unknown, else a superset of the
	// subdomains whose row reaches id[v] (bit b&63 for subdomain b, so one
	// bit stands for every subdomain congruent to it when k > 64). Seeded
	// by setup with one O(m) scan; gatherRows makes maxRow[v] exact, and
	// apply rewrites only the moved vertex's and its neighbors' entries.
	id, ed     []int64
	maxRow     []int64
	nfr        []int32
	rej        []uint64
	gate       []bool
	boundary   int
	candidates int
	updates    int64 // gain-cache entries rewritten by apply (trace counter)
}

// NewRefiner creates a refiner for k parts and m constraints.
func NewRefiner(k, m int, opt Options) *Refiner {
	return &Refiner{
		k: k, m: m, opt: opt.withDefaults(),
		pwgts: make([]int64, k*m),
		limit: make([]int64, k*m),
		avg:   make([]float64, m),
		rows:  gaincache.NewRows(k),
	}
}

// Reserve grows the per-vertex tables (41 bytes per vertex) to the given
// graph's size, so refining a hierarchy after announcing the finest level
// up front (as internal/serial does) never reallocates per level.
func (r *Refiner) Reserve(g *graph.Graph) {
	r.grow(g.NumVertices())
}

func (r *Refiner) grow(n int) {
	if cap(r.order) < n {
		r.order = make([]int32, 0, n)
		r.id = make([]int64, 0, n)
		r.ed = make([]int64, 0, n)
		r.maxRow = make([]int64, 0, n)
		r.nfr = make([]int32, 0, n)
		r.rej = make([]uint64, 0, n)
		r.gate = make([]bool, 0, n)
	}
}

// setup recomputes subdomain weights, averages and limits for g/part, seeds
// the gain cache (id/ed/nfr and the boundary count) with one scan over the
// edges, clears every rejection mask, and sizes the per-vertex scratch —
// the single shared preamble for every entry point (Refine and Balance).
func (r *Refiner) setup(g *graph.Graph, part []int32) {
	for i := range r.pwgts {
		r.pwgts[i] = 0
	}
	n := g.NumVertices()
	m := r.m
	r.grow(n)
	r.order = r.order[:n]
	r.id = r.id[:n]
	r.ed = r.ed[:n]
	r.maxRow = r.maxRow[:n]
	r.nfr = r.nfr[:n]
	r.rej = r.rej[:n]
	clear(r.rej)
	r.gate = r.gate[:n]
	r.boundary = 0
	r.candidates = 0
	for v := 0; v < n; v++ {
		vecw.Add(r.pwgts[int(part[v])*m:(int(part[v])+1)*m], g.Vwgt[v*m:(v+1)*m])
	}
	// The constraint totals are the subdomain weights summed.
	for c := 0; c < m; c++ {
		var total int64
		for s := 0; s < r.k; s++ {
			total += r.pwgts[s*m+c]
		}
		r.avg[c] = float64(total) / float64(r.k)
		lim := vecw.Limit(total, r.k, r.opt.Tol)
		for s := 0; s < r.k; s++ {
			r.limit[s*m+c] = lim
		}
	}

	var extern int64
	for v := int32(0); int(v) < n; v++ {
		a := part[v]
		var id, ed int64
		nfr := int32(0)
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if part[u] == a {
				id += int64(wgt[i])
			} else {
				ed += int64(wgt[i])
				nfr++
			}
		}
		r.id[v], r.ed[v], r.maxRow[v], r.nfr[v] = id, ed, ed, nfr
		if nfr > 0 {
			r.boundary++
		}
		r.gate[v] = false
		r.setGate(v)
		extern += ed
	}
	// Every cut edge contributes its weight to both endpoints' external
	// degree, so the table seed yields the cut for free.
	r.cut = extern / 2
	r.updates = 0
}

// Cut returns the edge-cut as seeded by setup and maintained incrementally
// across moves; valid after Refine/Balance.
func (r *Refiner) Cut() int64 { return r.cut }

// PartWeights returns a copy of the current k*m subdomain weight vectors;
// valid after Refine/Balance.
func (r *Refiner) PartWeights() []int64 {
	return append([]int64(nil), r.pwgts...)
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
				trace.I64("boundary_n", int64(r.boundary)))
		}
		moves := 0
		if r.imbalanced() {
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
			check.GainCache("kwayrefine: after refine pass", g, part,
				r.id, r.ed, r.maxRow, r.nfr, r.boundary, r.rej, r.gate, r.candidates)
		}
		if moves == 0 {
			break
		}
	}
	return totalMoves
}

// Balance runs only balancing passes; used to recover partitions that are
// too imbalanced for greedy refinement to help (ablation 4 harness).
func (r *Refiner) Balance(g *graph.Graph, part []int32, rand *rng.RNG) int {
	r.setup(g, part)
	total := 0
	for pass := 0; pass < r.opt.Passes && r.imbalanced(); pass++ {
		if r.opt.Stop != nil && r.opt.Stop() {
			break
		}
		moves := r.balancePass(g, part, rand)
		total += moves
		if check.Enabled {
			check.GainCache("kwayrefine: after balance pass", g, part,
				r.id, r.ed, r.maxRow, r.nfr, r.boundary, r.rej, r.gate, r.candidates)
		}
		if moves == 0 {
			break
		}
	}
	return total
}

// Imbalance returns the current max subdomain-weight / average ratio; valid
// after Refine/Balance.
func (r *Refiner) Imbalance() float64 {
	worst := 0.0
	for s := 0; s < r.k; s++ {
		if rr := vecw.MaxRatio(r.pwgts[s*r.m:(s+1)*r.m], r.avg); rr > worst {
			worst = rr
		}
	}
	return worst
}

func (r *Refiner) imbalanced() bool {
	return vecw.AnyOver(r.pwgts, r.limit)
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
		r.gatherRows(g, part, v)
		id := r.id[v]
		if b, gain := r.greedyMove(a, vw, id); b >= 0 {
			r.apply(g, part, v, a, b, vw, gain)
			moves++
			continue
		}
		// Zero when the gather closed the gate: no row reaches id.
		var mask uint64
		for _, b := range r.rows.Touched() {
			if r.rows.Weight(b) >= id {
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
	m := r.m
	zeroGain := r.maxRow[v] == r.id[v]
	for mask := r.rej[v]; mask != 0; mask &= mask - 1 {
		for b := int32(bits.TrailingZeros64(mask)); int(b) < r.k; b += 64 {
			if b == a || !vecw.FitsUnder(r.pwgts[int(b)*m:(int(b)+1)*m], vw, r.limit[int(b)*m:(int(b)+1)*m]) {
				continue
			}
			if !zeroGain || r.balanceDelta(a, b, vw) < 0 {
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
	m := r.m
	bestB := int32(-1)
	var bestGain int64
	bestBal := 0.0
	for _, b := range r.rows.Touched() {
		gain := r.rows.Weight(b) - id
		if gain < 0 || (bestB >= 0 && gain < bestGain) {
			continue
		}
		if !vecw.FitsUnder(r.pwgts[int(b)*m:(int(b)+1)*m], vw, r.limit[int(b)*m:(int(b)+1)*m]) {
			continue
		}
		bal := r.balanceDelta(a, b, vw)
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
	m := r.m
	moves := 0
	for _, v := range r.order {
		a := part[v]
		if !vecw.AnyOver(r.pwgts[int(a)*m:(int(a)+1)*m], r.limit[int(a)*m:(int(a)+1)*m]) {
			continue
		}
		vw := g.VertexWeight(v)
		// Interior vertices (overweight subdomains may drain them too)
		// gather an empty row set in O(1).
		r.gatherRows(g, part, v)
		if b, gain := r.balanceMove(v, a, vw, r.id[v]); b >= 0 {
			r.apply(g, part, v, a, b, vw, gain)
			moves++
			if !vecw.AnyOver(r.pwgts[int(a)*m:(int(a)+1)*m], r.limit[int(a)*m:(int(a)+1)*m]) &&
				!r.imbalanced() {
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
	for _, b := range r.rows.Touched() {
		r.tryCandidate(a, b, vw, r.rows.Weight(b)-id, &bestB, &bestGain, &bestBal)
	}
	if bestB < 0 {
		for b := int32(0); int(b) < r.k; b++ {
			if b == a || r.rows.Marked(v, b) {
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
	m := r.m
	if !vecw.FitsUnder(r.pwgts[int(b)*m:(int(b)+1)*m], vw, r.limit[int(b)*m:(int(b)+1)*m]) {
		return
	}
	bal := r.balanceDelta(a, b, vw)
	if bal >= 0 {
		return // must strictly improve balance in a balance pass
	}
	if *bestB < 0 || gain > *bestGain || (gain == *bestGain && bal < *bestBal) {
		*bestB, *bestGain, *bestBal = b, gain, bal
	}
}

// gatherRows loads v's gain rows into r.rows by scanning its adjacency list
// (O(degree); an interior vertex gathers the empty set without a scan), so
// rows and their first-occurrence order are exactly what the tie-breaks
// expect, and tightens maxRow[v] to the heaviest row. The internal degree
// is not recomputed — callers read the cached r.id[v], which apply keeps
// equal to what a scan would yield (mcdebug validates it after every pass).
func (r *Refiner) gatherRows(g *graph.Graph, part []int32, v int32) {
	r.rows.Clear()
	if r.nfr[v] == 0 {
		return
	}
	a := part[v]
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		if b := part[u]; b != a {
			r.rows.Add(v, b, int64(wgt[i]))
		}
	}
	var heaviest int64
	for _, b := range r.rows.Touched() {
		heaviest = max(heaviest, r.rows.Weight(b))
	}
	r.maxRow[v] = heaviest
	r.setGate(v)
}

// apply commits the move of v (weight vw, cut reduction gain) from a to b
// and repairs the gain cache: v's own id/ed/nfr are rebuilt from its
// adjacency, its maxRow reset to ed and its mask cleared, each neighbor's
// entry is adjusted by the edge it shares with v, the boundary count
// follows every foreign-neighbor count that crosses zero, and the
// candidate gate is re-derived for every neighbor. A neighbor's row toward
// b is the only one that can grow, and only when the neighbor is not
// itself in b, so exactly then its maxRow rises by the edge weight; every
// maxRow stays clamped to ed. Each mask stays a superset of the rows that
// reach id: a neighbor in a has its id fall, so any row may now reach it
// and its mask is cleared; a neighbor in b has its id rise while one row
// falls, so its mask holds; any other neighbor gains b's bit, the one row
// that grew. O(degree(v)) total — the incremental update that makes
// boundary-driven passes sound.
func (r *Refiner) apply(g *graph.Graph, part []int32, v, a, b int32, vw []int32, gain int64) {
	m := r.m
	vecw.Move(r.pwgts[int(a)*m:(int(a)+1)*m], r.pwgts[int(b)*m:(int(b)+1)*m], vw)
	part[v] = b
	r.cut -= gain

	var idv, edv int64
	nfrv := int32(0)
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		w := int64(wgt[i])
		switch part[u] {
		case b:
			// v was foreign to u (a != b), now internal: u's a-row shrinks.
			idv += w
			r.id[u] += w
			r.ed[u] -= w
			r.maxRow[u] = min(r.maxRow[u], r.ed[u])
			r.nfr[u]--
			if r.nfr[u] == 0 {
				r.boundary--
			}
		case a:
			// v was internal to u, now foreign: u's b-row grows.
			edv += w
			nfrv++
			r.id[u] -= w
			r.ed[u] += w
			r.maxRow[u] += w
			r.nfr[u]++
			if r.nfr[u] == 1 {
				r.boundary++
			}
			r.rej[u] = 0
		default:
			// v was foreign to u before and after: weight moves from u's
			// a-row to its b-row.
			edv += w
			nfrv++
			r.maxRow[u] = min(r.maxRow[u]+w, r.ed[u])
			if r.rej[u] != 0 {
				r.rej[u] |= 1 << (b & 63)
			}
		}
		r.setGate(u)
	}
	if r.nfr[v] > 0 {
		r.boundary--
	}
	if nfrv > 0 {
		r.boundary++
	}
	r.id[v], r.ed[v], r.maxRow[v], r.nfr[v], r.rej[v] = idv, edv, edv, nfrv, 0
	r.setGate(v)
	r.updates += int64(len(adj)) + 1
}

// setGate re-derives v's candidate gate from its cached degrees and row
// bound and keeps the running candidate count in step.
func (r *Refiner) setGate(v int32) {
	if gate := r.nfr[v] > 0 && r.maxRow[v] >= r.id[v]; gate != r.gate[v] {
		r.gate[v] = gate
		if gate {
			r.candidates++
		} else {
			r.candidates--
		}
	}
}

// balanceDelta returns the change in Σ_c (load/avg)² over subdomains a and
// b if v's weight vector vw moves from a to b; negative means the move
// improves balance.
func (r *Refiner) balanceDelta(a, b int32, vw []int32) float64 {
	m := r.m
	var before, after float64
	for c := 0; c < m; c++ {
		if r.avg[c] <= 0 {
			continue
		}
		wa := float64(r.pwgts[int(a)*m+c])
		wb := float64(r.pwgts[int(b)*m+c])
		w := float64(vw[c])
		before += (wa*wa + wb*wb) / (r.avg[c] * r.avg[c])
		after += ((wa-w)*(wa-w) + (wb+w)*(wb+w)) / (r.avg[c] * r.avg[c])
	}
	return after - before
}
