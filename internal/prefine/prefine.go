// Package prefine implements the paper's central contribution: parallel
// multilevel refinement for multi-constraint partitionings that is as
// permissive as serial refinement while keeping all m constraints (nearly)
// balanced — the two-pass reservation scheme of Section 2.
//
// Per refinement iteration (two sweeps, which Options.DirectionFilter can
// restrict to "up"/"down" target subdomains — the coarse-grain
// formulation's oscillation guard, off by default; see DESIGN.md):
//
//  1. Proposal pass: each rank scans its boundary vertices exactly like the
//     serial greedy algorithm — against the current replicated subdomain
//     weights plus its *own* tentative deltas — but records the moves in
//     temporary structures instead of committing them.
//  2. A global reduction sums, per (subdomain, constraint), the proposed
//     inflow and the proposed net change.
//  3. If committing everything would push a subdomain over its limit, each
//     rank disallows the paper's portion — one minus the subdomain's
//     remaining extra space divided by the total proposed inflow — of its
//     own proposed moves into that subdomain.
//
// The paper selects the disallowed moves *randomly*, accepts that the
// resulting weights can drift slightly past the limits, and relies on later
// iterations to absorb the residual. This implementation keeps the same
// portion but selects deterministically: each rank spends its proportional
// share of the remaining space on its highest-gain proposals first (see
// applyReservation). On coarse graphs — where the paper itself observes the
// vertex granularity makes overshoot likely — random selection has high
// weight variance and measurably worse balance/edge-cut trade-offs; the
// gain-ordered variant guarantees no subdomain is pushed past its limit by
// committed inflow while disallowing no more weight than the paper's rule.
//
// The package also implements the two rejected designs as ablations: the
// static "slice" allocation (each rank may move at most extra/p weight into
// a subdomain — the scheme the paper measured at up to 50% worse edge-cut)
// and unrestricted commits (no balance protection at all).
//
// Cost. Each rank keeps the serial refiner's boundary state
// (internal/gaincache) over its owned vertices, with their ghosts' labels:
// id and ed, the edge weight to its own and to foreign subdomains, nfr, its
// number of foreign neighbors, and maxRow, an upper bound on its heaviest
// gain row. Tentative moves, reservation rollbacks and changed ghost labels
// go through the state's one neighbor update; a pass revert re-seeds it.
// The up and down sweeps gather only the vertices with maxRow > id: every
// other vertex has no positive-gain move. A sweep thus costs O(n) for the
// random permutation plus O(degree) per gathered vertex. Balance sweeps,
// which may move interior vertices, gather every vertex they visit, and the
// SliceSmart demand scan every boundary vertex. The global cut is the
// all-reduced sum of the external degrees. The simulated clock is charged
// as if every visited vertex were scanned, so simulated times do not depend
// on the state (see DESIGN.md, "Boundary refinement contract").
package prefine

import (
	"sort"

	"repro/internal/check"
	"repro/internal/gaincache"
	"repro/internal/pgraph"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/vecw"
)

// Scheme selects how concurrent refinement protects balance.
type Scheme int

const (
	// Reservation is the paper's contribution (default).
	Reservation Scheme = iota
	// Slice statically splits each subdomain's extra space across ranks
	// (ablation: overly restrictive).
	Slice
	// SliceSmart splits each subdomain's extra space proportionally to
	// each rank's demand — the weight of its border vertices with
	// cut-improving moves into the subdomain. This is the "more
	// intelligent allocation" family the paper reports investigating
	// (allocations based on potential edge-cut improvements and border
	// vertex weights) and still found up to 50% worse than the
	// reservation scheme.
	SliceSmart
	// Free commits every proposed move (ablation: no protection).
	Free
)

// String names the scheme for experiment output.
func (s Scheme) String() string {
	switch s {
	case Reservation:
		return "reservation"
	case Slice:
		return "slice"
	case SliceSmart:
		return "slice-smart"
	case Free:
		return "free"
	}
	return "unknown"
}

// Options configures parallel refinement.
type Options struct {
	Tol    float64
	Passes int
	Scheme Scheme
	// Rounds splits each sweep into this many propose/reduce/commit
	// rounds (default 3): more rounds refresh the replicated subdomain
	// weights more often at the price of extra collectives.
	Rounds int
	// DirectionFilter restricts the two refinement sub-phases of each pass
	// to higher-/lower-numbered target subdomains respectively, the
	// oscillation guard of the coarse-grain formulation [4]. Off by
	// default: with tentative within-rank state and pass-level rollback
	// the guarded oscillation does not materialize, and the restriction
	// costs ~20% edge-cut (BenchmarkAblationDirection).
	DirectionFilter bool
	// Stop, when non-nil, is polled at every pass boundary; once it
	// returns true Refine returns early with the moves committed so far.
	// The callback MUST be collective and return the same value on all
	// ranks (wire it to mpi.Comm.AgreeAbort) so every rank leaves the
	// pass loop together; the committed partitioning state is replicated
	// and consistent at pass boundaries, so early exit is safe.
	Stop func() bool
	// Trace, when non-nil, records one "refine.pass" span per pass on
	// this rank's track, attributed with the pass's global moves and
	// global cut, with this rank's boundary vertices, candidates (ed > id)
	// and gathered vertices (maxRow > id) seen in the up sweep, and with
	// its reservation conflicts (tentative moves rolled back by the
	// reservation protocol). Purely local recording — no extra collectives
	// — so traced and untraced runs have identical simulated times. nil
	// disables all recording.
	Trace *trace.Rank
}

// Refiner refines the distributed partitioning of one graph level.
type Refiner struct {
	dg  *pgraph.DGraph
	k   int
	m   int
	opt Options

	part []int32 // the caller's owned labels, written back by Refine

	// st is the boundary state over the owned vertices, exact under every
	// label change this rank sees; its labels are the owned labels, then
	// the ghosts'. Its Pwgts are the replicated k*m subdomain weights.
	st gaincache.State
	// gxadj/gadj/gwgt is the ghost→owned reverse adjacency (CSR over ghost
	// slots): the owned endpoint and weight of every edge to each ghost,
	// through which a ghost exchange applies changed ghost labels to the
	// state. ghostNew receives the exchange before the diff.
	gxadj    []int32
	gadj     []int32
	gwgt     []int32
	ghostNew []int32

	order []int32

	// proposal buffers
	propV    []int32
	propFrom []int32
	propTo   []int32
	propGain []int64

	// conflicts counts this rank's tentative moves rolled back by the
	// reservation protocol (diagnostic; reported on trace spans).
	conflicts int64
	// bndSeen counts this rank's boundary vertices seen during the pass's
	// up-sweep (diagnostic; reported as boundary_n on trace spans).
	bndSeen int64
	// candidates counts the vertices with ed > id this rank saw in the
	// pass's up-sweep, and gathered those it gathered, the ones with
	// maxRow > id (diagnostics; reported on trace spans).
	candidates int64
	gathered   int64
}

// proposed move bookkeeping sizes: inflow and net deltas are k*m each.

// NewRefiner wraps the distributed graph and the rank's current labels
// (length NLocal). Collective: computes global subdomain weights.
func NewRefiner(dg *pgraph.DGraph, part []int32, k int, opt Options) *Refiner {
	if opt.Tol <= 0 {
		opt.Tol = 0.05
	}
	if opt.Passes <= 0 {
		opt.Passes = 10
	}
	m := dg.Ncon
	nlocal := dg.NLocal()
	r := &Refiner{
		dg: dg, k: k, m: m, opt: opt,
		part:     part,
		st:       gaincache.NewState(k, m),
		ghostNew: make([]int32, dg.NGhost()),
		order:    make([]int32, nlocal),
	}
	labels := make([]int32, nlocal+dg.NGhost())
	copy(labels, part)
	r.st.Bind(dg.Xadj, dg.Adjncy, dg.Adjwgt, labels)
	r.st.Load(dg.Vwgt)
	dg.Comm.AllreduceSumI64(r.st.Pwgts)
	// The totals are the column sums of the all-reduced loads, which
	// SetLimits takes; this all-reduce is redundant, but removing it
	// would move every simulated time.
	dg.TotalVertexWeight()
	r.st.SetLimits(opt.Tol)
	dg.ExchangeGhostsI32(labels[:nlocal], labels[nlocal:])
	r.buildGhostAdjacency()
	r.st.Seed()
	return r
}

// buildGhostAdjacency builds the ghost→owned reverse adjacency.
func (r *Refiner) buildGhostAdjacency() {
	dg := r.dg
	nlocal := dg.NLocal()
	r.gxadj = make([]int32, dg.NGhost()+1)
	for _, u := range dg.Adjncy {
		if int(u) >= nlocal {
			r.gxadj[int(u)-nlocal+1]++
		}
	}
	for g := 0; g < dg.NGhost(); g++ {
		r.gxadj[g+1] += r.gxadj[g]
	}
	fill := append([]int32(nil), r.gxadj[:dg.NGhost()]...)
	r.gadj = make([]int32, r.gxadj[dg.NGhost()])
	r.gwgt = make([]int32, len(r.gadj))
	for v := 0; v < nlocal; v++ {
		for e := dg.Xadj[v]; e < dg.Xadj[v+1]; e++ {
			if g := int(dg.Adjncy[e]) - nlocal; g >= 0 {
				r.gadj[fill[g]] = int32(v)
				r.gwgt[fill[g]] = dg.Adjwgt[e]
				fill[g]++
			}
		}
	}
}

// exchangeGhosts refreshes the ghost labels (collective) and applies every
// changed one to the boundary state through the reverse adjacency.
func (r *Refiner) exchangeGhosts() {
	nlocal := r.dg.NLocal()
	r.dg.ExchangeGhostsI32(r.st.Labels[:nlocal], r.ghostNew)
	for g, b := range r.ghostNew {
		if a := r.st.Labels[nlocal+g]; a != b {
			r.st.Labels[nlocal+g] = b
			for i := r.gxadj[g]; i < r.gxadj[g+1]; i++ {
				r.st.Shift(r.gadj[i], a, b, int64(r.gwgt[i]))
			}
		}
	}
}

// Part returns the rank's labels (aliases the slice passed in); current
// after Refine.
func (r *Refiner) Part() []int32 { return r.part }

// GlobalCut returns the current global edge-cut: the cached external
// degrees of the owned vertices, summed over all ranks and halved.
// Collective: every rank must call it.
func (r *Refiner) GlobalCut() int64 { return r.globalCut() }

// PartWeights returns a copy of the replicated k*m global subdomain weight
// vectors as maintained incrementally by the commit reductions.
func (r *Refiner) PartWeights() []int64 {
	return append([]int64(nil), r.st.Pwgts...)
}

// Refine runs refinement iterations until the edge-cut stops improving (at
// balance) or the pass budget is exhausted, and leaves the labels in the
// slice passed to NewRefiner. Collective. Returns total global moves.
func (r *Refiner) Refine(rand *rng.RNG) int64 {
	owned := r.st.Labels[:r.dg.NLocal()]
	defer copy(r.part, owned)
	var totalMoves int64
	prevCut := r.globalCut()
	stale := 0
	var snapPart []int32
	var snapPwgts []int64
	for pass := 0; pass < r.opt.Passes; pass++ {
		if r.opt.Stop != nil && r.opt.Stop() {
			break
		}
		var conflicts0 int64
		if r.opt.Trace != nil {
			conflicts0 = r.conflicts
			r.bndSeen = 0
			r.candidates = 0
			r.gathered = 0
			r.opt.Trace.Begin("refine.pass",
				trace.I64("pass", int64(pass)),
				trace.I64("local_n", int64(r.dg.NLocal())))
		}
		// Snapshot balanced states: concurrent stale gains can make a pass
		// a net loss, and unlike the serial FM there is no per-move
		// rollback — so roll back whole passes that hurt a balanced
		// partitioning. (A pass starting imbalanced is kept regardless:
		// its job is balance, which is worth edge-cut.)
		startBalanced := !r.st.Imbalanced()
		if startBalanced {
			snapPart = append(snapPart[:0], owned...)
			snapPwgts = append(snapPwgts[:0], r.st.Pwgts...)
		}
		var moves int64
		// Balance phases repeat (each bounded by the fair-share quota)
		// until the constraints are back under their limits or progress
		// stops; refinement on an imbalanced partitioning just fights the
		// balancer.
		for i := 0; i < 3 && r.st.Imbalanced(); i++ {
			mv := r.phase(rand, phaseBalance)
			moves += mv
			if mv == 0 {
				break
			}
		}
		moves += r.phase(rand, phaseUp)
		moves += r.phase(rand, phaseDown)
		totalMoves += moves
		cut := r.globalCut()
		if r.opt.Trace != nil {
			// Closed here, before the convergence breaks, so every pass —
			// including a final or rolled-back one — has a balanced span.
			r.opt.Trace.End(
				trace.I64("moves", moves),
				trace.I64("cut", cut),
				trace.I64("boundary_n", r.bndSeen),
				trace.I64("candidates", r.candidates),
				trace.I64("gathered", r.gathered),
				trace.I64("conflicts", r.conflicts-conflicts0))
		}
		if moves == 0 {
			break
		}
		if cut >= prevCut && !r.st.Imbalanced() {
			if startBalanced && cut > prevCut {
				// Net loss on a balanced partitioning: revert the pass.
				copy(owned, snapPart)
				copy(r.st.Pwgts, snapPwgts)
				r.dg.ExchangeGhostsI32(owned, r.st.Labels[len(owned):])
				r.st.Seed()
				if check.Enabled {
					check.Boundary("prefine: after pass revert", &r.st, nil, nil, 0)
				}
				break
			}
			stale++
			if stale >= 2 {
				break
			}
		} else {
			stale = 0
		}
		if cut < prevCut {
			prevCut = cut
		}
	}
	return totalMoves
}

// globalCut returns the current edge-cut (collective). Each rank sums its
// owned vertices' external degrees; every cut edge is counted exactly twice
// across the world (once per endpoint, regardless of ownership). The
// simulated clock is still charged the full adjacency scan the sum
// replaces.
func (r *Refiner) globalCut() int64 {
	dg := r.dg
	dg.Comm.Work(int(dg.Xadj[dg.NLocal()]))
	buf := []int64{r.st.External()}
	dg.Comm.AllreduceSumI64(buf)
	return buf[0] / 2
}

type phaseKind int

const (
	phaseUp      phaseKind = iota // only moves to higher-numbered subdomains
	phaseDown                     // only moves to lower-numbered subdomains
	phaseBalance                  // cut-damage-minimizing moves out of overweight subdomains
)

// phase runs one full sweep over the owned vertices as a sequence of
// propose/reduce/commit rounds (Options.Rounds chunks of the random visit
// order) and returns the global number of committed moves. Chunking
// matters for many-constraint problems: a move into a full subdomain only
// becomes legal after another rank's outflow from it commits, so shorter
// rounds let such exchange chains form across ranks within one sweep.
func (r *Refiner) phase(rand *rng.RNG, kind phaseKind) int64 {
	rand.Perm(r.order)
	rounds := r.opt.Rounds
	if rounds <= 0 {
		// Exchange chains across ranks only matter when feasible moves are
		// scarce — many constraints hovering at their limits. Below four
		// constraints a single update per sweep matches serial quality, so
		// the extra collectives are not worth their latency. The rejected
		// schemes (slice, free) are always modeled at the paper's
		// one-update-per-sweep granularity.
		if r.opt.Scheme == Reservation && r.m >= 4 {
			rounds = 3
		} else {
			rounds = 1
		}
	}
	var total int64
	n := len(r.order)
	for i := 0; i < rounds; i++ {
		lo, hi := i*n/rounds, (i+1)*n/rounds
		total += r.round(rand, kind, r.order[lo:hi])
	}
	return total
}

// round is one propose/reduce/commit cycle over the given vertices.
func (r *Refiner) round(rand *rng.RNG, kind phaseKind, verts []int32) int64 {
	dg := r.dg
	m := r.m
	k := r.k

	r.propV = r.propV[:0]
	r.propTo = r.propTo[:0]
	r.propFrom = r.propFrom[:0]
	r.propGain = r.propGain[:0]
	ldelta := make([]int64, k*m) // this rank's tentative net change
	inflow := make([]int64, k*m) // this rank's proposed inflow

	// Static slice allocation for the ablation schemes: each rank may claim
	// a pre-agreed share of every subdomain's remaining space — an equal
	// 1/p share (Slice), or a share proportional to the rank's demand
	// (SliceSmart), which costs one extra reduction per phase.
	var slice []int64
	switch r.opt.Scheme {
	case Slice:
		slice = make([]int64, k*m)
		p := int64(dg.Comm.Size())
		for i := range slice {
			if extra := r.st.Limit[i] - r.st.Pwgts[i]; extra > 0 {
				slice[i] = extra / p
			}
		}
	case SliceSmart:
		slice = r.smartSlices()
	}

	// Balance-phase fair-share quota: if every rank independently drained a
	// whole subdomain's excess the group would overshoot by p, flipping the
	// imbalance elsewhere, so each rank only proposes its 1/p share (plus
	// one vertex of slack) of any (subdomain, constraint) excess per phase.
	var quota []int64
	if kind == phaseBalance {
		quota = make([]int64, k*m)
		p := int64(dg.Comm.Size())
		for i := range quota {
			if excess := r.st.Pwgts[i] - r.st.Limit[i]; excess > 0 {
				quota[i] = excess/p + 1
			}
		}
	}

	work := 0
	for _, v := range verts {
		a := r.st.Labels[v]
		if kind == phaseBalance {
			// Only drain subdomains still over limit, within this rank's
			// fair-share quota for at least one violated constraint.
			hasQuota := false
			for c := 0; c < m; c++ {
				if quota[int(a)*m+c] > 0 && r.st.Pwgts[int(a)*m+c]+ldelta[int(a)*m+c] > r.st.Limit[int(a)*m+c] {
					hasQuota = true
					break
				}
			}
			if !hasQuota {
				continue
			}
		}
		// The simulated clock is charged a full adjacency scan of every
		// visited vertex, gated or not.
		work += dg.Degree(int(v))
		if kind != phaseBalance {
			if kind == phaseUp && r.st.Nfr[v] > 0 {
				r.bndSeen++
			}
			if kind == phaseUp && r.st.ED[v] > r.st.ID[v] {
				r.candidates++
			}
			// Every row is at most maxRow and these sweeps drop gain <= 0,
			// so a vertex with maxRow <= id has no move to propose.
			if r.st.MaxRow[v] <= r.st.ID[v] {
				continue
			}
			if kind == phaseUp {
				r.gathered++
			}
		}
		r.st.Gather(v)
		id := r.st.ID[v]
		vw := dg.LocalVertexWeight(v)
		bestB := int32(-1)
		var bestGain int64
		bestBal := 0.0
		for _, b := range r.st.Rows.Touched() {
			gain := r.st.Rows.Weight(b) - id
			if kind != phaseBalance && gain <= 0 {
				// Unlike the serial greedy pass, zero-gain balance-improving
				// moves are not worth proposing here: their realized gain
				// under concurrent remote moves has negative expectation and
				// they churn endlessly on workloads with zero-weight edges
				// (Type 2). The balance phase owns balance-improving moves.
				continue
			}
			if !r.acceptable(kind, a, b, vw, gain, ldelta, slice) {
				continue
			}
			bal := r.st.BalanceDelta(a, b, vw)
			if kind == phaseBalance && bal >= 0 {
				continue
			}
			if bestB < 0 || gain > bestGain || (gain == bestGain && bal < bestBal) {
				bestB, bestGain, bestBal = b, gain, bal
			}
		}
		if bestB < 0 && kind == phaseBalance {
			// Overweight subdomain with no adjacent relief: consider all.
			for b := int32(0); int(b) < k; b++ {
				if b == a || r.st.Rows.Marked(v, b) {
					continue
				}
				gain := -id
				if !r.acceptable(kind, a, b, vw, gain, ldelta, slice) {
					continue
				}
				if bal := r.st.BalanceDelta(a, b, vw); bal < 0 && (bestB < 0 || bal < bestBal) {
					bestB, bestGain, bestBal = b, gain, bal
				}
			}
		}
		if bestB < 0 {
			continue
		}
		// Apply tentatively: within this rank subsequent gain computations
		// see the move ("only temporary data structures are updated" —
		// remote ranks still see the phase-start state). Disallowed moves
		// are rolled back after the reduction.
		r.propV = append(r.propV, v)
		r.propFrom = append(r.propFrom, a)
		r.propTo = append(r.propTo, bestB)
		r.propGain = append(r.propGain, bestGain)
		r.st.Move(v, a, bestB)
		vecw.Sub(ldelta[int(a)*m:(int(a)+1)*m], vw)
		vecw.Add(ldelta[int(bestB)*m:(int(bestB)+1)*m], vw)
		vecw.Add(inflow[int(bestB)*m:(int(bestB)+1)*m], vw)
		if slice != nil {
			// Charge the claimed space against this rank's slice.
			for c := 0; c < m; c++ {
				slice[int(bestB)*m+c] -= int64(vw[c])
			}
		}
		if kind == phaseBalance {
			for c := 0; c < m; c++ {
				quota[int(a)*m+c] -= int64(vw[c])
			}
		}
	}
	dg.Comm.Work(work)

	// Global reduction: proposed inflow per (subdomain, constraint).
	globalInflow := append([]int64(nil), inflow...)
	dg.Comm.AllreduceSumI64(globalInflow)

	// Reservation: each rank must disallow the portion of its proposed
	// moves into would-be-overweight subdomains that exceeds the
	// subdomain's remaining extra space. The paper selects the disallowed
	// moves randomly and notes poor selections are corrected later; we
	// disallow the *lowest-gain* moves within a budget proportional to
	// this rank's share of the proposed inflow — same disallowed portion,
	// deterministic selection, much lower weight-overshoot variance on
	// coarse graphs where individual vertices are heavy.
	disallow := make([]bool, len(r.propV))
	if r.opt.Scheme == Reservation {
		r.applyReservation(globalInflow, inflow, disallow)
	}

	// Commit pass: roll the disallowed tentative moves back; the survivors
	// are already applied.
	committed := make([]int64, k*m)
	var moves int64
	for i, v := range r.propV {
		a, b := r.propFrom[i], r.propTo[i]
		vw := dg.LocalVertexWeight(v)
		if disallow[i] {
			r.st.Move(v, b, a)
			r.conflicts++
			continue
		}
		vecw.Sub(committed[int(a)*m:(int(a)+1)*m], vw)
		vecw.Add(committed[int(b)*m:(int(b)+1)*m], vw)
		moves++
	}
	dg.Comm.AllreduceSumI64(committed)
	for i := range r.st.Pwgts {
		r.st.Pwgts[i] += committed[i]
	}
	r.exchangeGhosts()
	if check.Enabled {
		check.Boundary("prefine: after round", &r.st, nil, nil, 0)
	}

	mv := []int64{moves}
	dg.Comm.AllreduceSumI64(mv)
	return mv[0]
}

// smartSlices allocates each subdomain's extra space across ranks
// proportionally to demand: this rank's demand for subdomain b is the
// summed weight of its border vertices whose best cut-improving move
// targets b. One extra all-reduce per phase. This reproduces the
// "intelligent allocation" family of schemes the paper investigated and
// rejected.
func (r *Refiner) smartSlices() []int64 {
	dg := r.dg
	m := r.m
	k := r.k
	demand := make([]int64, k*m)
	nlocal := dg.NLocal()
	for v := int32(0); int(v) < nlocal; v++ {
		if r.st.Nfr[v] == 0 {
			continue
		}
		r.st.Gather(v)
		id := r.st.ID[v]
		bestB := int32(-1)
		var bestGain int64
		for _, b := range r.st.Rows.Touched() {
			if gain := r.st.Rows.Weight(b) - id; gain > 0 && (bestB < 0 || gain > bestGain) {
				bestB, bestGain = b, gain
			}
		}
		if bestB >= 0 {
			vecw.Add(demand[int(bestB)*m:(int(bestB)+1)*m], dg.LocalVertexWeight(v))
		}
	}
	dg.Comm.Work(int(dg.Xadj[nlocal]))
	totalDemand := append([]int64(nil), demand...)
	dg.Comm.AllreduceSumI64(totalDemand)

	slice := make([]int64, k*m)
	for i := range slice {
		extra := r.st.Limit[i] - r.st.Pwgts[i]
		if extra <= 0 || totalDemand[i] == 0 {
			continue
		}
		if demand[i] >= totalDemand[i] {
			slice[i] = extra
		} else {
			slice[i] = extra * demand[i] / totalDemand[i]
		}
	}
	return slice
}

// applyReservation marks the proposals this rank must disallow: for every
// (subdomain b, constraint c) where committing all proposals would exceed
// the limit, the rank may only land its proportional share of the extra
// space — budget[c] = extra[c] * ownInflow[c] / globalInflow[c] — and it
// spends that budget on its highest-gain proposals into b first.
func (r *Refiner) applyReservation(globalInflow, ownInflow []int64, disallow []bool) {
	m := r.m
	k := r.k
	// Group this rank's proposal indices by target subdomain.
	byTarget := make([][]int, k)
	for i, b := range r.propTo {
		byTarget[b] = append(byTarget[b], i)
	}
	budget := make([]int64, m)
	for b := 0; b < k; b++ {
		if len(byTarget[b]) == 0 {
			continue
		}
		capped := false
		for c := 0; c < m; c++ {
			i := b*m + c
			budget[c] = 1 << 62
			if globalInflow[i] == 0 || r.st.Pwgts[i]+globalInflow[i] <= r.st.Limit[i] {
				continue
			}
			extra := r.st.Limit[i] - r.st.Pwgts[i]
			if extra < 0 {
				extra = 0
			}
			budget[c] = extra * ownInflow[i] / globalInflow[i]
			capped = true
		}
		if !capped {
			continue
		}
		idx := byTarget[b]
		sort.Slice(idx, func(x, y int) bool { return r.propGain[idx[x]] > r.propGain[idx[y]] })
		for _, i := range idx {
			vw := r.dg.LocalVertexWeight(r.propV[i])
			fits := true
			for c := 0; c < m; c++ {
				if int64(vw[c]) > budget[c] {
					fits = false
					break
				}
			}
			if !fits {
				disallow[i] = true
				continue
			}
			for c := 0; c < m; c++ {
				budget[c] -= int64(vw[c])
			}
		}
	}
	r.dg.Comm.Work(len(r.propV))
}

// acceptable applies the phase's direction filter and the tentative
// balance check for a candidate move of vertex weight vw from a to b.
func (r *Refiner) acceptable(kind phaseKind, a, b int32, vw []int32, gain int64, ldelta, slice []int64) bool {
	m := r.m
	switch kind {
	case phaseUp:
		if gain < 0 || (r.opt.DirectionFilter && b <= a) {
			return false
		}
	case phaseDown:
		if gain < 0 || (r.opt.DirectionFilter && b >= a) {
			return false
		}
	case phaseBalance:
		// any direction, any gain
	}
	switch r.opt.Scheme {
	case Slice, SliceSmart:
		// May only claim space from this rank's pre-agreed slice.
		for c := 0; c < m; c++ {
			if int64(vw[c]) > slice[int(b)*m+c] {
				return false
			}
		}
		return true
	default:
		// Tentative local view: replicated weights plus this rank's own
		// pending deltas must stay within limits. (Other ranks' concurrent
		// proposals are invisible — that is exactly the relaxation the
		// reservation pass repairs.)
		for c := 0; c < m; c++ {
			i := int(b)*m + c
			if r.st.Pwgts[i]+ldelta[i]+int64(vw[c]) > r.st.Limit[i] {
				return false
			}
		}
		return true
	}
}
