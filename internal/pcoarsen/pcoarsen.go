// Package pcoarsen implements the parallel coarsening phase: coarse-grain
// heavy-edge matching with owner arbitration of conflicting requests (the
// protocol of Karypis & Kumar's coarse-grain parallel k-way algorithm,
// reference [4] of the paper) extended with the SC'98 balanced-edge
// tie-break, followed by parallel contraction into a distributed coarser
// graph. The mate choice is the serial rule, coarsen.MateRule, applied
// over a rank's owned vertices followed by its ghosts, and
// BuildHierarchy's default weight cap is the serial coarsen.MatchingCap.
//
// The arbitration protocol gives each vertex's owner sole authority over
// its matching state. Per round:
//
//  1. Every rank takes the mate rule's choice for each of its vertices not
//     yet taken. Local-local pairs commit immediately (the owner decides
//     for both endpoints). A remote candidate becomes an outbound
//     proposal, and the proposer is frozen ("pending") for the round.
//  2. Proposals travel to the targets' owners. A proposal to t is granted
//     iff t is unmatched and not itself pending — except for mutual
//     proposals (t proposed to exactly the requester), where the
//     higher-global-id side yields, which breaks the symmetric livelock.
//     Among competing proposals the heaviest edge (then lowest proposer
//     id) wins.
//  3. Responses release or bind the proposers, and the taken flags,
//     rebuilt from the matching and refreshed on the ghosts, make newly
//     matched vertices ineligible in the next round.
//
// The paper observes that this protocol matches fewer vertices per level
// than serial matching ("slow coarsening"), giving the parallel partitioner
// extra levels and sometimes *better* final cuts — an effect the
// experiments reproduce.
package pcoarsen

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/check"
	"repro/internal/coarsen"
	"repro/internal/pgraph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Options mirrors the serial coarsening options.
type Options struct {
	BalancedEdge    bool
	MaxVertexWeight int64
	// Rounds is the number of proposal rounds per matching (default 4).
	Rounds int
	// Stop, when non-nil, is polled by BuildHierarchy at every level
	// boundary; once it returns true the hierarchy is abandoned and
	// BuildHierarchy returns nil on every rank. The callback MUST be
	// collective and return the same value on all ranks (wire it to
	// mpi.Comm.AgreeAbort): a rank-divergent answer would desynchronize
	// the ranks' collective schedules and poison the barrier.
	Stop func() bool
	// Trace, when non-nil, records one "coarsen.level" span per
	// contraction on this rank's track, ended with the level's MatchStats.
	// Purely local (no collectives), so tracing some or all ranks never
	// perturbs the collective schedule or the simulated clock. nil disables
	// all recording.
	Trace *trace.Rank
}

// MatchStats counts one rank's remote match requests over the rounds of a
// matching. The counts are rank-local: nothing is exchanged or charged to
// the simulated clock to keep them.
type MatchStats struct {
	// Proposals is the number of requests this rank sent for a vertex it
	// owns to a neighbor another rank owns.
	Proposals int
	// Rejected is the number of those requests answered without a grant.
	Rejected int
}

// Level is one rung of the distributed multilevel hierarchy.
type Level struct {
	DG *pgraph.DGraph
	// CMap maps each owned vertex of the *finer* graph to its coarse
	// global id; nil for the finest level.
	CMap []int32
}

// matchState tracks one matching computation. taken and the rule's vertex
// weights span the local index space of the adjacency: the owned vertices,
// then the ghosts.
type matchState struct {
	dg      *pgraph.DGraph
	match   []int32 // owned: -1 unmatched, else mate's global id (own id = solo)
	pending []int32 // owned: global id of outbound proposal target, -1 if none
	// taken[u] >= 0 makes u ineligible as a mate: an owned vertex that is
	// matched or proposed this round, or a ghost matched as of the last
	// refresh.
	taken []int32
	rule  coarsen.MateRule
	stats MatchStats
}

// proposal records are packed as 3 int32s: target gid, proposer gid, edge
// weight. Responses as 2 int32s: proposer gid, granted target gid (or -1).
const (
	propRecord = 3
	respRecord = 2
)

// Match computes a distributed heavy-edge matching. The returned slice
// maps each owned vertex to its mate's global id (own id when unmatched);
// the MatchStats count this rank's remote requests.
func Match(dg *pgraph.DGraph, rand *rng.RNG, opt Options) ([]int32, MatchStats) {
	if opt.Rounds <= 0 {
		opt.Rounds = 4
	}
	nlocal, nall, m := dg.NLocal(), dg.NLocal()+dg.NGhost(), dg.Ncon
	vwgt := make([]int32, nall*m)
	copy(vwgt, dg.Vwgt)
	dg.ExchangeGhostsVecI32(dg.Vwgt, m, vwgt[nlocal*m:])
	st := &matchState{
		dg:      dg,
		match:   make([]int32, nlocal),
		pending: make([]int32, nlocal),
		taken:   make([]int32, nall),
		rule: coarsen.MateRule{Xadj: dg.Xadj, Adjncy: dg.Adjncy, Adjwgt: dg.Adjwgt, Vwgt: vwgt, Ncon: m,
			MaxVertexWeight: opt.MaxVertexWeight, Balanced: opt.BalancedEdge},
	}
	for i := range st.match {
		st.match[i] = -1
		st.pending[i] = -1
	}
	for i := range st.taken {
		st.taken[i] = -1
	}

	order := make([]int32, nlocal)
	for round := 0; round < opt.Rounds; round++ {
		rand.Perm(order)
		st.arbitrate(st.proposeRound(order))
		// Arbitration answers every proposal, so the owned vertices taken
		// into the next round are the matched ones; the ghosts' entries
		// come from their owners.
		copy(st.taken[:nlocal], st.match)
		dg.ExchangeGhostsI32(st.taken[:nlocal], st.taken[nlocal:])
	}
	first := dg.First()
	for v := 0; v < nlocal; v++ {
		if st.match[v] < 0 {
			st.match[v] = first + int32(v)
		}
	}
	return st.match, st.stats
}

// proposeRound takes the mate rule's choice for each vertex not yet taken,
// in visit order: a local mate pairs at once, a ghost becomes a proposal
// grouped by its owner. A proposer is taken for the rest of the round but
// its ghost target is not: other proposers may still bid for the target,
// and its owner arbitrates.
func (st *matchState) proposeRound(order []int32) [][]int32 {
	dg := st.dg
	first, nlocal := dg.First(), int32(dg.NLocal())
	props := make([][]int32, dg.Comm.Size())
	work := 0

	for _, v := range order {
		if st.taken[v] >= 0 {
			continue
		}
		work += dg.Degree(int(v))
		best, w := st.rule.Best(st.taken, v)
		switch {
		case best == v:
			// No eligible neighbor.
		case best < nlocal:
			// Local pair: the owner (this rank) commits immediately.
			st.match[v], st.match[best] = first+best, first+v
			st.taken[v], st.taken[best] = st.match[v], st.match[best]
		default:
			gid := dg.GhostGlobal[best-nlocal]
			st.pending[v], st.taken[v] = gid, gid
			r := dg.Owner(gid)
			props[r] = append(props[r], gid, first+v, w)
			st.stats.Proposals++
		}
	}
	dg.Comm.Work(work)
	return props
}

// arbitrate runs the owner decision and the response leg. Every received
// proposal draws exactly one response, the winning bid's grant or a
// rejection, so no owned vertex is pending afterwards (checked under
// mcdebug).
func (st *matchState) arbitrate(props [][]int32) {
	dg := st.dg
	p := dg.Comm.Size()
	first := dg.First()
	in := dg.Comm.AlltoallvI32(props)

	// Best proposal per local target: heaviest edge, then lowest proposer.
	type bid struct {
		proposer int32
		weight   int32
	}
	bids := make(map[int32]bid)
	var rejected [][2]int32 // (proposer, target) pairs that lost arbitration
	for _, buf := range in {
		for i := 0; i+propRecord <= len(buf); i += propRecord {
			t, q, w := buf[i]-first, buf[i+1], buf[i+2]
			cur, ok := bids[t]
			if !ok || w > cur.weight || (w == cur.weight && q < cur.proposer) {
				if ok {
					rejected = append(rejected, [2]int32{cur.proposer, t + first})
				}
				bids[t] = bid{proposer: q, weight: w}
			} else {
				rejected = append(rejected, [2]int32{q, t + first})
			}
		}
	}

	resp := make([][]int32, p)
	push := func(proposer, grantedTarget int32) {
		r := dg.Owner(proposer)
		resp[r] = append(resp[r], proposer, grantedTarget)
	}
	// Deterministic iteration order over targets.
	targets := make([]int32, 0, len(bids))
	for t := range bids {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, t := range targets {
		b := bids[t]
		tgid := t + first
		grant := false
		switch {
		case st.match[t] >= 0:
			// Already matched (e.g. local pair this round): reject.
		case st.pending[t] < 0:
			grant = true
		case st.pending[t] == b.proposer && tgid > b.proposer:
			// Mutual proposal: the higher-gid side yields and accepts.
			grant = true
		}
		if grant {
			st.match[t] = b.proposer
			st.pending[t] = -1
			push(b.proposer, tgid)
		} else {
			push(b.proposer, -1)
		}
	}
	for _, rj := range rejected {
		push(rj[0], -1)
	}

	back := dg.Comm.AlltoallvI32(resp)
	for _, buf := range back {
		for i := 0; i+respRecord <= len(buf); i += respRecord {
			q, t := buf[i]-first, buf[i+1]
			if t >= 0 {
				st.match[q] = t
			} else {
				st.stats.Rejected++
			}
			st.pending[q] = -1
		}
	}
	if check.Enabled {
		for v, t := range st.pending {
			if t >= 0 {
				panic(fmt.Sprintf("mcdebug: pcoarsen: vertex %d is still pending on %d after arbitration", first+int32(v), t))
			}
		}
	}
	dg.Comm.Work(len(targets) + len(rejected))
}

// coarseIDs numbers the coarse vertices of a matching (steps 1-3 of
// Contract). It returns the coarse vertex distribution, the owned fine
// vertices' coarse global ids, and the same ids for the ghosts.
// Collective.
func coarseIDs(dg *pgraph.DGraph, match []int32) (cvtxdist, cmap, ghostCmap []int32) {
	c := dg.Comm
	p := c.Size()
	first := dg.First()
	nlocal := dg.NLocal()

	// 1. Representatives (lower gid of each pair, or solo) get coarse ids.
	isRep := make([]bool, nlocal)
	nrep := int64(0)
	for v := 0; v < nlocal; v++ {
		gid := first + int32(v)
		if match[v] >= gid {
			isRep[v] = true
			nrep++
		}
	}
	counts := c.AllgatherI64(nrep)
	cvtxdist = make([]int32, p+1)
	for r := 0; r < p; r++ {
		cvtxdist[r+1] = cvtxdist[r] + int32(counts[r])
	}
	cfirst := cvtxdist[c.Rank()]

	cmap = make([]int32, nlocal)
	for i := range cmap {
		cmap[i] = -1
	}
	next := cfirst
	for v := 0; v < nlocal; v++ {
		if isRep[v] {
			cmap[v] = next
			next++
		}
	}
	// 2. Resolve non-representatives: mate local → direct; mate remote →
	// via ghost cmap (a mate is always a neighbor, hence a ghost).
	ghostCmap = make([]int32, dg.NGhost())
	dg.ExchangeGhostsI32(cmap, ghostCmap)
	for v := 0; v < nlocal; v++ {
		if isRep[v] {
			continue
		}
		mate := match[v]
		if mate >= first && mate < first+int32(nlocal) {
			cmap[v] = cmap[mate-first]
		} else {
			slot := dg.GhostSlot(mate)
			if slot < 0 {
				panic("pcoarsen: matched mate is not a neighbor")
			}
			cmap[v] = ghostCmap[slot]
		}
	}
	// 3. Second exchange so every ghost's cmap is valid for edge mapping.
	dg.ExchangeGhostsI32(cmap, ghostCmap)
	return cvtxdist, cmap, ghostCmap
}

// Contract builds the distributed coarse graph from a matching. It returns
// the coarse graph and the owned-fine-vertex → coarse-global-id map.
func Contract(dg *pgraph.DGraph, match []int32) (*pgraph.DGraph, []int32) {
	c := dg.Comm
	p := c.Size()
	nlocal := dg.NLocal()
	m := dg.Ncon
	cvtxdist, cmap, ghostCmap := coarseIDs(dg, match)
	cfirst := cvtxdist[c.Rank()]

	// 4. Route vertex-weight and edge records to coarse owners.
	//    Weight records: m+1 int32s (coarse gid, weights...).
	//    Edge records: 3 int32s (coarse src gid, coarse dst gid, weight).
	//    A counting pass sizes each buffer: v sends one weight record and
	//    at most one edge record per adjacency entry.
	wlen := make([]int, p)
	elen := make([]int, p)
	for v := 0; v < nlocal; v++ {
		r := pgraph.OwnerIn(cvtxdist, cmap[v])
		wlen[r] += m + 1
		elen[r] += 3 * dg.Degree(v)
	}
	wbuf := make([][]int32, p)
	ebuf := make([][]int32, p)
	for r := 0; r < p; r++ {
		wbuf[r] = make([]int32, 0, wlen[r])
		ebuf[r] = make([]int32, 0, elen[r])
	}
	work := 0
	for v := 0; v < nlocal; v++ {
		cv := cmap[v]
		r := pgraph.OwnerIn(cvtxdist, cv)
		wbuf[r] = append(wbuf[r], cv)
		wbuf[r] = append(wbuf[r], dg.Vwgt[v*m:(v+1)*m]...)
		start, end := dg.Xadj[v], dg.Xadj[v+1]
		work += int(end-start) + m
		for e := start; e < end; e++ {
			u := dg.Adjncy[e]
			var cu int32
			if int(u) < nlocal {
				cu = cmap[u]
			} else {
				cu = ghostCmap[int(u)-nlocal]
			}
			if cu == cv {
				continue
			}
			ebuf[r] = append(ebuf[r], cv, cu, dg.Adjwgt[e])
		}
	}
	c.Work(work)
	win := c.AlltoallvI32(wbuf)
	ein := c.AlltoallvI32(ebuf)

	// 5. Assemble the owned share of the coarse graph.
	cn := int(cvtxdist[c.Rank()+1] - cfirst)
	cvwgt := make([]int32, cn*m)
	for _, buf := range win {
		for i := 0; i+m+1 <= len(buf); i += m + 1 {
			lv := int(buf[i] - cfirst)
			for j := 0; j < m; j++ {
				cvwgt[lv*m+j] += buf[i+1+j]
			}
		}
	}
	cxadj, cadjg, cadjw, nrec := mergeEdges(ein, cfirst, cn)
	c.Work(nrec)

	coarse := pgraph.NewFromGlobalCSR(c, m, cvtxdist, cxadj, cadjg, cadjw, cvwgt)
	return coarse, cmap
}

// mergeEdges assembles the owned coarse CSR from the received edge
// records (coarse src gid, coarse dst gid, weight): each source's
// adjacency in ascending destination order, with the records of one
// (src, dst) pair merged into one edge carrying their summed weight. It
// also returns the number of records. A counting sort buckets the records
// by local source; each bucket is then sorted on its own. A record is
// packed as dst<<32 | uint32(weight), so the bucket sort runs on plain
// uint64 keys: destinations are non-negative, and the weight order among
// equal destinations does not matter because they are summed.
func mergeEdges(ein [][]int32, cfirst int32, cn int) (cxadj, cadjg, cadjw []int32, nrec int) {
	cxadj = make([]int32, cn+1)
	for _, buf := range ein {
		for i := 0; i+3 <= len(buf); i += 3 {
			cxadj[buf[i]-cfirst+1]++
		}
		nrec += len(buf) / 3
	}
	for s := 0; s < cn; s++ {
		cxadj[s+1] += cxadj[s]
	}
	recs := make([]uint64, nrec)
	fill := append([]int32(nil), cxadj[:cn]...)
	for _, buf := range ein {
		for i := 0; i+3 <= len(buf); i += 3 {
			s := buf[i] - cfirst
			recs[fill[s]] = uint64(uint32(buf[i+1]))<<32 | uint64(uint32(buf[i+2]))
			fill[s]++
		}
	}
	// Sort and merge each bucket, compacting the merged edges toward the
	// front of recs (the write index never passes the read index).
	out := int32(0)
	for s := 0; s < cn; s++ {
		bucket := recs[cxadj[s]:cxadj[s+1]]
		slices.Sort(bucket)
		cxadj[s] = out
		for i, x := range bucket {
			if i > 0 && recs[out-1]>>32 == x>>32 {
				w := int32(recs[out-1]) + int32(x)
				recs[out-1] = recs[out-1]>>32<<32 | uint64(uint32(w))
				continue
			}
			recs[out] = x
			out++
		}
	}
	cxadj[cn] = out
	cadjg = make([]int32, out)
	cadjw = make([]int32, out)
	for i, x := range recs[:out] {
		cadjg[i] = int32(x >> 32)
		cadjw[i] = int32(x)
	}
	return cxadj, cadjg, cadjw, nrec
}

// BuildHierarchy coarsens the distributed graph until its global size is
// at most coarsenTo or coarsening stalls. The returned levels start at the
// input graph. If opt.Stop (a collective vote) fires at a level boundary,
// every rank abandons the partial hierarchy and returns nil.
func BuildHierarchy(dg *pgraph.DGraph, coarsenTo int, rand *rng.RNG, opt Options) []Level {
	levels := []Level{{DG: dg}}
	cur := dg
	curN := int64(cur.GlobalN())
	for curN > int64(coarsenTo) {
		if opt.Stop != nil && opt.Stop() {
			return nil
		}
		o := opt
		if o.MaxVertexWeight == 0 {
			o.MaxVertexWeight = coarsen.MatchingCap(cur.TotalVertexWeight(), coarsenTo)
		}
		if opt.Trace != nil {
			opt.Trace.Begin("coarsen.level",
				trace.I64("level", int64(len(levels))),
				trace.I64("global_n", curN),
				trace.I64("local_n", int64(cur.NLocal())))
		}
		match, ms := Match(cur, rand, o)
		coarse, cmap := Contract(cur, match)
		coarseN := int64(coarse.GlobalN())
		if opt.Trace != nil {
			opt.Trace.End(
				trace.I64("coarse_global_n", coarseN),
				trace.I64("coarse_local_n", int64(coarse.NLocal())),
				trace.I64("proposals", int64(ms.Proposals)),
				trace.I64("rejected", int64(ms.Rejected)))
		}
		if coarseN > curN*19/20 {
			break
		}
		// A level's CMap maps the next-finer graph's owned vertices onto
		// this level's coarse global ids.
		levels = append(levels, Level{DG: coarse, CMap: cmap})
		cur = coarse
		curN = coarseN
	}
	return levels
}
