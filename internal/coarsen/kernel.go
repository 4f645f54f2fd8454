// The coarsening kernels: heavy-edge matching and contraction, one code
// path each at every worker count. A level runs on one worker (the calling
// goroutine) when the hierarchy has one or the level is below
// minParallelN, and on the pool's workers otherwise; the output is
// bit-identical either way — the argument is spelled out in DESIGN.md,
// "Parallel coarsening contract" — so Options.Workers changes wall clock
// only, never the hierarchy, the partition, or a service cache key.
package coarsen

import (
	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/par"
	"repro/internal/rng"
)

const (
	// minParallelN is the level size below which a level runs on one worker
	// even when the pool has more: the chunk barriers cost more than the
	// scan. Safe at any value — every worker count emits identical bytes —
	// so this is purely a latency knob.
	minParallelN = 2048
	// chunksPerWorker fixes the matching chunk count at workers *
	// chunksPerWorker. More chunks mean fresher snapshots (fewer commit
	// rescans) but more barriers; 4 keeps rescans under ~1% of vertices on
	// the bench meshes.
	chunksPerWorker = 4
)

// scratch holds the work buffers and the worker pool of one hierarchy.
// The buffers grow at the finest level and every coarser level reuses
// them, so a level allocates only the retained outputs the plan carves.
// Per-worker state is indexed by worker id; the merged-edge stage is
// shared, each worker owning a disjoint segment of it.
type scratch struct {
	pool    *par.Pool
	workers int // workers the current level runs on: 1 or the pool's size

	match []int32 // mate per vertex
	order []int32 // random visit order, then the member list of the clusters
	prop  []int32 // proposed mate per visit-order position
	head  []int32 // member offsets per coarse vertex

	reps, mems, offs   []int32 // per-worker prefix sums: coarse ids, members, stage segments
	stageAdj, stageWgt []int32 // merged coarse edges, the fine level's nnz in total

	markers []arena.Marker // per-worker parallel-edge dedup, by coarse vertex
	slots   [][]int32      // per-worker stage index of a marked coarse neighbor

	lo, hi int // current propose chunk, read by the hoisted closure
}

func newScratch(workers int) *scratch {
	pool := par.NewPool(workers)
	w := pool.Workers()
	return &scratch{
		pool:    pool,
		workers: w,
		reps:    make([]int32, w+1),
		mems:    make([]int32, w+1),
		offs:    make([]int32, w+1),
		markers: make([]arena.Marker, w),
		slots:   make([][]int32, w),
	}
}

func (s *scratch) close() { s.pool.Close() }

// run calls f once per worker of the current level: on the pool, or on the
// calling goroutine when the level runs on one worker.
func (s *scratch) run(f func(w int)) {
	if s.workers == 1 {
		f(0)
		return
	}
	s.pool.Run(f)
}

// grow returns (*buf)[:n], reallocating when the capacity is short. The
// contents are not cleared.
func grow(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// prefixSum turns the per-worker counts in a[1:] into offsets.
func prefixSum(a []int32) {
	a[0] = 0
	for i := 1; i < len(a); i++ {
		a[i] += a[i-1]
	}
}

// matchInto computes the heavy-edge matching of g into s.match: vertices
// are visited in a random order and each unmatched one pairs with its
// bestMate. On one worker each visit commits in turn. On more, the visit
// order is cut into chunks; the workers propose a mate for each vertex of
// a chunk from a snapshot of the match array, and an in-order commit
// applies the proposals. A proposal is still the rule's choice at commit
// time exactly when its mate is still unmatched, because the rule is an
// argmax over the candidates and commits only remove candidates; an
// invalidated proposal is re-derived from the current state by the same
// rule. The returned rescans counts those re-derivations.
func matchInto(g *graph.Graph, rand *rng.RNG, opt Options, s *scratch) (match []int32, chunks, rescans int) {
	n := g.NumVertices()
	match = grow(&s.match, n)
	for i := range match {
		match[i] = -1
	}
	order := grow(&s.order, n)
	rand.Perm(order)
	workers := s.workers
	if workers == 1 {
		for _, v := range order {
			if match[v] < 0 {
				pair(match, v, bestMate(g, opt, match, v))
			}
		}
		return match, 0, 0
	}

	prop := grow(&s.prop, n)
	chunk := max((n+workers*chunksPerWorker-1)/(workers*chunksPerWorker), minParallelN/chunksPerWorker)
	// One closure for every chunk (the bounds travel through s.lo/s.hi,
	// mutated only between Run calls), so a pass allocates nothing. A
	// vertex matched in the snapshot stays matched, so its prop entry is
	// never read.
	propose := func(w int) {
		plo, phi := par.Span(s.hi-s.lo, workers, w)
		for idx := s.lo + plo; idx < s.lo+phi; idx++ {
			if v := order[idx]; match[v] < 0 {
				prop[idx] = bestMate(g, opt, match, v)
			}
		}
	}
	for s.lo = 0; s.lo < n; s.lo += chunk {
		s.hi = min(s.lo+chunk, n)
		chunks++
		s.pool.Run(propose)
		for idx := s.lo; idx < s.hi; idx++ {
			v := order[idx]
			if match[v] >= 0 {
				continue
			}
			best := prop[idx]
			if best != v && match[best] >= 0 {
				best = bestMate(g, opt, match, v)
				rescans++
			}
			pair(match, v, best)
		}
	}
	return match, chunks, rescans
}

// pair records v and u as mates; u == v leaves v unmatched.
func pair(match []int32, v, u int32) {
	match[v] = u
	match[u] = v
}

// bestMate is the mate-selection rule: among v's unmatched neighbors whose
// combined weight with v fits MaxVertexWeight in every constraint, the one
// joined by the heaviest edge; ties go to the flattest combined weight
// vector (minimum jaggedness) under BalancedEdge, and then to adjacency
// order. It returns v itself when no neighbor qualifies. A one-component
// vector always has jaggedness 1, so at m=1 the tie-break cannot change
// the choice, and an edge no heavier than the best so far is skipped
// unread.
func bestMate(g *graph.Graph, opt Options, match []int32, v int32) int32 {
	m, vwgt, maxW := g.Ncon, g.Vwgt, opt.MaxVertexWeight
	balanced := opt.BalancedEdge && m > 1
	vw := vwgt[int(v)*m : int(v+1)*m]
	wgt := g.Adjwgt[g.Xadj[v]:g.Xadj[v+1]]
	best, bestW, bestJag := v, int32(-1), 0.0
	for i, u := range g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] {
		w := wgt[i]
		if w < bestW || (w == bestW && !balanced) || match[u] >= 0 || u == v {
			continue
		}
		uw := vwgt[int(u)*m : int(u+1)*m]
		if maxW > 0 && !fitsCap(vw, uw, maxW) {
			continue
		}
		if balanced {
			j := pairJaggedness(vw, uw)
			if w == bestW && j >= bestJag {
				continue
			}
			bestJag = j
		}
		best, bestW = u, w
	}
	return best
}

func fitsCap(a, b []int32, cap int64) bool {
	for i := range a {
		if int64(a[i])+int64(b[i]) > cap {
			return false
		}
	}
	return true
}

// pairJaggedness is vecw.Jaggedness of the component-wise sum a+b, in one
// pass and without a buffer: the same integer max and sum, so the same
// float64.
func pairJaggedness(a, b []int32) float64 {
	var sum, mx int64
	for i := range a {
		x := int64(a[i]) + int64(b[i])
		sum += x
		mx = max(mx, x)
	}
	if sum == 0 {
		return 1
	}
	return float64(mx) * float64(len(a)) / float64(sum)
}

// pairClusters turns a matching into the contraction kernel's input. It
// numbers the pairs in ascending order of representative (the smaller
// endpoint) into cmap and lists each pair's members, representative first,
// in members[head[cv]:head[cv+1]]. A count pass and a numbering pass run
// over the workers' fine ranges; a mate's cmap entry is written by its
// representative's worker, which is the only writer of that entry.
func pairClusters(match, cmap []int32, s *scratch) (nc int, head, members []int32) {
	n := len(match)
	workers := s.workers
	reps, mems := s.reps[:workers+1], s.mems[:workers+1]
	s.run(func(w int) {
		lo, hi := par.Span(n, workers, w)
		r, p := int32(0), int32(0)
		for v := int32(lo); v < int32(hi); v++ {
			if u := match[v]; u >= v {
				r++
				if u != v {
					p++
				}
			}
		}
		reps[w+1], mems[w+1] = r, r+p
	})
	prefixSum(reps)
	prefixSum(mems)
	nc = int(reps[workers])
	head = grow(&s.head, nc+1)
	members = grow(&s.order, n) // the visit order is spent
	s.run(func(w int) {
		lo, hi := par.Span(n, workers, w)
		cv, i := reps[w], mems[w]
		for v := int32(lo); v < int32(hi); v++ {
			u := match[v]
			if u < v {
				continue
			}
			cmap[v], head[cv], members[i] = cv, i, v
			i++
			if u != v {
				cmap[u], members[i] = cv, u
				i++
			}
			cv++
		}
	})
	head[nc] = int32(n)
	return nc, head, members
}

// clusterMembers is pairClusters for a many-to-one cluster map: a counting
// sort lists each cluster's fine vertices in ascending order in
// members[head[cv]:head[cv+1]]. It counts into head[cv+2] and places
// through head[cv+1], which the placement advances from cluster cv's start
// to its end, the start of cv+1.
func clusterMembers(cmap []int32, nc int, s *scratch) (head, members []int32) {
	head = grow(&s.head, nc+2)
	clear(head)
	for _, cv := range cmap {
		head[cv+2]++
	}
	for i := 2; i < len(head); i++ {
		head[i] += head[i-1]
	}
	members = grow(&s.order, len(cmap))
	for v, cv := range cmap {
		members[head[cv+1]] = int32(v)
		head[cv+1]++
	}
	return head[:nc+1], members
}

// contract is the contraction kernel. Each of the nc clusters of cmap,
// with members members[head[cv]:head[cv+1]], becomes one coarse vertex
// whose weight vector is the component-wise sum of its members' and whose
// edges are the members' edges to other clusters, merged by coarse
// neighbor in order of first appearance. The retained arrays are carved
// from hlv. The workers own disjoint coarse-vertex ranges: a sizing pass
// gives each range a stage segment as long as its members' degree sum,
// the emission pass merges into the segment through the worker's epoch
// marker (one generation per coarse vertex, never cleared), and the CSR is
// one prefix sum over the per-vertex counts plus a copy of each segment.
func contract(g *graph.Graph, cmap []int32, nc int, head, members []int32, s *scratch, hlv *hier.Level) *graph.Graph {
	m, workers := g.Ncon, s.workers
	xadj, vwgt := g.Xadj, g.Vwgt
	// The segments tile the fine adjacency, so the last ends at its length
	// and only the others need their members' degrees summed.
	offs := s.offs[:workers+1]
	s.run(func(w int) {
		if w == workers-1 {
			return
		}
		clo, chi := par.Span(nc, workers, w)
		need := int32(0)
		for _, v := range members[head[clo]:head[chi]] {
			need += xadj[v+1] - xadj[v]
		}
		offs[w+1] = need
	})
	prefixSum(offs[:workers])
	offs[workers] = int32(len(g.Adjncy))
	stageAdj, stageWgt := grow(&s.stageAdj, int(offs[workers])), grow(&s.stageWgt, int(offs[workers]))
	cvwgt, cxadj := hlv.Coarse(nc)
	s.run(func(w int) {
		clo, chi := par.Span(nc, workers, w)
		// A local copy of the worker's marker: the markers share cache
		// lines, and every generation writes the epoch.
		mk := s.markers[w]
		mk.Grow(nc)
		slot := grow(&s.slots[w], nc)
		cur := offs[w]
		for cv := clo; cv < chi; cv++ {
			start := cur
			mk.Next()
			for _, v := range members[head[cv]:head[cv+1]] {
				for c := 0; c < m; c++ {
					cvwgt[cv*m+c] += vwgt[int(v)*m+c]
				}
				cur = merge(g, cmap, v, int32(cv), &mk, slot, stageAdj, stageWgt, cur)
			}
			cxadj[cv+1] = cur - start
		}
		s.markers[w] = mk
	})
	for cv := 0; cv < nc; cv++ {
		cxadj[cv+1] += cxadj[cv]
	}
	cadjncy, cadjwgt := hlv.Edges(int(cxadj[nc]))
	s.run(func(w int) {
		clo, chi := par.Span(nc, workers, w)
		lo, hi := cxadj[clo], cxadj[chi]
		copy(cadjncy[lo:hi], stageAdj[offs[w]:])
		copy(cadjwgt[lo:hi], stageWgt[offs[w]:])
	})
	return &graph.Graph{Ncon: m, Xadj: cxadj, Adjncy: cadjncy, Adjwgt: cadjwgt, Vwgt: cvwgt}
}

// merge adds fine vertex v's edges to coarse vertex cv's list, which
// grows at stage position cur: an edge to a coarse neighbor not yet marked
// in the current generation is appended, and its stage index noted in
// slot; an edge to a marked one adds its weight there. It returns the
// advanced cursor.
func merge(g *graph.Graph, cmap []int32, v, cv int32, mk *arena.Marker, slot, stageAdj, stageWgt []int32, cur int32) int32 {
	xadj, adjncy, adjwgt := g.Xadj, g.Adjncy, g.Adjwgt
	for i := xadj[v]; i < xadj[v+1]; i++ {
		cu := cmap[adjncy[i]]
		if cu == cv {
			continue
		}
		if mk.TryMark(cu) {
			slot[cu] = cur
			stageAdj[cur] = cu
			stageWgt[cur] = adjwgt[i]
			cur++
		} else {
			stageWgt[slot[cu]] += adjwgt[i]
		}
	}
	return cur
}
