// Package initpart computes the initial partitioning of the coarsest graph:
// multi-constraint recursive bisection, each bisection obtained by greedy
// region growing followed by the SC'98 multi-constraint
// Fiduccia-Mattheyses refinement with one priority queue per (side,
// dominant-constraint) pair.
//
// The paper (Section 4) stresses that the initial partitioning must be
// relatively balanced in every constraint — ">20% imbalanced ... is
// unlikely to be improved during multilevel refinement" — so bisections are
// retried from several random seeds and the balance-first FM policy drives
// every constraint under its limit before chasing edge-cut.
//
// This phase dominates serial wall time on the bench meshes, so the
// implementation is built around a per-call Bisector that owns every piece
// of scratch (see DESIGN.md, "Memory discipline & parallel trials"): trial
// state and queues are allocated once and reused across all recursion
// nodes, subgraphs are carved out of a stack-disciplined arena instead of
// going through graph.Builder's sort+validate path, and the independent
// bisection trials of one node can run on a bounded pool of goroutines
// (Options.TrialWorkers) with bit-identical output for every worker count.
package initpart

import (
	"runtime"
	"sync"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/pqueue"
	"repro/internal/rng"
	"repro/internal/vecw"
)

// Options configures initial partitioning.
type Options struct {
	// Tol is the per-bisection load-imbalance tolerance (e.g. 0.05 for the
	// paper's 5%). Each bisection level gets slightly more slack so that k
	// nested bisections can still compose into a balanced k-way result.
	Tol float64
	// Trials is the number of random-seed bisection attempts per split;
	// the best (balanced, then lowest-cut) attempt wins. METIS uses a
	// small constant; default 4.
	Trials int
	// TrialWorkers bounds how many goroutines run a node's independent
	// bisection trials concurrently. 0 means GOMAXPROCS; 1 runs trials
	// sequentially on the calling goroutine. Every trial draws from its own
	// RNG stream forked from the node's generator and the winner is the
	// lowest-indexed best-scoring trial, so the partition is bit-identical
	// for every value of TrialWorkers.
	TrialWorkers int
	// Stop, when non-nil, is polled before each bisection trial and each
	// FM pass, possibly from several trial goroutines at once. Once it
	// returns true, RecursiveBisect stops improving: the trials left are
	// skipped, and the vertices of every recursion node not yet split get
	// the node's first label. The partition returned then has every label
	// in [0,k) but is neither balanced nor refined; the caller abandons
	// it. A nil Stop leaves every result unchanged.
	Stop func() bool
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 0.05
	}
	if o.Trials <= 0 {
		o.Trials = 4
	}
	if o.TrialWorkers <= 0 {
		o.TrialWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

// RecursiveBisect computes a k-way partitioning of g by recursive
// multi-constraint bisection and returns the part label per vertex.
func RecursiveBisect(g *graph.Graph, k int, rand *rng.RNG, opt Options) []int32 {
	n := g.NumVertices()
	part := make([]int32, n)
	if k <= 1 || n == 0 {
		return part
	}
	b := NewBisector(g, opt)
	orig := make([]int32, n)
	for i := range orig {
		orig[i] = int32(i)
	}
	b.Recurse(g, orig, k, 0, part, rand)
	return part
}

// Bisect splits g into sides {0,1} with side 0 targeting fraction frac0 of
// every constraint's total weight, within tolerance tol. It runs `trials`
// seeded attempts (greedy growing + multi-constraint FM) and returns the
// best bisection found.
func Bisect(g *graph.Graph, rand *rng.RNG, frac0, tol float64, trials int) []int32 {
	b := NewBisector(g, Options{Tol: tol, Trials: trials, TrialWorkers: 1})
	win, _ := b.bisectNode(g, rand, frac0, tol)
	return append([]int32(nil), win...)
}

// Score orders candidate bisections: balanced beats unbalanced; within the
// same balance class, lower cut wins; among unbalanced, lower imbalance
// wins first.
type Score struct {
	Balanced bool
	Imb      float64 // the largest weight-to-target ratio over both sides and all constraints
	Cut      int64
}

// Better reports whether s ranks strictly ahead of o.
func (s Score) Better(o Score) bool {
	if s.Balanced != o.Balanced {
		return s.Balanced
	}
	if s.Balanced {
		return s.Cut < o.Cut
	}
	if s.Imb != o.Imb {
		return s.Imb < o.Imb
	}
	return s.Cut < o.Cut
}

// Bisector owns every buffer used by one recursive bisection, sized once
// at the root graph and reused across all recursion nodes and trials. The
// arena backs the per-node allocations whose lifetime nests with the
// recursion (subgraph CSR arrays, orig index lists); everything else is a
// flat buffer resliced per node. RecursiveBisect drives one through the
// whole tree; the parallel initial partitioning (internal/pinit) drives the
// upper nodes itself, one Node and one Side at a time, and hands each rank's
// last node to Recurse. A Bisector serves one goroutine.
type Bisector struct {
	opt     Options
	m       int
	a       *arena.Arena
	shared  bisectShared
	workers []*trialState // one private scratch set per trial goroutine
	results [][]int32     // per-trial candidate bisections, sized maxN
	scores  []Score       // per-trial outcome, indexed like results
	rngs    []rng.RNG     // per-trial streams, reseeded per node via ForkInto
	remap   []int32       // original vertex -> index within its side
	nodes   int           // bisection nodes run so far
	trials  int           // bisection trials run so far
}

// bisectShared is the per-node setup every trial reads but never writes:
// totals, per-side limits/targets, and the dominant constraint per vertex.
// It is (re)computed by setup before the trial goroutines start.
type bisectShared struct {
	m           int
	tol         float64
	frac        [2]float64
	total       []int64
	invTotal    []float64
	limit       [2][]int64 // per-side, per-constraint upper bounds
	target      [2][]float64
	invTarget   [2][]float64 // 1/target (0 for weightless constraints)
	dom         []int32      // dominant constraint per vertex
	vwgt        []int32      // the current node graph's flattened vertex weights
	activeCons  int
	targetScore float64
	stop        func() bool // Options.Stop
}

// stopped polls the stop hook, if there is one.
func (sh *bisectShared) stopped() bool { return sh.stop != nil && sh.stop() }

// trialState is the mutable scratch one trial needs; each worker goroutine
// owns exactly one, so trials never share mutable state.
type trialState struct {
	pwgts  []int64 // 2*m flattened side weights
	gain   []int64
	locked []bool
	inQ    []bool
	moves  []int32
	order  []int32
	queues [2][]*pqueue.Queue
}

// NewBisector sizes a Bisector for g and every subgraph carved from it.
func NewBisector(g *graph.Graph, opt Options) *Bisector {
	opt = opt.withDefaults()
	n := g.NumVertices()
	m := g.Ncon
	nw := min(opt.TrialWorkers, opt.Trials)
	if nw < 1 {
		nw = 1
	}
	b := &Bisector{opt: opt, m: m, a: arena.New()}
	b.remap = make([]int32, n)
	b.results = make([][]int32, opt.Trials)
	for t := range b.results {
		b.results[t] = make([]int32, n)
	}
	b.scores = make([]Score, opt.Trials)
	b.rngs = make([]rng.RNG, opt.Trials)
	sh := &b.shared
	sh.m = m
	sh.stop = opt.Stop
	sh.total = make([]int64, m)
	sh.invTotal = make([]float64, m)
	sh.dom = make([]int32, n)
	for side := 0; side < 2; side++ {
		sh.limit[side] = make([]int64, m)
		sh.target[side] = make([]float64, m)
		sh.invTarget[side] = make([]float64, m)
	}
	b.workers = make([]*trialState, nw)
	for w := range b.workers {
		st := &trialState{
			pwgts:  make([]int64, 2*m),
			gain:   make([]int64, n),
			locked: make([]bool, n),
			inQ:    make([]bool, n),
			moves:  make([]int32, 0, n),
			order:  make([]int32, n),
		}
		for side := 0; side < 2; side++ {
			st.queues[side] = make([]*pqueue.Queue, m)
			for c := 0; c < m; c++ {
				st.queues[side][c] = pqueue.New(n)
			}
		}
		b.workers[w] = st
	}
	return b
}

// Work returns the bisection nodes and trials this Bisector has run.
func (b *Bisector) Work() (nodes, trials int) { return b.nodes, b.trials }

// Recurse partitions node g into k parts labeled base..base+k-1 by
// recursive bisection, writing each vertex's label to out[orig[v]].
func (b *Bisector) Recurse(g *graph.Graph, orig []int32, k int, base int32, out []int32, rand *rng.RNG) {
	if k <= 1 || b.shared.stopped() {
		for _, ov := range orig {
			out[ov] = base
		}
		return
	}
	k0 := (k + 1) / 2
	k1 := k - k0
	bi, _ := b.Node(g, k, rand)
	// bi aliases a trial result buffer and remap is shared across the whole
	// recursion, so both must be fully consumed — subgraphs built, origs
	// scattered, leaf sides labeled — before recursing into either child.
	mark := b.a.Mark()
	g0, orig0 := b.Side(g, bi, orig, 0, k0, base, out)
	g1, orig1 := b.Side(g, bi, orig, 1, k1, base+int32(k0), out)
	if k0 > 1 {
		b.Recurse(g0, orig0, k0, base, out, rand)
	}
	if k1 > 1 {
		b.Recurse(g1, orig1, k1, base+int32(k0), out, rand)
	}
	b.a.Release(mark)
}

// Node bisects one recursion node of k parts: side 0 targets ceil(k/2)/k
// of every constraint's weight. It runs the Trials trials and returns the
// winning bisection (a view into the winner's result buffer, valid until
// the next Node call) and its score.
func (b *Bisector) Node(g *graph.Graph, k int, rand *rng.RNG) ([]int32, Score) {
	frac0 := float64((k+1)/2) / float64(k)
	// Give deeper levels a pro-rated slice of the tolerance so the product
	// of per-level imbalances stays near the target.
	tol := b.opt.Tol * 0.9
	if k > 2 {
		tol = b.opt.Tol * 0.5
	}
	return b.bisectNode(g, rand, frac0, tol)
}

// Side hands on one side of node g's bisection bi, which gets parts parts
// labeled from first. A side of one part is finished: each of its vertices
// v gets out[orig[v]] = first, and Side returns nil. A larger side is
// carved out of the arena as its induced subgraph and its vertices'
// original ids, valid until the Release of a Mark taken before the call.
func (b *Bisector) Side(g *graph.Graph, bi, orig []int32, side int32, parts int, first int32, out []int32) (*graph.Graph, []int32) {
	if parts <= 1 {
		for v, ov := range orig {
			if bi[v] == side {
				out[ov] = first
			}
		}
		return nil, nil
	}
	n := g.NumVertices()
	remap := b.remap[:n]
	ns := 0
	for v := 0; v < n; v++ {
		if bi[v] == side {
			remap[v] = int32(ns)
			ns++
		}
	}
	return b.splitSide(g, bi, remap, orig, side, ns)
}

// splitSide extracts the side-induced subgraph as arena-backed CSR in one
// O(n+e) pass, replacing the Builder path (which re-sorts and re-validates
// edges the parent graph already guarantees), along with the original ids
// of its vertices. remap must map each vertex of the side to its index
// within the side.
func (b *Bisector) splitSide(g *graph.Graph, bi, remap, orig []int32, side int32, ns int) (*graph.Graph, []int32) {
	m := b.m
	n := g.NumVertices()
	xadj := b.a.I32(ns + 1)
	vwgt := b.a.I32(ns * m)
	subOrig := b.a.I32(ns)
	// Upper bound: every parent edge could survive. The arena recycles the
	// slack, so exactness is not worth a second counting pass.
	bound := len(g.Adjncy)
	adjncy := b.a.I32(bound)
	adjwgt := b.a.I32(bound)
	xadj[0] = 0
	pos := int32(0)
	ni := 0
	for v := 0; v < n; v++ {
		if bi[v] != side {
			continue
		}
		subOrig[ni] = orig[v]
		copy(vwgt[ni*m:(ni+1)*m], g.Vwgt[v*m:(v+1)*m])
		adj, wgt := g.Neighbors(int32(v))
		for i, u := range adj {
			if bi[u] == side {
				adjncy[pos] = remap[u]
				adjwgt[pos] = wgt[i]
				pos++
			}
		}
		ni++
		xadj[ni] = pos
	}
	//mcvet:ignore arenapair — the subgraph and its ids live until the Release of the caller's Mark, which Recurse takes strictly after the child bisection consumed them
	return &graph.Graph{Ncon: m, Xadj: xadj, Adjncy: adjncy[:pos], Adjwgt: adjwgt[:pos], Vwgt: vwgt}, subOrig
}

// bisectNode runs the trials for one recursion node and returns the winning
// bisection (a view into the winner's result buffer, valid until the next
// bisectNode call) and its score. Each trial t draws only from b.rngs[t],
// forked here from the node's generator, and writes only its own
// results/scores slot, so the outcome is independent of how trials are
// scheduled across workers; the winner scan takes the lowest-indexed best
// score, matching what a sequential run of the same trials would keep.
func (b *Bisector) bisectNode(g *graph.Graph, rand *rng.RNG, frac0, tol float64) ([]int32, Score) {
	n := g.NumVertices()
	b.shared.setup(g, frac0, tol)
	trials := b.opt.Trials
	b.nodes++
	b.trials += trials
	for t := 0; t < trials; t++ {
		rand.ForkInto(&b.rngs[t], uint64(t))
	}
	if nw := len(b.workers); nw > 1 {
		var wg sync.WaitGroup
		for wi := 0; wi < nw; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				for t := wi; t < trials; t += nw {
					b.runTrial(g, t, wi)
				}
			}(wi)
		}
		wg.Wait()
	} else {
		for t := 0; t < trials; t++ {
			b.runTrial(g, t, 0)
		}
	}
	best := 0
	for t := 1; t < trials; t++ {
		if b.scores[t].Better(b.scores[best]) {
			best = t
		}
	}
	return b.results[best][:n], b.scores[best]
}

func (b *Bisector) runTrial(g *graph.Graph, t, wi int) {
	if b.shared.stopped() {
		// The trial's buffer keeps the 0/1 labels of an earlier trial,
		// which is a bisection of a kind; the run is abandoned anyway.
		b.scores[t] = Score{}
		return
	}
	st := b.workers[wi]
	cur := b.results[t][:g.NumVertices()]
	r := &b.rngs[t]
	growBisection(g, cur, r, &b.shared, st)
	b.scores[t] = fm2(g, cur, r, &b.shared, st)
}

func (sh *bisectShared) setup(g *graph.Graph, frac0, tol float64) {
	m := sh.m
	n := g.NumVertices()
	sh.vwgt = g.Vwgt
	sh.frac = [2]float64{frac0, 1 - frac0}
	sh.tol = tol
	clear(sh.total)
	for v := 0; v < n; v++ {
		for c := 0; c < m; c++ {
			sh.total[c] += int64(g.Vwgt[v*m+c])
		}
	}
	active := 0
	for c := 0; c < m; c++ {
		if sh.total[c] > 0 {
			sh.invTotal[c] = 1 / float64(sh.total[c])
			active++
		} else {
			sh.invTotal[c] = 0
		}
	}
	sh.activeCons = active
	sh.targetScore = frac0 * float64(active)
	for side := 0; side < 2; side++ {
		for c := 0; c < m; c++ {
			t := sh.frac[side] * float64(sh.total[c])
			sh.target[side][c] = t
			sh.limit[side][c] = int64(t*(1+tol)) + 1
			if t > 0 {
				sh.invTarget[side][c] = 1 / t
			} else {
				sh.invTarget[side][c] = 0
			}
		}
	}
	dom := sh.dom[:n]
	for v := 0; v < n; v++ {
		dom[v] = dominant(g.Vwgt[v*m:(v+1)*m], sh.total)
	}
}

// dominant returns the constraint a vertex is filed under in the SC'98 FM
// queues: the component with the largest weight *relative to that
// constraint's total*. Scaling by the totals matters for workloads like the
// paper's Type 2 problems, where raw weights are 0/1 and the scarce
// constraints (25%-active phases) are precisely the ones whose balance is
// hardest — their vertices must be reachable through their own queue.
func dominant(vw []int32, total []int64) int32 {
	best := int32(0)
	bestScore := -1.0
	for c := 0; c < len(vw); c++ {
		if total[c] <= 0 {
			continue
		}
		if s := float64(vw[c]) / float64(total[c]); s > bestScore {
			best, bestScore = int32(c), s
		}
	}
	return best
}

func computePwgts(g *graph.Graph, part []int32, m int, pwgts []int64) {
	clear(pwgts)
	for v := 0; v < g.NumVertices(); v++ {
		vecw.Add(pwgts[int(part[v])*m:(int(part[v])+1)*m], g.Vwgt[v*m:(v+1)*m])
	}
}

// growBisection seeds side 0 from a random vertex and grows it greedily
// (max-gain frontier first) until side 0 holds, on average over the
// constraints, fraction frac0 of the total weight. Everything else is side
// 1. Disconnected graphs restart the growth from fresh random seeds.
func growBisection(g *graph.Graph, part []int32, rand *rng.RNG, sh *bisectShared, st *trialState) {
	n := g.NumVertices()
	for v := range part {
		part[v] = 1
	}
	if n == 0 {
		return
	}
	m := sh.m
	if sh.activeCons == 0 {
		// Degenerate: no weight anywhere; split by vertex count.
		half := int(sh.frac[0] * float64(n))
		order := st.order[:n]
		rand.Perm(order)
		for i := 0; i < half; i++ {
			part[order[i]] = 0
		}
		return
	}
	// Grow until the sum over constraints of (side-0 weight_c / total_c)
	// reaches frac0 * (number of constraints with any weight).
	var curScore float64
	q := st.queues[0][0]
	q.Reset()
	inQ := st.inQ[:n] // also marks vertices already grabbed
	clear(inQ)
	for curScore < sh.targetScore {
		if q.Len() == 0 {
			// Fresh seed (first iteration or disconnected remainder).
			seed := int32(-1)
			for tries := 0; tries < 8; tries++ {
				cand := int32(rand.Intn(n))
				if !inQ[cand] && part[cand] == 1 {
					seed = cand
					break
				}
			}
			if seed < 0 {
				for v := int32(0); int(v) < n; v++ {
					if !inQ[v] && part[v] == 1 {
						seed = v
						break
					}
				}
			}
			if seed < 0 {
				break // everything grabbed
			}
			inQ[seed] = true
			q.Push(seed, 0)
		}
		v, _ := q.Pop()
		part[v] = 0
		vw := g.VertexWeight(v)
		for c := 0; c < m; c++ {
			curScore += float64(vw[c]) * sh.invTotal[c]
		}
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if part[u] == 0 {
				continue
			}
			if inQ[u] {
				if q.Contains(u) {
					q.Update(u, q.Gain(u)+int64(wgt[i]))
				}
			} else {
				inQ[u] = true
				q.Push(u, int64(wgt[i]))
			}
		}
	}
	q.Reset()
}

// maxNegMoves bounds the hill-climbing depth of one FM pass: after this
// many consecutive non-improving moves from a balanced state the pass gives
// up and rolls back. METIS's FM uses min(max(0.01*n, 15), 100); on the
// coarse graphs this phase sees, the n-proportional clamp keeps the
// rolled-back exploratory tail (which previously dominated pass cost) in
// line with the graph size.
func maxNegMoves(n int) int {
	return min(max(n/100, 15), 100)
}

// maxUnbalancedMoves is the non-improving-move allowance while some
// constraint is still over its limit. Balance-restoring walks plateau for
// long stretches under the max-imbalance score (Type 2 problems move many
// 0-weight-in-the-overloaded-constraint vertices that cannot change it), so
// cutting them off at the balanced-tail clamp leaves bisections badly
// imbalanced; this keeps the pre-clamp allowance for exactly that case.
const maxUnbalancedMoves = 100

// fm2 runs multi-constraint FM passes over the bisection until a pass
// yields no improvement, and returns the score of the final state. Policy
// per move, following SC'98:
//
//  1. If some (side, constraint) is over its limit, moves are forced out of
//     the most-overloaded side, drawn from that side's queue for the
//     overloaded constraint (falling back to its other queues), regardless
//     of gain — balance first.
//  2. Otherwise the best-gain move that keeps both sides within limits is
//     taken; a bounded number of negative-gain moves allows escaping local
//     minima, with rollback to the best state seen.
//
// cut, pwgts, and gains are maintained incrementally across the whole
// trial: each move negates the mover's own gain (a side flip reverses the
// sign of every incident term) and the rollback undoes the part flips,
// weight transfers, and gain deltas move-by-move. All of it is integer
// arithmetic, so the restored state is exact and the per-pass cut,
// computePwgts, and computeGains recomputations are gone — one
// computePwgts and one computeGains per trial, at the start, the gain pass
// also yielding the cut.
func fm2(g *graph.Graph, part []int32, rand *rng.RNG, sh *bisectShared, st *trialState) Score {
	n := g.NumVertices()
	m := sh.m
	computePwgts(g, part, m, st.pwgts)
	cut := computeGains(g, part, st.gain)
	gain := st.gain
	locked := st.locked
	final := stateScore(sh, st.pwgts, cut)
	negLimit := maxNegMoves(n)
	for pass := 0; pass < 8 && !sh.stopped(); pass++ {
		for side := 0; side < 2; side++ {
			for c := 0; c < m; c++ {
				st.queues[side][c].Reset()
			}
		}
		order := st.order[:n]
		rand.Perm(order)
		for _, v := range order {
			locked[v] = false
			st.queues[part[v]][sh.dom[v]].Push(v, gain[v])
		}

		bestState := stateScore(sh, st.pwgts, cut)
		st.moves = st.moves[:0]
		bestLen := 0
		sinceBest := 0

		for {
			v := selectMove(sh, st)
			if v < 0 {
				break
			}
			from := part[v]
			to := 1 - from
			st.queues[from][sh.dom[v]].Delete(v)
			locked[v] = true
			part[v] = to
			cut -= gain[v]
			gain[v] = -gain[v] // every incident term changed sides
			vecw.Move(st.pwgts[int(from)*m:(int(from)+1)*m], st.pwgts[int(to)*m:(int(to)+1)*m], g.VertexWeight(v))
			st.moves = append(st.moves, v)

			adj, wgt := g.Neighbors(v)
			for i, u := range adj {
				delta := 2 * int64(wgt[i])
				if part[u] == to {
					gain[u] -= delta
				} else {
					gain[u] += delta
				}
				if !locked[u] {
					st.queues[part[u]][sh.dom[u]].Update(u, gain[u])
				}
			}

			s := stateScore(sh, st.pwgts, cut)
			if s.Better(bestState) {
				bestState = s
				bestLen = len(st.moves)
				sinceBest = 0
			} else {
				sinceBest++
				lim := negLimit
				if !s.Balanced {
					lim = maxUnbalancedMoves
				}
				if sinceBest > lim {
					break
				}
			}
		}

		// Roll back the tail of moves past the best state. Undoing a move is
		// itself a side flip, so replaying the tail in reverse with the same
		// gain/weight updates restores part, pwgts, AND the gain array to
		// bestState exactly — which is what lets the next pass skip
		// computeGains.
		for i := len(st.moves) - 1; i >= bestLen; i-- {
			v := st.moves[i]
			from := part[v]
			to := 1 - from
			part[v] = to
			gain[v] = -gain[v]
			vecw.Move(st.pwgts[int(from)*m:(int(from)+1)*m], st.pwgts[int(to)*m:(int(to)+1)*m], g.VertexWeight(v))
			adj, wgt := g.Neighbors(v)
			for j, u := range adj {
				delta := 2 * int64(wgt[j])
				if part[u] == to {
					gain[u] -= delta
				} else {
					gain[u] += delta
				}
			}
		}
		cut = bestState.Cut
		final = bestState
		if bestLen == 0 {
			// No move improved on the pass's starting state: converged.
			break
		}
	}
	return final
}

// stateScore scores the current in-flight FM state from pwgts and cut. It
// runs once per FM move, so the per-constraint division is hoisted into the
// precomputed invTarget reciprocals (weightless constraints have
// invTarget 0 and thus never dominate the max).
func stateScore(sh *bisectShared, pwgts []int64, cut int64) Score {
	imb := 0.0
	for side := 0; side < 2; side++ {
		inv := sh.invTarget[side]
		row := pwgts[side*sh.m : (side+1)*sh.m]
		for c, w := range row {
			if r := float64(w) * inv[c]; r > imb {
				imb = r
			}
		}
	}
	return Score{Balanced: imb <= 1+sh.tol+1e-9, Imb: imb, Cut: cut}
}

// selectMove picks the next vertex to move under the balance-first policy,
// returning -1 when no acceptable move exists.
func selectMove(sh *bisectShared, st *trialState) int32 {
	m := sh.m
	// Forced mode: some side over limit in some constraint.
	overSide, overCon := -1, -1
	var overAmt int64
	for side := 0; side < 2; side++ {
		for c := 0; c < m; c++ {
			if ex := st.pwgts[side*m+c] - sh.limit[side][c]; ex > overAmt {
				overAmt, overSide, overCon = ex, side, c
			}
		}
	}
	if overSide >= 0 {
		// Prefer the queue of the overloaded constraint; fall back to any
		// non-empty queue on the overloaded side.
		if q := st.queues[overSide][overCon]; q.Len() > 0 {
			v, _ := q.Peek()
			return v
		}
		for c := 0; c < m; c++ {
			if q := st.queues[overSide][c]; q.Len() > 0 {
				v, _ := q.Peek()
				return v
			}
		}
		return -1
	}

	// Normal mode: best-gain move that keeps the destination side legal.
	bestV := int32(-1)
	var bestGain int64
	for side := 0; side < 2; side++ {
		to := 1 - side
		for c := 0; c < m; c++ {
			q := st.queues[side][c]
			if q.Len() == 0 {
				continue
			}
			v, gain := q.Peek()
			if bestV >= 0 && gain <= bestGain {
				continue
			}
			if vecw.FitsUnder(st.pwgts[to*m:(to+1)*m], sh.vwOf(v), sh.limit[to]) {
				bestV, bestGain = v, gain
			}
		}
	}
	return bestV
}

// vwOf returns vertex v's weight vector in the current node's graph.
func (sh *bisectShared) vwOf(v int32) []int32 {
	return sh.vwgt[int(v)*sh.m : (int(v)+1)*sh.m]
}

// computeGains sets each vertex's FM gain (external minus internal edge
// weight) and returns the cut: every cut edge adds its weight to both
// endpoints' external sums, so the cut is half their total.
func computeGains(g *graph.Graph, part []int32, gain []int64) (cut int64) {
	n := g.NumVertices()
	var extern int64
	for v := int32(0); int(v) < n; v++ {
		adj, wgt := g.Neighbors(v)
		var gsum int64
		for i, u := range adj {
			if part[u] == part[v] {
				gsum -= int64(wgt[i])
			} else {
				gsum += int64(wgt[i])
				extern += int64(wgt[i])
			}
		}
		gain[v] = gsum
	}
	return extern / 2
}
