// Package lp implements size-constrained label propagation clustering —
// the cluster-coarsening primitive for power-law graphs (KaHIP lineage:
// "Engineering Multilevel Graph Partitioning Algorithms", Meyerhenke,
// Sanders & Schulz).
//
// Heavy-edge matching shrinks a graph by at most 2x per level and, on
// skewed degree distributions, by far less: a hub vertex can match only
// one of its thousands of neighbors, so the rest survive to the next level
// untouched and coarsening stalls. Label propagation instead computes
// *clusters* of unbounded size below an explicit per-constraint weight
// cap: every vertex starts as its own cluster, and for a fixed number of
// rounds each vertex (visited in a seeded random order) moves to the
// neighboring cluster with the largest connecting edge weight among those
// with room. Contracting the clusters (coarsen.ContractMap) then shrinks
// hub neighborhoods by orders of magnitude in a single level.
//
// Determinism contract (see DESIGN.md, "Coarsening schemes"): the visit
// order comes from one rng.Perm per round off the caller's stream, the
// candidate scan is in adjacency order, and ties in connecting weight
// break toward the lowest cluster label, so a fixed (graph, seed, options)
// reproduces the clustering exactly. The multi-constraint twist over the
// single-constraint KaHIP formulation: a move must fit the cap in *every*
// weight component, mirroring how the SC'98 matching cap keeps the coarsest
// graph balanceable per constraint.
//
// The rounds evaluate a vertex only when its decision may have changed
// since it last chose to stay: a neighbor moved, or a cluster that refused
// it for cap room lost a member. The rest are skipped, and the clustering
// is the same as with every vertex evaluated in every round (DESIGN.md,
// "Coarsening schemes"). The rounds run on the calling goroutine at every
// coarsening worker count: after the first round they evaluate a small
// share of the vertices, too little work to pay for splitting a round
// across workers (DESIGN.md, "Parallel coarsening contract").
package lp

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// DefaultRounds is the fixed number of propagation rounds when Options
// leaves it zero. Label propagation converges quickly — most consolidation
// happens in the first two rounds — and a small fixed count keeps the
// level cost linear and the determinism contract simple.
const DefaultRounds = 5

// Options controls one clustering pass.
type Options struct {
	// Rounds is the number of propagation rounds (0 = DefaultRounds). A
	// round that moves no vertex ends the pass early; the early exit is
	// deterministic because move counts are.
	Rounds int
	// MaxClusterWeight caps each constraint of a cluster's summed weight
	// vector (length = g.Ncon). A vertex only joins a cluster if the
	// result fits every component. nil disables the cap (unit tests only —
	// coarsening always derives caps from the balance tolerance). A vertex
	// heavier than the cap simply stays a singleton cluster; clusters with
	// two or more members never exceed the cap (the mcdebug invariant
	// check.ClusterCaps).
	MaxClusterWeight []int64
	// Stop, when non-nil, is polled once per round; once it returns true
	// Cluster abandons the pass and returns (nil, 0).
	Stop func() bool
	// Trace, when non-nil, records one "lp.round" span per executed round.
	Trace *trace.Rank
}

// decideProp returns the cluster v should join given the current label/cw
// state: the neighboring cluster with the greatest connecting edge weight
// among those with cap room, ties toward the lowest label, staying put
// (label[v]) unless strictly better. This is the one decision rule of the
// pass. Alongside the choice it reports whether any candidate was rejected
// for cap room yet outranks the choice — the one case where a later
// cluster-weight decrease could change the decision, so the rounds then
// keep v capped rather than settled. The decision itself is an argmax over
// the eligible candidates (eligibility is per-candidate, independent of
// scan state), which is what makes the single highest-ranked rejected
// candidate a sufficient summary.
func (s *Scratch) decideProp(g *graph.Graph, label []int32, cw []int64, caps []int64, m int, v int32) (best int32, capSensitive bool) {
	a := label[v]
	adj, wgt := g.Neighbors(v)
	if len(adj) == 0 {
		return a, false
	}
	if cap(s.candLab) < len(adj) {
		s.candLab = make([]int32, 0, len(adj))
		s.candW = make([]int64, 0, len(adj))
	}
	candLab := s.candLab[:0]
	candW := s.candW[:0]
	// Accumulate the connecting weight per neighboring cluster through the
	// slot marker (one generation per scanned vertex, no clearing).
	s.mk.Next()
	mk := s.mk
	for i, u := range adj {
		lu := label[u]
		if j := mk.Slot(lu); j >= 0 {
			candW[j] += int64(wgt[i])
		} else {
			mk.Set(lu, int32(len(candLab)))
			candLab = append(candLab, lu)
			candW = append(candW, int64(wgt[i]))
		}
	}
	s.candLab, s.candW = candLab, candW
	// Staying put is the baseline: the weight connecting v to its own
	// cluster (zero if no neighbor shares it).
	bestW := int64(0)
	best = a
	if j := mk.Slot(a); j >= 0 {
		bestW = candW[j]
	}
	vw := g.VertexWeight(v)
	rejLab, rejW := int32(-1), int64(-1)
	for j, lab := range candLab {
		if lab == a {
			continue
		}
		w := candW[j]
		if w > bestW || (w == bestW && lab < best) {
			if fitsCluster(cw, lab, vw, caps, m) {
				best, bestW = lab, w
			} else if w > rejW || (w == rejW && lab < rejLab) {
				rejLab, rejW = lab, w
			}
		}
	}
	// A rejected candidate recorded before later winners may no longer
	// outrank the final choice; compare against it once at the end.
	capSensitive = rejLab >= 0 && (rejW > bestW || (rejW == bestW && rejLab < best))
	return best, capSensitive
}

// Scratch pools every buffer one clustering pass needs — labels, cluster
// weights and member lists, visit order, the rounds' skip state and the
// candidate scan state — in one arena whose grow-only slabs are carved
// afresh per call. One Scratch serves a whole coarsening hierarchy: after
// the finest level sizes the slabs, ClusterInto allocates nothing but the
// returned cmap (the committed alloc-budget test). Single-goroutine, like
// the arena it wraps.
type Scratch struct {
	a arena.Arena
	// The candidate scan state: the slot marker maps each cluster label
	// seen in the current scan to its index in the candidate arrays
	// (generation and index packed in one word).
	mk      arena.SlotMarker
	candLab []int32
	candW   []int64

	// Each cluster's members as a doubly linked list: head by cluster
	// label, next and prev by vertex, -1 ending a list. applyMove keeps
	// them.
	head, next, prev []int32
	// The rounds' skip state: a dirty vertex is evaluated on its next
	// visit; a clean one is capped (some cluster that outranks staying was
	// refused for cap room) or else settled (no neighboring cluster
	// outranks staying). capped is stale while dirty is set.
	dirty, capped []bool
}

// NewScratch returns an empty Scratch, sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Cluster computes a size-constrained label-propagation clustering of g.
// It returns cmap — a dense cluster id in [0, nc) per vertex, the same
// shape coarsen.Contract produces for matchings — and the cluster count
// nc. Cluster ids are assigned in order of first appearance by ascending
// vertex id, so the id space itself is deterministic.
func Cluster(g *graph.Graph, rand *rng.RNG, opt Options) ([]int32, int) {
	return ClusterInto(g, rand, opt, NewScratch())
}

// ClusterInto is Cluster drawing every work buffer from s, which may be
// reused across calls (one Scratch per hierarchy); only the returned cmap
// is freshly allocated.
func ClusterInto(g *graph.Graph, rand *rng.RNG, opt Options, s *Scratch) ([]int32, int) {
	n := g.NumVertices()
	m := g.Ncon
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	caps := opt.MaxClusterWeight

	s.a.Reset()
	// Size the cold int32 and bool slabs for the whole call at once: six
	// int32 arrays of n and two bool ones.
	s.a.ReserveI32(6 * n)
	s.a.ReserveBool(2 * n)
	// label[v] is v's current cluster, named by an arbitrary vertex id;
	// cw[label*m+c] is the cluster's summed weight per constraint.
	label := s.a.I32(n)
	cw := s.a.I64(n * m)
	cnt := s.a.I32(n) // member count per cluster label
	order := s.a.I32(n)
	//mcvet:ignore arenapair — the lists and the skip state live in the same Scratch as the arena and are re-carved here after the one Reset per call, so they never outlive their slab
	s.head, s.next, s.prev = s.a.I32(n), s.a.I32(n), s.a.I32(n)
	//mcvet:ignore arenapair — as above: carved after the one Reset per call
	s.dirty, s.capped = s.a.Bool(n), s.a.Bool(n)
	s.mk.Grow(n)
	for v := 0; v < n; v++ {
		label[v] = int32(v)
		cnt[v] = 1
		s.head[v], s.next[v], s.prev[v] = int32(v), -1, -1
		s.dirty[v], s.capped[v] = true, false
		for c := 0; c < m; c++ {
			cw[v*m+c] = int64(g.Vwgt[v*m+c])
		}
	}

	for round := 0; round < rounds; round++ {
		if opt.Stop != nil && opt.Stop() {
			return nil, 0
		}
		if opt.Trace != nil {
			opt.Trace.Begin("lp.round", trace.I64("round", int64(round)), trace.I64("n", int64(n)))
		}
		rand.Perm(order)
		moves, evaluated := s.sequentialRound(g, label, cw, cnt, caps, m, order)
		if check.Enabled {
			s.checkClean(g, label, cw, caps, m, round)
		}
		if opt.Trace != nil {
			opt.Trace.End(trace.I64("moves", int64(moves)), trace.I64("evaluated", int64(evaluated)))
		}
		if moves == 0 {
			break
		}
	}
	return finish(g, label, cw, cnt, caps, m, order)
}

// finish packs the stranded singletons the rounds left behind and
// renumbers the surviving labels densely into the returned cmap. It
// consumes cnt and spare (n entries, overwritten).
//
// Propagation leaves two kinds of vertices behind as singleton clusters:
// degree-0 vertices (no connecting weight to anything — a few percent of n
// on Chung-Lu power-law graphs) and leaves stranded around saturated hubs
// (a degree-1 vertex whose sole neighbor's cluster is at the cap can never
// join it, and it is not adjacent to its sibling leaves, so no level ever
// merges it with anything). Both would otherwise put the coarsest-level
// target permanently out of reach. Merging such siblings with each other
// is cut-neutral at this level — stranded singletons sharing a hub have no
// mutual edges — so: group each stranded singleton by its
// heaviest-connecting neighbor cluster (adjacency-order max, lowest label
// on ties — the round rule), with the degree-0 vertices as one extra
// group, and first-fit pack each group in ascending vertex order under the
// caps. Deterministic, and the packed clusters land adjacent to the hub
// they share, so later levels keep consolidating them.
func finish(g *graph.Graph, label []int32, cw []int64, cnt []int32, caps []int64, m int, spare []int32) ([]int32, int) {
	n := g.NumVertices()
	packInto := spare // open pack cluster per group, indexed by hub label
	for i := range packInto {
		packInto[i] = -1
	}
	ballast := int32(-1) // open pack cluster of the degree-0 group
	for v := 0; v < n; v++ {
		if label[v] != int32(v) || cnt[v] != 1 {
			continue // not a stranded singleton
		}
		vw := g.VertexWeight(int32(v))
		adj, wgt := g.Neighbors(int32(v))
		if len(adj) == 0 {
			if ballast >= 0 && fitsCluster(cw, ballast, vw, caps, m) {
				moveSingleton(cw, label, int32(v), ballast, vw, m)
			} else {
				ballast = int32(v)
			}
			continue
		}
		hub, hubW := int32(-1), int64(-1)
		for i, u := range adj {
			lu := label[u]
			if lu == int32(v) {
				continue
			}
			// Parallel labels accumulate across rounds, not here: a plain
			// per-edge max is enough to give siblings the same group.
			if int64(wgt[i]) > hubW || (int64(wgt[i]) == hubW && lu < hub) {
				hub, hubW = lu, int64(wgt[i])
			}
		}
		if hub < 0 {
			continue // all neighbors already share v's label (can't happen for a singleton)
		}
		if p := packInto[hub]; p >= 0 && fitsCluster(cw, p, vw, caps, m) {
			moveSingleton(cw, label, int32(v), p, vw, m)
		} else {
			packInto[hub] = int32(v)
		}
	}

	// Renumber the surviving labels densely, in order of first appearance
	// by ascending vertex id. The member counts, dead once the singletons
	// are packed, are reused as the label -> dense-id map.
	dense := cnt
	for i := range dense {
		dense[i] = -1
	}
	cmap := make([]int32, n)
	nc := int32(0)
	for v := 0; v < n; v++ {
		l := label[v]
		if dense[l] < 0 {
			dense[l] = nc
			nc++
		}
		cmap[v] = dense[l]
	}
	return cmap, int(nc)
}

// sequentialRound runs one propagation round in visit order and returns
// its move count and the number of vertices it evaluated. It evaluates
// only dirty vertices; a clean one is skipped, because its decision
// provably equals the last one it made, which was to stay. A vertex's
// decision reads only its own label, its neighbors' labels and the weights
// of the clusters that outrank staying. A settled vertex has no such
// cluster, so only a neighbor's move can change its decision; a capped
// vertex's can also change when one of its refusing clusters gains room,
// and a cluster's weight falls only when a member leaves it. So a move of
// v from cluster a to b dirties v's neighbors and every capped vertex
// adjacent to a remaining member of a (see DESIGN.md, "Coarsening
// schemes"). The mover itself is settled or capped by the same rule as a
// vertex that stays: b outranks every candidate that fitted, a included.
func (s *Scratch) sequentialRound(g *graph.Graph, label []int32, cw []int64, cnt []int32, caps []int64, m int, order []int32) (moves, evaluated int) {
	dirty, capped := s.dirty, s.capped
	for _, v := range order {
		if !dirty[v] {
			continue
		}
		evaluated++
		a := label[v]
		best, capSens := s.decideProp(g, label, cw, caps, m, v)
		if best != a {
			s.applyMove(g, label, cw, cnt, v, best, m)
			moves++
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				dirty[u] = true
			}
			for x := s.head[a]; x >= 0; x = s.next[x] {
				adj, _ := g.Neighbors(x)
				for _, y := range adj {
					if capped[y] {
						dirty[y] = true
					}
				}
			}
		}
		dirty[v], capped[v] = false, capSens
	}
	return moves, evaluated
}

// checkClean re-derives the decision of every clean vertex after a round
// and panics unless it stays — and, for a settled vertex,
// unless no cluster outranks staying at all (mcdebug only).
func (s *Scratch) checkClean(g *graph.Graph, label []int32, cw []int64, caps []int64, m, round int) {
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if s.dirty[v] {
			continue
		}
		best, capSens := s.decideProp(g, label, cw, caps, m, v)
		if best != label[v] || (capSens && !s.capped[v]) {
			panic(fmt.Sprintf("mcdebug: lp: after round %d: vertex %d is clean in cluster %d (capped %v), but a fresh scan chooses cluster %d (cap-sensitive %v)",
				round, v, label[v], s.capped[v], best, capSens))
		}
	}
}

// applyMove reassigns v from its current cluster to dst, shifting its
// weight vector and the member counts, and moving v from its cluster's
// member list to the head of dst's.
func (s *Scratch) applyMove(g *graph.Graph, label []int32, cw []int64, cnt []int32, v, dst int32, m int) {
	a := label[v]
	vw := g.VertexWeight(v)
	for c := 0; c < m; c++ {
		cw[int(a)*m+c] -= int64(vw[c])
		cw[int(dst)*m+c] += int64(vw[c])
	}
	cnt[a]--
	cnt[dst]++
	label[v] = dst
	head, next, prev := s.head, s.next, s.prev
	if p := prev[v]; p >= 0 {
		next[p] = next[v]
	} else {
		head[a] = next[v]
	}
	if x := next[v]; x >= 0 {
		prev[x] = prev[v]
	}
	next[v], prev[v] = head[dst], -1
	if x := head[dst]; x >= 0 {
		prev[x] = v
	}
	head[dst] = v
}

// moveSingleton reassigns stranded singleton v (label v) to cluster dst,
// shifting its weight vector.
func moveSingleton(cw []int64, label []int32, v, dst int32, vw []int32, m int) {
	for c := 0; c < m; c++ {
		cw[int(v)*m+c] -= int64(vw[c])
		cw[int(dst)*m+c] += int64(vw[c])
	}
	label[v] = dst
}

// fitsCluster reports whether adding weight vector vw to cluster lab keeps
// every constraint at or under its cap.
func fitsCluster(cw []int64, lab int32, vw []int32, caps []int64, m int) bool {
	if caps == nil {
		return true
	}
	base := int(lab) * m
	for c := 0; c < m; c++ {
		if cw[base+c]+int64(vw[c]) > caps[c] {
			return false
		}
	}
	return true
}
