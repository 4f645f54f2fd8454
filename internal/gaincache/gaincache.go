// Package gaincache holds the boundary state that both k-way refiners keep:
// the serial greedy refiner (internal/kwayrefine) and each rank of the
// parallel reservation refiner (internal/prefine). The two make the same
// boundary moves, the parallel one only defers its commits, so one State
// serves both (see DESIGN.md, "Boundary refinement contract"):
//
//   - per owned vertex v, id[v] and ed[v], its edge weight to its own and to
//     other subdomains, nfr[v], its number of foreign neighbors, and
//     maxRow[v], an upper bound on its heaviest gain row (edge weight toward
//     one foreign subdomain) that never exceeds ed[v], with the number of
//     boundary vertices (nfr > 0);
//   - the k*m subdomain loads with their limits and per-constraint averages,
//     and the balance score of a move;
//   - Rows, the accumulator a gather loads one vertex's gain rows into.
//
// The state is defined over the CSR of the owned vertices and their labels,
// owned vertices first and ghosts (the parallel refiner's copies of remote
// neighbors) after them; a serial graph has no ghosts. Seed derives the
// per-vertex tables with one scan, and Shift, the one neighbor update, keeps
// them exact under every label change: Move applies it for a vertex this
// refiner moves, and the parallel refiner applies it for each changed ghost
// label. No table is sized by the edge count.
package gaincache

import "repro/internal/vecw"

// State is one refiner's boundary state. The per-vertex tables are indexed
// by owned vertex; Labels holds the owned labels, then the ghost labels.
// Callers read the exported tables and write Pwgts as their commit protocol
// requires. They write Labels only where they then apply the change: a
// changed ghost label through Shift, a wholesale restore through Seed.
// Every other table is written by the State's methods only.
type State struct {
	k, m int

	Xadj, Adjncy, Adjwgt []int32
	Labels               []int32

	ID, ED, MaxRow []int64
	Nfr            []int32
	Boundary       int

	Pwgts []int64 // k*m subdomain loads
	Limit []int64 // k*m
	Avg   []float64

	Rows Rows
}

// NewState returns a state for k subdomains and m constraints with no
// vertices; Bind sizes it for a graph.
func NewState(k, m int) State {
	return State{
		k: k, m: m,
		Pwgts: make([]int64, k*m),
		Limit: make([]int64, k*m),
		Avg:   make([]float64, m),
		Rows:  *NewRows(k),
	}
}

// Reserve grows the per-vertex tables (24 bytes per vertex for id, ed and
// maxRow, 4 for nfr) to n vertices, so binding a graph of up to n vertices
// later does not allocate.
func (s *State) Reserve(n int) {
	if cap(s.ID) < n {
		s.ID = make([]int64, 0, n)
		s.ED = make([]int64, 0, n)
		s.MaxRow = make([]int64, 0, n)
		s.Nfr = make([]int32, 0, n)
	}
}

// Bind points the state at the CSR of len(xadj)-1 owned vertices and at
// their labels, owned then ghost: an adjacency entry u indexes labels, and u
// below the owned count is an owned vertex. The tables are sized but not
// seeded; Load and Seed do that.
func (s *State) Bind(xadj, adjncy, adjwgt, labels []int32) {
	n := len(xadj) - 1
	s.Reserve(n)
	s.Xadj, s.Adjncy, s.Adjwgt, s.Labels = xadj, adjncy, adjwgt, labels
	s.ID, s.ED, s.MaxRow, s.Nfr = s.ID[:n], s.ED[:n], s.MaxRow[:n], s.Nfr[:n]
}

// Load sums the owned vertices' weight vectors (m per vertex) into Pwgts.
func (s *State) Load(vwgt []int32) {
	pwgts, m := s.Pwgts, s.m
	clear(pwgts)
	for v, a := range s.Labels[:len(s.ID)] {
		vecw.Add(pwgts[int(a)*m:(int(a)+1)*m], vwgt[v*m:(v+1)*m])
	}
}

// SetLimits derives each constraint's average load and the per-subdomain
// limit for imbalance tolerance tol from the column sums of Pwgts, which
// must hold every subdomain's whole load.
func (s *State) SetLimits(tol float64) {
	k, m := s.k, s.m
	for c := 0; c < m; c++ {
		var total int64
		for b := 0; b < k; b++ {
			total += s.Pwgts[b*m+c]
		}
		s.Avg[c] = float64(total) / float64(k)
		lim := vecw.Limit(total, k, tol)
		for b := 0; b < k; b++ {
			s.Limit[b*m+c] = lim
		}
	}
}

// Seed derives every owned vertex's id, ed and nfr from the labels with one
// scan of the adjacency, sets each row bound to ed (every row is a part of
// the external weight), and counts the boundary.
func (s *State) Seed() {
	labels := s.Labels
	boundary := 0
	for v, a := range labels[:len(s.ID)] {
		var id, ed int64
		nfr := int32(0)
		adj, wgt := s.neighbors(int32(v))
		for i, u := range adj {
			if labels[u] == a {
				id += int64(wgt[i])
			} else {
				ed += int64(wgt[i])
				nfr++
			}
		}
		s.ID[v], s.ED[v], s.MaxRow[v], s.Nfr[v] = id, ed, ed, nfr
		if nfr > 0 {
			boundary++
		}
	}
	s.Boundary = boundary
}

// neighbors returns owned vertex v's adjacency list and edge weights.
func (s *State) neighbors(v int32) (adj, wgt []int32) {
	lo, hi := s.Xadj[v], s.Xadj[v+1]
	return s.Adjncy[lo:hi], s.Adjwgt[lo:hi]
}

// External returns the owned vertices' summed external degree: every cut
// edge counts once per owned endpoint.
func (s *State) External() int64 {
	var sum int64
	for _, ed := range s.ED {
		sum += ed
	}
	return sum
}

// Shift is the neighbor update: the edge of weight w between owned vertex u
// and a neighbor whose label changed from a to b moves between u's internal
// and external degree, and the boundary count follows u's foreign-neighbor
// count across zero. Only two of u's rows change: its a-row shrinks, and
// its b-row grows when u is not itself in b. So the row bound of a u in a
// rises by w along with ed, a u in b keeps its bound clamped to its smaller
// ed, and any other u raises its bound by w, clamped to ed.
func (s *State) Shift(u, a, b int32, w int64) {
	switch s.Labels[u] {
	case a:
		s.ID[u] -= w
		s.ED[u] += w
		s.MaxRow[u] += w
		if s.Nfr[u]++; s.Nfr[u] == 1 {
			s.Boundary++
		}
	case b:
		s.ID[u] += w
		s.ED[u] -= w
		s.MaxRow[u] = min(s.MaxRow[u], s.ED[u])
		if s.Nfr[u]--; s.Nfr[u] == 0 {
			s.Boundary--
		}
	default:
		s.MaxRow[u] = min(s.MaxRow[u]+w, s.ED[u])
	}
}

// Move relabels owned vertex v from a to b, applies Shift to each owned
// neighbor, and re-derives v's own entry from its adjacency, with its row
// bound at its new ed. O(degree(v)). The loads are the caller's: the serial
// refiner commits them at once, the parallel one after its reduction.
func (s *State) Move(v, a, b int32) {
	labels := s.Labels
	labels[v] = b
	owned := int32(len(s.ID))
	var id, ed int64
	nfr := int32(0)
	adj, wgt := s.neighbors(v)
	for i, u := range adj {
		w := int64(wgt[i])
		if u < owned {
			s.Shift(u, a, b, w)
		}
		if labels[u] == b {
			id += w
		} else {
			ed += w
			nfr++
		}
	}
	if s.Nfr[v] > 0 {
		s.Boundary--
	}
	if nfr > 0 {
		s.Boundary++
	}
	s.ID[v], s.ED[v], s.MaxRow[v], s.Nfr[v] = id, ed, ed, nfr
}

// Gather loads owned vertex v's gain rows into Rows by scanning its
// adjacency list, so rows and their first-occurrence order are exactly what
// the refiners' tie-breaks expect, and tightens MaxRow[v] to the heaviest
// row. An interior vertex gathers the empty set without a scan. The internal
// degree is not recomputed: ID[v] is exact.
func (s *State) Gather(v int32) {
	s.Rows.Clear()
	if s.Nfr[v] == 0 {
		return
	}
	labels := s.Labels
	a := labels[v]
	adj, wgt := s.neighbors(v)
	for i, u := range adj {
		if b := labels[u]; b != a {
			s.Rows.Add(v, b, int64(wgt[i]))
		}
	}
	var heaviest int64
	for _, b := range s.Rows.Touched() {
		heaviest = max(heaviest, s.Rows.Weight(b))
	}
	s.MaxRow[v] = heaviest
}

// Imbalanced reports whether any subdomain is over its limit on any
// constraint.
func (s *State) Imbalanced() bool { return vecw.AnyOver(s.Pwgts, s.Limit) }

// BalanceDelta returns the change in Σ_c (load/avg)² over subdomains a and
// b if the weight vector vw moves from a to b; negative means the move
// improves balance. Constraints that no vertex carries are skipped.
func (s *State) BalanceDelta(a, b int32, vw []int32) float64 {
	m := s.m
	var before, after float64
	for c := 0; c < m; c++ {
		if s.Avg[c] <= 0 {
			continue
		}
		wa := float64(s.Pwgts[int(a)*m+c])
		wb := float64(s.Pwgts[int(b)*m+c])
		w := float64(vw[c])
		before += (wa*wa + wb*wb) / (s.Avg[c] * s.Avg[c])
		after += ((wa-w)*(wa-w) + (wb+w)*(wb+w)) / (s.Avg[c] * s.Avg[c])
	}
	return after - before
}

// Rows accumulates one vertex's external edge weight per foreign subdomain.
// A Rows is sized for k subdomains and reused across vertices: Clear (lazy,
// O(touched)) resets the previous vertex's entries, then Add accumulates the
// next vertex's. Touched returns the foreign subdomains in first-occurrence
// order of the vertex's adjacency list, the candidate iteration order the
// refiners' tie-breaking rules depend on. Single-goroutine, like every
// refiner scratch structure.
type Rows struct {
	edw     []int64
	mark    []int32
	touched []int32
}

// NewRows returns an accumulator for k subdomains.
func NewRows(k int) *Rows {
	mark := make([]int32, k)
	for i := range mark {
		mark[i] = -1
	}
	return &Rows{
		edw:     make([]int64, k),
		mark:    mark,
		touched: make([]int32, 0, k),
	}
}

// Clear resets the entries touched by the previous vertex.
func (r *Rows) Clear() {
	for _, b := range r.touched {
		r.mark[b] = -1
		r.edw[b] = 0
	}
	r.touched = r.touched[:0]
}

// Add accumulates edge weight w from vertex v toward foreign subdomain b.
// v is the stamping key: the first Add of (v, b) appends b to the touched
// list. Callers must Clear between vertices.
func (r *Rows) Add(v, b int32, w int64) {
	if r.mark[b] != v {
		r.mark[b] = v
		r.touched = append(r.touched, b)
	}
	r.edw[b] += w
}

// Touched returns the current vertex's foreign subdomains in first-occurrence
// adjacency order. The slice aliases internal state; it is valid until the
// next Clear.
func (r *Rows) Touched() []int32 { return r.touched }

// Weight returns the accumulated edge weight toward subdomain b (zero for
// subdomains not touched by the current vertex).
func (r *Rows) Weight(b int32) int64 { return r.edw[b] }

// Marked reports whether subdomain b was touched by vertex v's gather. It is
// how the balance passes skip already-evaluated adjacent subdomains in their
// consider-all fallback loops.
func (r *Rows) Marked(v, b int32) bool { return r.mark[b] == v }
