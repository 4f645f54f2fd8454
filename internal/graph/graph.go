// Package graph provides the in-memory graph representation shared by all
// partitioning code: an undirected graph in compressed sparse row (CSR)
// form, with an m-component integer weight vector per vertex and an integer
// weight per edge.
//
// Conventions, chosen to match the METIS family the papers build on:
//
//   - Vertices are numbered 0..N-1 (the on-disk METIS format is 1-based;
//     the readers/writers translate).
//   - The adjacency of vertex v is Adjncy[Xadj[v]:Xadj[v+1]] with parallel
//     edge weights Adjwgt[Xadj[v]:Xadj[v+1]]. Every undirected edge {u,v}
//     appears twice, once in each endpoint's list, with equal weight.
//   - Vertex weights are flattened: vertex v's m-vector is
//     Vwgt[v*Ncon : (v+1)*Ncon].
//
// Vertex indices are int32 (graphs up to ~2 billion vertices/edge-endpoints,
// far beyond the 7.5M-vertex mrng4 of the paper) and aggregate weights are
// accumulated in int64.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// checkAdjncyLen rejects an adjacency-array length (2x the undirected edge
// count) the int32 CSR cannot index: Xadj entries reach exactly this
// value, so anything past MaxInt32 would wrap the prefix sums. Shared by
// Builder.Finish (on the entry total before repeats are merged) and the
// METIS header check (on the declared edge count, before anything
// proportional is allocated).
func checkAdjncyLen(entries int64) error {
	if entries > math.MaxInt32 {
		return fmt.Errorf("graph: %d adjacency entries (%d undirected edges) overflow int32 Xadj indexing (max %d entries)",
			entries, entries/2, int64(math.MaxInt32))
	}
	return nil
}

// Graph is an undirected multi-constraint weighted graph in CSR form.
type Graph struct {
	// Ncon is the number of balance constraints m (>= 1): the length of
	// each vertex's weight vector.
	Ncon int

	// Xadj has length NumVertices()+1; vertex v's adjacency list is
	// Adjncy[Xadj[v]:Xadj[v+1]].
	Xadj []int32

	// Adjncy holds neighbor vertex ids; length Xadj[n] = 2 * #edges.
	Adjncy []int32

	// Adjwgt holds edge weights parallel to Adjncy. Never nil for a
	// validated graph; unit weights are materialized.
	Adjwgt []int32

	// Vwgt holds the flattened vertex weight vectors, length n*Ncon.
	Vwgt []int32
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Xadj) - 1 }

// NumEdges returns the number of undirected edges (half the CSR entries).
func (g *Graph) NumEdges() int { return len(g.Adjncy) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// VertexWeight returns the weight vector of vertex v (a view, not a copy).
func (g *Graph) VertexWeight(v int32) []int32 {
	return g.Vwgt[int(v)*g.Ncon : (int(v)+1)*g.Ncon]
}

// Neighbors returns views of vertex v's neighbor ids and edge weights.
func (g *Graph) Neighbors(v int32) (adj, wgt []int32) {
	return g.Adjncy[g.Xadj[v]:g.Xadj[v+1]], g.Adjwgt[g.Xadj[v]:g.Xadj[v+1]]
}

// TotalVertexWeight returns the m-component sum of all vertex weights.
func (g *Graph) TotalVertexWeight() []int64 {
	m := g.Ncon
	tot := make([]int64, m)
	for v := 0; v < g.NumVertices(); v++ {
		for c, w := range g.Vwgt[v*m : (v+1)*m] {
			tot[c] += int64(w)
		}
	}
	return tot
}

// TotalEdgeWeight returns the sum of weights over undirected edges (each
// edge counted once).
func (g *Graph) TotalEdgeWeight() int64 {
	var tot int64
	for _, w := range g.Adjwgt {
		tot += int64(w)
	}
	return tot / 2
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d ncon=%d}", g.NumVertices(), g.NumEdges(), g.Ncon)
}

// Validate checks the structural invariants of the CSR representation:
// monotone Xadj, in-range neighbor ids, no self-loops, symmetric adjacency
// with matching weights, positive edge weights, non-negative vertex weights,
// and consistent array lengths. It returns a descriptive error for the
// first violation found. A graph whose lists are all strictly ascending,
// as Builder.Finish emits them, is accepted in one pass over its entries.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: Xadj must have length >= 1")
	}
	if g.Ncon < 1 {
		return fmt.Errorf("graph: Ncon = %d, want >= 1", g.Ncon)
	}
	if len(g.Vwgt) != n*g.Ncon {
		return fmt.Errorf("graph: len(Vwgt) = %d, want n*Ncon = %d", len(g.Vwgt), n*g.Ncon)
	}
	if len(g.Adjwgt) != len(g.Adjncy) {
		return fmt.Errorf("graph: len(Adjwgt) = %d, want len(Adjncy) = %d", len(g.Adjwgt), len(g.Adjncy))
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if int(g.Xadj[n]) != len(g.Adjncy) {
		return fmt.Errorf("graph: Xadj[n] = %d, want len(Adjncy) = %d", g.Xadj[n], len(g.Adjncy))
	}
	for v := 0; v < n; v++ {
		if g.Xadj[v+1] < g.Xadj[v] {
			return fmt.Errorf("graph: Xadj not monotone at vertex %d", v)
		}
	}
	for _, w := range g.Vwgt {
		if w < 0 {
			return fmt.Errorf("graph: negative vertex weight %d", w)
		}
	}
	if g.sortedSymmetric() {
		return nil
	}
	// The graph is invalid, or one of its lists is unsorted or names a
	// neighbor twice; the checks below find its first violation. Every
	// reverse edge is looked up in its endpoint's list. Scanning every list
	// would make a hub of degree d cost d² (a star with millions of leaves
	// fits under mcpartd's request limits), so when every list longer than
	// scanMax is sorted, those lists are binary-searched instead.
	search := true
	for v := int32(0); int(v) < n; v++ {
		if adj, _ := g.Neighbors(v); len(adj) > scanMax && !slices.IsSorted(adj) {
			search = false
			break
		}
	}
	for v := int32(0); int(v) < n; v++ {
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: vertex %d has a self-loop", v)
			}
			// Zero-weight edges are legal: the Type 2 multi-phase workloads
			// of the paper assign edge weight = number of co-active phases,
			// which can be zero while the edge still exists in the mesh.
			if wgt[i] < 0 {
				return fmt.Errorf("graph: edge (%d,%d) has negative weight %d", v, u, wgt[i])
			}
			// The reverse edge is the first v in u's list.
			radj, rwgt := g.Neighbors(u)
			j := -1
			if search && len(radj) > scanMax {
				if k, ok := slices.BinarySearch(radj, v); ok {
					j = k
				}
			} else {
				j = slices.Index(radj, v)
			}
			if j < 0 {
				return fmt.Errorf("graph: edge (%d,%d) present but (%d,%d) missing", v, u, u, v)
			} else if rwgt[j] != wgt[i] {
				return fmt.Errorf("graph: edge (%d,%d) weight %d != reverse weight %d", v, u, wgt[i], rwgt[j])
			}
		}
	}
	return nil
}

// sortedSymmetric reports whether g passes every adjacency check of
// Validate in one pass over its entries, which holds for the canonical
// CSR Builder.Finish emits: every list strictly ascending, every entry in
// range, not a self-loop, of non-negative weight, and matched by its
// reverse entry of the same weight. It assumes the checks Validate makes
// before it. A false result says only that the full checks must run.
func (g *Graph) sortedSymmetric() bool {
	n := g.NumVertices()
	// cursor[u] is u's first lower-neighbor entry not yet matched. The
	// vertices are visited in ascending order, so u's lower-neighbor
	// entries are matched in their list order, before u is visited.
	cursor := make([]int32, n)
	copy(cursor, g.Xadj[:n])
	for v := int32(0); int(v) < n; v++ {
		// Every entry from the cursor on must name a higher neighbor: a
		// lower one left here has no reverse entry.
		prev := v
		for i := cursor[v]; i < g.Xadj[v+1]; i++ {
			u, w := g.Adjncy[i], g.Adjwgt[i]
			if u <= prev || int(u) >= n || w < 0 {
				return false
			}
			c := cursor[u]
			if c == g.Xadj[u+1] || g.Adjncy[c] != v || g.Adjwgt[c] != w {
				return false
			}
			cursor[u] = c + 1
			prev = u
		}
	}
	return true
}

// scanMax is the adjacency-list length up to which Validate scans for a
// reverse edge: on mesh-like degrees a scan beats a binary search.
const scanMax = 16

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Ncon:   g.Ncon,
		Xadj:   append([]int32(nil), g.Xadj...),
		Adjncy: append([]int32(nil), g.Adjncy...),
		Adjwgt: append([]int32(nil), g.Adjwgt...),
		Vwgt:   append([]int32(nil), g.Vwgt...),
	}
	return c
}

// Edge is an undirected weighted edge used by the Builder.
type Edge struct {
	U, V int32
	W    int32
}

// Builder accumulates edges and produces a validated CSR Graph. Duplicate
// edges are merged by summing their weights, and a sum past MaxInt32 is
// an error; self-loops are rejected at Finish time. The builder exists so
// generators and file readers do not each reimplement CSR assembly.
type Builder struct {
	n     int
	ncon  int
	vwgt  []int32
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices and ncon
// constraints. All vertex weights default to 1 in every component.
func NewBuilder(n, ncon int) *Builder {
	if n < 0 || ncon < 1 {
		panic("graph: NewBuilder with invalid n or ncon")
	}
	vwgt := make([]int32, n*ncon)
	for i := range vwgt {
		vwgt[i] = 1
	}
	return &Builder{n: n, ncon: ncon, vwgt: vwgt}
}

// SetVertexWeight sets vertex v's weight vector (length ncon).
func (b *Builder) SetVertexWeight(v int32, w []int32) {
	if len(w) != b.ncon {
		panic("graph: SetVertexWeight with wrong vector length")
	}
	copy(b.vwgt[int(v)*b.ncon:], w)
}

// AddEdge records an undirected edge {u,v} of weight w. Order of endpoints
// is irrelevant. Adding the same edge twice sums the weights.
func (b *Builder) AddEdge(u, v, w int32) {
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// Grow reserves room for m more edges, so a caller that knows how many
// edges it will add appends them without growing the edge list.
func (b *Builder) Grow(m int) {
	b.edges = slices.Grow(b.edges, m)
}

// Finish assembles and validates the CSR graph. Each adjacency list is
// ascending by neighbor and names each neighbor once: repeated edges are
// merged into one entry of the summed weight. The builder must not be
// reused afterwards.
func (b *Builder) Finish() (*Graph, error) {
	for _, e := range b.edges {
		if e.U < 0 || int(e.U) >= b.n || e.V < 0 || int(e.V) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, b.n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		if e.W < 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has negative weight %d", e.U, e.V, e.W)
		}
	}
	// Both directions of every edge take an entry until repeats are merged,
	// and the int32 CSR bound must hold on that total before any Xadj
	// arithmetic: past it the degree counts and prefix sums wrap silently.
	if err := checkAdjncyLen(2 * int64(len(b.edges))); err != nil {
		return nil, err
	}

	n := b.n
	xadj := make([]int32, n+1)
	for _, e := range b.edges {
		xadj[e.U+1]++
		xadj[e.V+1]++
	}
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, xadj[v+1])
		xadj[v+1] += xadj[v]
	}
	adjncy := make([]int32, xadj[n])
	adjwgt := make([]int32, xadj[n])
	next := make([]int32, n)
	copy(next, xadj[:n])
	for _, e := range b.edges {
		adjncy[next[e.U]], adjwgt[next[e.U]] = e.V, e.W
		next[e.U]++
		adjncy[next[e.V]], adjwgt[next[e.V]] = e.U, e.W
		next[e.V]++
	}

	// Sort each list, then merge its repeated neighbors while compacting
	// the lists to the front of the arrays. The result depends only on
	// the multiset of edges, not on the order they were added in.
	var scratch []uint64
	if maxDeg > insertionMax {
		scratch = make([]uint64, maxDeg)
	}
	out, start := int32(0), int32(0)
	for v := 0; v < n; v++ {
		end := xadj[v+1]
		sortList(adjncy[start:end], adjwgt[start:end], scratch)
		first := out
		for i := start; i < end; i++ {
			u, w := adjncy[i], adjwgt[i]
			if out > first && adjncy[out-1] == u {
				// A pair's sum is formed in the lower endpoint's list
				// first, so an overflow is reported with v < u.
				sum := int64(adjwgt[out-1]) + int64(w)
				if sum > math.MaxInt32 {
					return nil, fmt.Errorf("graph: repeated edge (%d,%d) sums to a weight past the int32 maximum %d", v, u, math.MaxInt32)
				}
				adjwgt[out-1] = int32(sum)
				continue
			}
			adjncy[out], adjwgt[out] = u, w
			out++
		}
		xadj[v] = first
		start = end
	}
	xadj[n] = out

	g := &Graph{Ncon: b.ncon, Xadj: xadj, Adjncy: adjncy[:out:out], Adjwgt: adjwgt[:out:out], Vwgt: b.vwgt}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// insertionMax is the longest adjacency list Finish sorts by insertion.
// Generators add most of a list in ascending order, so insertion costs
// little on them; a longer list goes through the scratch, so a hub whose
// neighbors arrive shuffled does not cost its degree squared.
const insertionMax = 32

// sortList sorts one adjacency list by neighbor, carrying each entry's
// weight along. The order of equal neighbors is left open: Finish sums
// them. scratch holds at least len(adj) keys when len(adj) > insertionMax.
func sortList(adj, wgt []int32, scratch []uint64) {
	if len(adj) <= insertionMax {
		for i := 1; i < len(adj); i++ {
			u, w := adj[i], wgt[i]
			j := i
			for ; j > 0 && adj[j-1] > u; j-- {
				adj[j], wgt[j] = adj[j-1], wgt[j-1]
			}
			adj[j], wgt[j] = u, w
		}
		return
	}
	// Neighbors and weights are non-negative here, so packing the neighbor
	// above the weight gives keys that order by neighbor.
	keys := scratch[:len(adj)]
	for i, u := range adj {
		keys[i] = uint64(u)<<32 | uint64(wgt[i])
	}
	slices.Sort(keys)
	for i, k := range keys {
		adj[i], wgt[i] = int32(k>>32), int32(uint32(k))
	}
}

// MustFinish is Finish but panics on error; for use by generators whose
// inputs are correct by construction.
func (b *Builder) MustFinish() *Graph {
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}
