package coarsen

import (
	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/vecw"
)

// The test oracles: the sequential matching and the two contraction
// kernels as they stood before the one-kernel-per-step refactor, without
// scratch pooling or plan carving. The parity tests hold the production
// kernels to them byte for byte at every worker count.

// refMatch is the in-order heavy-edge matching: each unmatched vertex of a
// random visit order takes the unmatched neighbor across its heaviest edge
// that fits the cap, ties broken by the minimum vecw.Jaggedness of the
// combined weight vector under BalancedEdge, then by adjacency order.
func refMatch(g *graph.Graph, rand *rng.RNG, opt Options) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := make([]int32, n)
	rand.Perm(order)
	combined := make([]int64, g.Ncon)
	jaggedness := func(a, b []int32) float64 {
		for i := range a {
			combined[i] = int64(a[i]) + int64(b[i])
		}
		return vecw.Jaggedness(combined)
	}
	fits := func(a, b []int32) bool {
		for i := range a {
			if int64(a[i])+int64(b[i]) > opt.MaxVertexWeight {
				return false
			}
		}
		return true
	}
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		adj, wgt := g.Neighbors(v)
		vw := g.VertexWeight(v)
		best := int32(-1)
		bestW := int32(-1)
		bestJag := 0.0
		for i, u := range adj {
			if match[u] >= 0 || u == v {
				continue
			}
			if opt.MaxVertexWeight > 0 && !fits(vw, g.VertexWeight(u)) {
				continue
			}
			switch {
			case wgt[i] > bestW:
				best, bestW = u, wgt[i]
				if opt.BalancedEdge {
					bestJag = jaggedness(vw, g.VertexWeight(u))
				}
			case wgt[i] == bestW && opt.BalancedEdge:
				if j := jaggedness(vw, g.VertexWeight(u)); j < bestJag {
					best, bestJag = u, j
				}
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	return match
}

// refContract collapses the matched pairs: coarse ids ascend with the
// lower endpoint of each pair, and a coarse vertex's edges are its
// representative's followed by its mate's, merged by coarse neighbor in
// order of first appearance.
func refContract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	n := g.NumVertices()
	m := g.Ncon
	cmap := make([]int32, n)
	cn := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if match[v] >= v {
			cmap[v] = cn
			cn++
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if match[v] < v {
			cmap[v] = cmap[match[v]]
		}
	}
	cvwgt := make([]int32, int(cn)*m)
	for v := 0; v < n; v++ {
		for c := 0; c < m; c++ {
			cvwgt[int(cmap[v])*m+c] += g.Vwgt[v*m+c]
		}
	}
	e := newRefEmitter(g, cmap, int(cn))
	for v := int32(0); int(v) < n; v++ {
		if match[v] < v {
			continue
		}
		e.next()
		e.fill(v, cmap[v])
		if match[v] != v {
			e.fill(match[v], cmap[v])
		}
		e.xadj[cmap[v]+1] = int32(len(e.adjncy))
	}
	return &graph.Graph{Ncon: m, Xadj: e.xadj, Adjncy: e.adjncy, Adjwgt: e.adjwgt, Vwgt: cvwgt}, cmap
}

// refContractMap collapses a dense many-to-one cluster map: a counting
// sort groups each cluster's members in ascending order, and their edges
// merge in that order.
func refContractMap(g *graph.Graph, cmap []int32, nc int) *graph.Graph {
	n := g.NumVertices()
	m := g.Ncon
	head := make([]int32, nc+1)
	for _, cv := range cmap {
		head[cv+1]++
	}
	for i := 0; i < nc; i++ {
		head[i+1] += head[i]
	}
	members := make([]int32, n)
	cursor := append([]int32(nil), head[:nc]...)
	for v := 0; v < n; v++ {
		members[cursor[cmap[v]]] = int32(v)
		cursor[cmap[v]]++
	}
	cvwgt := make([]int32, nc*m)
	for v := 0; v < n; v++ {
		for c := 0; c < m; c++ {
			cvwgt[int(cmap[v])*m+c] += g.Vwgt[v*m+c]
		}
	}
	e := newRefEmitter(g, cmap, nc)
	for cv := int32(0); int(cv) < nc; cv++ {
		e.next()
		for i := head[cv]; i < head[cv+1]; i++ {
			e.fill(members[i], cv)
		}
		e.xadj[cv+1] = int32(len(e.adjncy))
	}
	return &graph.Graph{Ncon: m, Xadj: e.xadj, Adjncy: e.adjncy, Adjwgt: e.adjwgt, Vwgt: cvwgt}
}

// refEmitter appends merged coarse adjacency lists, deduplicating parallel
// edges with an epoch marker (one generation per coarse vertex).
type refEmitter struct {
	g              *graph.Graph
	cmap           []int32
	marker         arena.Marker
	slot           []int32
	xadj           []int32
	adjncy, adjwgt []int32
}

func newRefEmitter(g *graph.Graph, cmap []int32, cn int) *refEmitter {
	e := &refEmitter{g: g, cmap: cmap, slot: make([]int32, cn), xadj: make([]int32, cn+1)}
	e.marker.Grow(cn)
	return e
}

func (e *refEmitter) next() { e.marker.Next() }

// fill merges fine vertex v's edges into coarse vertex cv's list.
func (e *refEmitter) fill(v, cv int32) {
	adj, wgt := e.g.Neighbors(v)
	for i, u := range adj {
		cu := e.cmap[u]
		if cu == cv {
			continue
		}
		if e.marker.TryMark(cu) {
			e.slot[cu] = int32(len(e.adjncy))
			e.adjncy = append(e.adjncy, cu)
			e.adjwgt = append(e.adjwgt, wgt[i])
		} else {
			e.adjwgt[e.slot[cu]] += wgt[i]
		}
	}
}
