// Package pgraph implements the distributed graph used by the parallel
// partitioner: vertices are block-distributed across the ranks of an
// mpi.Comm, each rank stores a local CSR whose adjacency entries reference
// either local vertices or "ghost" copies of remote neighbors, and halo
// exchange keeps per-vertex values (partition labels, match state,
// coarsening maps) of the ghosts current.
//
// Layout conventions:
//
//   - Global vertex ids are 0..N-1; rank r owns the contiguous block
//     [VtxDist[r], VtxDist[r+1]).
//   - Local indices 0..NLocal-1 are the owned vertices in global order;
//     local indices NLocal..NLocal+NGhost-1 are ghosts, with
//     GhostGlobal[i-NLocal] giving a ghost's global id.
//   - Adjncy stores local indices (owned or ghost).
package pgraph

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/mpi"
)

// DGraph is one rank's share of a distributed graph.
type DGraph struct {
	Comm *mpi.Comm
	Ncon int

	// VtxDist (length p+1) gives the global vertex ranges per rank.
	VtxDist []int32

	// Local CSR over owned vertices; adjacency entries are local indices.
	Xadj   []int32
	Adjncy []int32
	Adjwgt []int32
	Vwgt   []int32 // NLocal * Ncon

	// GhostGlobal maps ghost slot (local index - NLocal) to global id.
	GhostGlobal []int32

	// RecvLists[r] lists the ghost slots owned by rank r (what we receive
	// in a halo exchange); SendLists[r] lists the owned local vertices
	// rank r holds ghosts of (what we send).
	RecvLists [][]int32
	SendLists [][]int32

	// ghostIdx maps global id -> ghost slot; built lazily by GhostSlot.
	ghostIdx map[int32]int32
}

// NLocal returns the number of owned vertices.
func (dg *DGraph) NLocal() int { return len(dg.Xadj) - 1 }

// Degree returns owned vertex l's degree.
func (dg *DGraph) Degree(l int) int { return int(dg.Xadj[l+1] - dg.Xadj[l]) }

// NGhost returns the number of ghost vertices.
func (dg *DGraph) NGhost() int { return len(dg.GhostGlobal) }

// GlobalN returns the total vertex count.
func (dg *DGraph) GlobalN() int { return int(dg.VtxDist[len(dg.VtxDist)-1]) }

// First returns this rank's first owned global id.
func (dg *DGraph) First() int32 { return dg.VtxDist[dg.Comm.Rank()] }

// Owner returns the rank owning global vertex gid.
func (dg *DGraph) Owner(gid int32) int {
	return OwnerIn(dg.VtxDist, gid)
}

// OwnerIn returns the rank owning gid under the distribution vtxdist.
func OwnerIn(vtxdist []int32, gid int32) int {
	// sort.Search for the first r with vtxdist[r+1] > gid.
	lo, hi := 0, len(vtxdist)-2
	for lo < hi {
		mid := (lo + hi) / 2
		if vtxdist[mid+1] > gid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ToGlobal converts a local index (owned or ghost) to a global id.
func (dg *DGraph) ToGlobal(l int32) int32 {
	if int(l) < dg.NLocal() {
		return dg.First() + l
	}
	return dg.GhostGlobal[int(l)-dg.NLocal()]
}

// LocalVertexWeight returns owned vertex l's weight vector.
func (dg *DGraph) LocalVertexWeight(l int32) []int32 {
	return dg.Vwgt[int(l)*dg.Ncon : (int(l)+1)*dg.Ncon]
}

// BlockVtxDist returns the even block distribution of n vertices over p
// ranks: rank r owns [floor(r*n/p), floor((r+1)*n/p)).
func BlockVtxDist(n, p int) []int32 {
	vd := make([]int32, p+1)
	for r := 0; r <= p; r++ {
		vd[r] = int32(r * n / p)
	}
	return vd
}

// Distribute builds this rank's share of g under the even block
// distribution. Every rank passes the same full graph (the experiment
// harness generates it deterministically on each rank, standing in for the
// application handing ParMeTiS an already-distributed mesh).
func Distribute(c *mpi.Comm, g *graph.Graph) *DGraph {
	n := g.NumVertices()
	p := c.Size()
	vd := BlockVtxDist(n, p)
	first, last := vd[c.Rank()], vd[c.Rank()+1]
	nlocal := int(last - first)

	dg := &DGraph{
		Comm:    c,
		Ncon:    g.Ncon,
		VtxDist: vd,
		Xadj:    make([]int32, nlocal+1),
		Vwgt:    make([]int32, nlocal*g.Ncon),
	}
	copy(dg.Vwgt, g.Vwgt[int(first)*g.Ncon:int(last)*g.Ncon])

	nedges := int(g.Xadj[last] - g.Xadj[first])
	dg.Adjncy = make([]int32, 0, nedges)
	dg.Adjwgt = make([]int32, 0, nedges)
	ghostIdx := make(map[int32]int32)
	for v := first; v < last; v++ {
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			var l int32
			if u >= first && u < last {
				l = u - first
			} else {
				slot, ok := ghostIdx[u]
				if !ok {
					slot = int32(len(dg.GhostGlobal))
					ghostIdx[u] = slot
					dg.GhostGlobal = append(dg.GhostGlobal, u)
				}
				l = int32(nlocal) + slot
			}
			dg.Adjncy = append(dg.Adjncy, l)
			dg.Adjwgt = append(dg.Adjwgt, wgt[i])
		}
		dg.Xadj[v-first+1] = int32(len(dg.Adjncy))
	}
	dg.ghostIdx = ghostIdx
	dg.buildExchangeLists()
	return dg
}

// buildExchangeLists derives RecvLists from the ghost table and negotiates
// SendLists with the owners (one all-to-all).
func (dg *DGraph) buildExchangeLists() {
	p := dg.Comm.Size()
	dg.RecvLists = make([][]int32, p)
	for slot, gid := range dg.GhostGlobal {
		r := dg.Owner(gid)
		dg.RecvLists[r] = append(dg.RecvLists[r], int32(slot))
	}
	// Tell each owner which of its vertices we need, as global ids.
	req := make([][]int32, p)
	for r := 0; r < p; r++ {
		req[r] = make([]int32, len(dg.RecvLists[r]))
		for i, slot := range dg.RecvLists[r] {
			req[r][i] = dg.GhostGlobal[slot]
		}
	}
	resp := dg.Comm.AlltoallvI32(req)
	dg.SendLists = make([][]int32, p)
	first := dg.First()
	for r := 0; r < p; r++ {
		dg.SendLists[r] = make([]int32, len(resp[r]))
		for i, gid := range resp[r] {
			dg.SendLists[r][i] = gid - first
		}
	}
	dg.Comm.Work(dg.NGhost() * 2)
}

// ExchangeGhostsI32 refreshes ghost values: local holds one int32 per owned
// vertex; ghost (length NGhost) receives the owners' current values. The
// slices must not alias.
func (dg *DGraph) ExchangeGhostsI32(local, ghost []int32) {
	p := dg.Comm.Size()
	send := make([][]int32, p)
	for r := 0; r < p; r++ {
		if len(dg.SendLists[r]) == 0 {
			continue
		}
		buf := make([]int32, len(dg.SendLists[r]))
		for i, l := range dg.SendLists[r] {
			buf[i] = local[l]
		}
		send[r] = buf
	}
	recv := dg.Comm.AlltoallvI32(send)
	for r := 0; r < p; r++ {
		for i, slot := range dg.RecvLists[r] {
			ghost[slot] = recv[r][i]
		}
	}
	dg.Comm.Work(dg.NGhost())
}

// FetchByGlobal looks up values held by other ranks: for each global id in
// gids, the owning rank's entry of its per-owned-vertex array `local` is
// returned. One request/response all-to-all pair.
func (dg *DGraph) FetchByGlobal(gids []int32, local []int32) []int32 {
	p := dg.Comm.Size()
	req := make([][]int32, p)
	reqPos := make([][]int32, p) // position of each request in the output
	for i, gid := range gids {
		r := dg.Owner(gid)
		req[r] = append(req[r], gid)
		reqPos[r] = append(reqPos[r], int32(i))
	}
	got := dg.Comm.AlltoallvI32(req)
	// Serve the requests we received.
	resp := make([][]int32, p)
	first := dg.First()
	for r := 0; r < p; r++ {
		if len(got[r]) == 0 {
			continue
		}
		buf := make([]int32, len(got[r]))
		for i, gid := range got[r] {
			buf[i] = local[gid-first]
		}
		resp[r] = buf
	}
	back := dg.Comm.AlltoallvI32(resp)
	out := make([]int32, len(gids))
	for r := 0; r < p; r++ {
		for i, pos := range reqPos[r] {
			out[pos] = back[r][i]
		}
	}
	dg.Comm.Work(len(gids) * 2)
	return out
}

// Gather reconstructs the full serial graph (with global ids) on every
// rank. Used to hand the coarsest graph to the initial-partitioning phase.
func (dg *DGraph) Gather() *graph.Graph {
	// Serialize the local share: per owned vertex, [ncon vwgts, degree,
	// (global neighbor, weight)*].
	var buf []int32
	nlocal := dg.NLocal()
	for v := 0; v < nlocal; v++ {
		buf = append(buf, dg.Vwgt[v*dg.Ncon:(v+1)*dg.Ncon]...)
		start, end := dg.Xadj[v], dg.Xadj[v+1]
		buf = append(buf, end-start)
		for e := start; e < end; e++ {
			buf = append(buf, dg.ToGlobal(dg.Adjncy[e]), dg.Adjwgt[e])
		}
	}
	all, _ := dg.Comm.AllgathervI32(buf)
	dg.Comm.Work(len(all))

	n := dg.GlobalN()
	xadj := make([]int32, n+1)
	vwgt := make([]int32, n*dg.Ncon)
	// First pass: degrees.
	pos, v := 0, 0
	for v = 0; v < n; v++ {
		copy(vwgt[v*dg.Ncon:(v+1)*dg.Ncon], all[pos:pos+dg.Ncon])
		pos += dg.Ncon
		deg := int(all[pos])
		pos++
		xadj[v+1] = xadj[v] + int32(deg)
		pos += 2 * deg
	}
	adjncy := make([]int32, xadj[n])
	adjwgt := make([]int32, xadj[n])
	pos = 0
	for v = 0; v < n; v++ {
		pos += dg.Ncon
		deg := int(all[pos])
		pos++
		base := int(xadj[v])
		for i := 0; i < deg; i++ {
			adjncy[base+i] = all[pos]
			adjwgt[base+i] = all[pos+1]
			pos += 2
		}
	}
	return &graph.Graph{Ncon: dg.Ncon, Xadj: xadj, Adjncy: adjncy, Adjwgt: adjwgt, Vwgt: vwgt}
}

// TotalVertexWeight returns the global per-constraint weight totals
// (collective: every rank must call it).
func (dg *DGraph) TotalVertexWeight() []int64 {
	m := dg.Ncon
	tot := make([]int64, m)
	for v := 0; v < dg.NLocal(); v++ {
		for c, w := range dg.Vwgt[v*m : (v+1)*m] {
			tot[c] += int64(w)
		}
	}
	dg.Comm.AllreduceSumI64(tot)
	return tot
}

// SortAdjacency sorts each owned vertex's adjacency by neighbor local
// index. Not required by the algorithms; used by tests for comparisons.
func (dg *DGraph) SortAdjacency() {
	for v := 0; v < dg.NLocal(); v++ {
		start, end := dg.Xadj[v], dg.Xadj[v+1]
		idx := dg.Adjncy[start:end]
		w := dg.Adjwgt[start:end]
		sort.Sort(&adjSorter{idx, w})
	}
}

type adjSorter struct {
	idx []int32
	w   []int32
}

func (s *adjSorter) Len() int           { return len(s.idx) }
func (s *adjSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *adjSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}
