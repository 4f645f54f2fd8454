// Package check is the runtime invariant checker for the multilevel
// pipelines. The exported Graph/Coarsening/Partition helpers are no-ops
// unless the build carries the mcdebug tag (go test -tags mcdebug); with
// the tag they verify, at every level boundary of the serial and parallel
// partitioners, the structural invariants the algorithms rely on and panic
// with a located message on the first violation.
//
// The Verify* functions hold the actual logic and are plain functions
// returning errors, so they are unit-testable (and usable by tests) in any
// build configuration. Callers in hot paths must gate both the wrappers
// and any argument preparation on check.Enabled so release builds
// dead-code-eliminate the whole block:
//
//	if check.Enabled {
//		check.Coarsening("coarsen: level 3", fine, coarse, cmap)
//	}
package check

import (
	"fmt"

	"repro/internal/gaincache"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// VerifyGraph checks the structural CSR invariants: monotone xadj,
// in-range neighbor indices, no self-loops, symmetric adjacency with equal
// weights, non-negative weights.
func VerifyGraph(g *graph.Graph) error {
	return g.Validate()
}

// VerifyCoarsening checks that coarse is a contraction of fine under cmap:
// cmap is a total onto map into the coarse vertex range, every coarse
// vertex weight vector is the sum of its fine preimage's vectors, and
// total edge weight is conserved (fine total = coarse total + weight
// collapsed inside coarse vertices).
func VerifyCoarsening(fine, coarse *graph.Graph, cmap []int32) error {
	nf, nc := fine.NumVertices(), coarse.NumVertices()
	m := fine.Ncon
	if coarse.Ncon != m {
		return fmt.Errorf("check: coarse has %d constraints, fine has %d", coarse.Ncon, m)
	}
	if len(cmap) != nf {
		return fmt.Errorf("check: len(cmap) = %d, want %d fine vertices", len(cmap), nf)
	}

	// Vertex weight conservation per coarse vertex, and cmap range. Sums are
	// int64: a coarse vertex may aggregate arbitrarily many int32 weights.
	sums := make([]int64, nc*m)
	for v := 0; v < nf; v++ {
		cv := cmap[v]
		if cv < 0 || int(cv) >= nc {
			return fmt.Errorf("check: cmap[%d] = %d out of [0,%d)", v, cv, nc)
		}
		for c := 0; c < m; c++ {
			sums[int(cv)*m+c] += int64(fine.Vwgt[v*m+c])
		}
	}
	for cv := 0; cv < nc; cv++ {
		for c := 0; c < m; c++ {
			if got, want := int64(coarse.Vwgt[cv*m+c]), sums[cv*m+c]; got != want {
				return fmt.Errorf("check: coarse vertex %d constraint %d weight %d, want sum of fine weights %d", cv, c, got, want)
			}
		}
	}

	// Edge weight conservation: each fine edge either survives (merged into
	// a coarse edge) or collapses inside a coarse vertex.
	var collapsed2 int64 // twice the collapsed weight (both directions)
	for v := int32(0); int(v) < nf; v++ {
		adj, wgt := fine.Neighbors(v)
		for i, u := range adj {
			if cmap[v] == cmap[u] {
				collapsed2 += int64(wgt[i])
			}
		}
	}
	ft, ct := fine.TotalEdgeWeight(), coarse.TotalEdgeWeight()
	if ft != ct+collapsed2/2 {
		return fmt.Errorf("check: edge weight not conserved: fine %d, coarse %d + collapsed %d", ft, ct, collapsed2/2)
	}
	return nil
}

// VerifyMatching checks that match is a valid capped matching of g: every
// entry is a vertex id in range, the map is an involution (match[match[v]]
// == v, with match[v] == v marking an unmatched vertex), matched pairs are
// actual edges of g, and — when maxW is positive — every pair's combined
// weight respects the matcher's scalar per-component cap (coarsen.Options.
// MaxVertexWeight) in each of the Ncon constraints.
func VerifyMatching(g *graph.Graph, match []int32, maxW int64) error {
	n := g.NumVertices()
	m := g.Ncon
	if len(match) != n {
		return fmt.Errorf("check: len(match) = %d, want %d vertices", len(match), n)
	}
	for v := int32(0); int(v) < n; v++ {
		u := match[v]
		if u < 0 || int(u) >= n {
			return fmt.Errorf("check: match[%d] = %d out of [0,%d)", v, u, n)
		}
		if match[u] != v {
			return fmt.Errorf("check: match[%d] = %d but match[%d] = %d (not an involution)", v, u, u, match[u])
		}
		if u == v || u < v {
			continue // unmatched, or pair already checked from the lower id
		}
		adj, _ := g.Neighbors(v)
		edge := false
		for _, w := range adj {
			if w == u {
				edge = true
				break
			}
		}
		if !edge {
			return fmt.Errorf("check: matched pair (%d,%d) is not an edge", v, u)
		}
		if maxW <= 0 {
			continue
		}
		vw, uw := g.VertexWeight(v), g.VertexWeight(u)
		for c := 0; c < m; c++ {
			if int64(vw[c])+int64(uw[c]) > maxW {
				return fmt.Errorf("check: matched pair (%d,%d) constraint %d combined weight %d exceeds cap %d",
					v, u, c, int64(vw[c])+int64(uw[c]), maxW)
			}
		}
	}
	return nil
}

// VerifyClusterCaps checks the size-constrained label-propagation
// invariant: under cluster map cmap (dense ids in [0, nc)), every cluster
// with two or more members keeps its summed weight vector at or under caps
// in every constraint. Singleton clusters are exempt — a vertex heavier
// than the cap is legal input and simply never merges.
func VerifyClusterCaps(g *graph.Graph, cmap []int32, nc int, caps []int64) error {
	n := g.NumVertices()
	m := g.Ncon
	if len(cmap) != n {
		return fmt.Errorf("check: len(cmap) = %d, want %d vertices", len(cmap), n)
	}
	if len(caps) != m {
		return fmt.Errorf("check: len(caps) = %d, want %d constraints", len(caps), m)
	}
	sums := make([]int64, nc*m)
	members := make([]int32, nc)
	for v := 0; v < n; v++ {
		cv := cmap[v]
		if cv < 0 || int(cv) >= nc {
			return fmt.Errorf("check: cmap[%d] = %d out of [0,%d)", v, cv, nc)
		}
		members[cv]++
		for c := 0; c < m; c++ {
			sums[int(cv)*m+c] += int64(g.Vwgt[v*m+c])
		}
	}
	for cv := 0; cv < nc; cv++ {
		if members[cv] == 0 {
			return fmt.Errorf("check: cluster %d has no members (cmap not onto)", cv)
		}
		if members[cv] < 2 {
			continue
		}
		for c := 0; c < m; c++ {
			if sums[cv*m+c] > caps[c] {
				return fmt.Errorf("check: cluster %d (%d members) constraint %d weight %d exceeds cap %d",
					cv, members[cv], c, sums[cv*m+c], caps[c])
			}
		}
	}
	return nil
}

// VerifyBoundary checks a refiner's boundary state against a from-scratch
// re-derivation from its CSR and its labels, owned vertices first and
// ghosts after them. For every owned vertex, id/ed must equal the summed
// edge weight to same-/other-subdomain neighbors and nfr the foreign-neighbor
// count, and the boundary count must count the vertices with nfr > 0. The
// row bound maxRow must be sound: at least the heaviest per-subdomain row a
// scan derives, ghost neighbors included, and at most ed. When gate is
// non-nil, the serial refiner's candidate gate must be set exactly for the
// boundary vertices with maxRow >= id, candidates must count them, and a
// nonzero rejection mask rej[v] must have bit b&63 set for every subdomain b
// whose row reaches id[v].
func VerifyBoundary(s *gaincache.State, rej []uint64, gate []bool, candidates int) error {
	n := len(s.Xadj) - 1
	if len(s.ID) != n || len(s.ED) != n || len(s.MaxRow) != n || len(s.Nfr) != n || len(s.Labels) < n {
		return fmt.Errorf("check: boundary-state lengths id %d, ed %d, maxRow %d, nfr %d, labels %d, want %d owned vertices",
			len(s.ID), len(s.ED), len(s.MaxRow), len(s.Nfr), len(s.Labels), n)
	}
	if gate != nil && (len(gate) != n || len(rej) != n) {
		return fmt.Errorf("check: gate and mask lengths %d/%d, want %d", len(gate), len(rej), n)
	}
	gated, onBoundary := 0, 0
	rows := map[int32]int64{}
	for v := 0; v < n; v++ {
		a := s.Labels[v]
		var wantID, wantED, heaviest int64
		wantNfr := int32(0)
		clear(rows)
		for e := s.Xadj[v]; e < s.Xadj[v+1]; e++ {
			w := int64(s.Adjwgt[e])
			if b := s.Labels[s.Adjncy[e]]; b == a {
				wantID += w
			} else {
				wantED += w
				wantNfr++
				rows[b] += w
				heaviest = max(heaviest, rows[b])
			}
		}
		if s.ID[v] != wantID {
			return fmt.Errorf("check: cached id[%d] = %d, scratch re-derivation %d", v, s.ID[v], wantID)
		}
		if s.ED[v] != wantED {
			return fmt.Errorf("check: cached ed[%d] = %d, scratch re-derivation %d", v, s.ED[v], wantED)
		}
		if s.Nfr[v] != wantNfr {
			return fmt.Errorf("check: cached nfr[%d] = %d, scratch re-derivation %d", v, s.Nfr[v], wantNfr)
		}
		if wantNfr > 0 {
			onBoundary++
		}
		if s.MaxRow[v] < heaviest || s.MaxRow[v] > wantED {
			return fmt.Errorf("check: vertex %d row bound %d outside [heaviest row %d, ed %d]",
				v, s.MaxRow[v], heaviest, wantED)
		}
		if gate == nil {
			continue
		}
		if want := wantNfr > 0 && s.MaxRow[v] >= wantID; gate[v] != want {
			return fmt.Errorf("check: vertex %d candidate gate %v, scratch re-derivation %v (nfr %d, row bound %d, id %d)",
				v, gate[v], want, wantNfr, s.MaxRow[v], wantID)
		}
		if gate[v] {
			gated++
		}
		if rej[v] == 0 {
			continue
		}
		for e := s.Xadj[v]; e < s.Xadj[v+1]; e++ {
			if b := s.Labels[s.Adjncy[e]]; b != a && rows[b] >= wantID && rej[v]&(1<<(b&63)) == 0 {
				return fmt.Errorf("check: vertex %d rejection mask %#x misses subdomain %d, whose row %d reaches id %d",
					v, rej[v], b, rows[b], wantID)
			}
		}
	}
	if s.Boundary != onBoundary {
		return fmt.Errorf("check: running boundary count %d, scratch recount %d", s.Boundary, onBoundary)
	}
	if gate != nil && candidates != gated {
		return fmt.Errorf("check: running candidate count %d, scratch recount %d", candidates, gated)
	}
	return nil
}

// VerifyPartition checks that part is a valid k-way partitioning of g and,
// when the caller supplies them, that the partitioner's incrementally
// maintained aggregates agree with a from-scratch recomputation: wantCut
// (ignored when < 0) against metrics.EdgeCut, and wantPwgts (ignored when
// nil, else length k*Ncon) against metrics.PartWeights.
func VerifyPartition(g *graph.Graph, part []int32, k int, wantCut int64, wantPwgts []int64) error {
	if err := metrics.CheckPartition(g, part, k); err != nil {
		return err
	}
	if wantCut >= 0 {
		if cut := metrics.EdgeCut(g, part); cut != wantCut {
			return fmt.Errorf("check: incremental cut %d, scratch recomputation %d", wantCut, cut)
		}
	}
	if wantPwgts != nil {
		pwgts := metrics.PartWeights(g, part, k)
		if len(wantPwgts) != len(pwgts) {
			return fmt.Errorf("check: len(pwgts) = %d, want %d", len(wantPwgts), len(pwgts))
		}
		for i := range pwgts {
			if pwgts[i] != wantPwgts[i] {
				return fmt.Errorf("check: subdomain %d constraint %d weight %d, scratch recomputation %d",
					i/g.Ncon, i%g.Ncon, wantPwgts[i], pwgts[i])
			}
		}
	}
	return nil
}
