// External test package: internal/coarsen imports check for the mcdebug
// cluster-cap invariant, so an in-package test importing coarsen would be
// an import cycle.
package check_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.Type1(gen.MRNGLike(8, 8, 8, 3), 2, 9)
	if err := g.Validate(); err != nil {
		t.Fatalf("generator produced invalid graph: %v", err)
	}
	return g
}

func TestVerifyCoarseningAcceptsRealContraction(t *testing.T) {
	g := testGraph(t)
	levels, _ := coarsen.BuildHierarchy(g, 100, rng.New(1), coarsen.Options{})
	if len(levels) < 2 {
		t.Fatal("no coarsening happened")
	}
	for lvl := 1; lvl < len(levels); lvl++ {
		fine, coarse, cmap := levels[lvl-1].Graph, levels[lvl].Graph, levels[lvl].CMap
		if err := check.VerifyCoarsening(fine, coarse, cmap); err != nil {
			t.Errorf("level %d: %v", lvl, err)
		}
	}
}

func TestVerifyCoarseningCatches(t *testing.T) {
	g := testGraph(t)
	levels, _ := coarsen.BuildHierarchy(g, 100, rng.New(1), coarsen.Options{})
	fine, coarse, cmap := levels[0].Graph, levels[1].Graph, levels[1].CMap

	for _, tc := range []struct {
		name   string
		mutate func(coarse *graph.Graph, cmap []int32)
		want   string
	}{
		{
			name:   "short cmap",
			mutate: func(_ *graph.Graph, cmap []int32) {},
			want:   "len(cmap)",
		},
		{
			name:   "cmap out of range",
			mutate: func(coarse *graph.Graph, cmap []int32) { cmap[0] = int32(coarse.NumVertices()) },
			want:   "out of",
		},
		{
			name:   "vertex weight not conserved",
			mutate: func(coarse *graph.Graph, _ []int32) { coarse.Vwgt[0]++ },
			want:   "weight",
		},
		{
			name: "edge weight not conserved",
			// +2 because TotalEdgeWeight halves the directed sum: a lone +1
			// vanishes in the truncation.
			mutate: func(coarse *graph.Graph, _ []int32) { coarse.Adjwgt[0] += 2 },
			want:   "edge weight not conserved",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := *coarse
			cc.Vwgt = append([]int32(nil), coarse.Vwgt...)
			cc.Adjwgt = append([]int32(nil), coarse.Adjwgt...)
			cm := append([]int32(nil), cmap...)
			if tc.name == "short cmap" {
				cm = cm[:len(cm)-1]
			}
			tc.mutate(&cc, cm)
			err := check.VerifyCoarsening(fine, &cc, cm)
			if err == nil {
				t.Fatal("mutated contraction passed verification")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestVerifyPartition(t *testing.T) {
	g := testGraph(t)
	const k = 4
	part := make([]int32, g.NumVertices())
	for v := range part {
		part[v] = int32(v % k)
	}
	cut := metrics.EdgeCut(g, part)
	pwgts := metrics.PartWeights(g, part, k)

	if err := check.VerifyPartition(g, part, k, cut, pwgts); err != nil {
		t.Errorf("consistent aggregates rejected: %v", err)
	}
	if err := check.VerifyPartition(g, part, k, -1, nil); err != nil {
		t.Errorf("aggregate checks not skippable: %v", err)
	}
	if err := check.VerifyPartition(g, part, k, cut+1, pwgts); err == nil {
		t.Error("stale incremental cut passed verification")
	}
	bad := append([]int64(nil), pwgts...)
	bad[0]++
	if err := check.VerifyPartition(g, part, k, cut, bad); err == nil {
		t.Error("stale subdomain weights passed verification")
	}
	part[0] = k
	if err := check.VerifyPartition(g, part, k, -1, nil); err == nil {
		t.Error("out-of-range label passed verification")
	}
}

func TestVerifyMatchingAcceptsRealMatching(t *testing.T) {
	g := testGraph(t)
	for _, maxW := range []int64{0, 50} {
		match := coarsen.Match(g, rng.New(4), coarsen.Options{BalancedEdge: true, MaxVertexWeight: maxW})
		if err := check.VerifyMatching(g, match, maxW); err != nil {
			t.Errorf("maxW=%d: real matching rejected: %v", maxW, err)
		}
	}
}

func TestVerifyMatchingCatches(t *testing.T) {
	g := testGraph(t)
	match := coarsen.Match(g, rng.New(4), coarsen.Options{BalancedEdge: true})
	// Find a matched pair to corrupt.
	pair := int32(-1)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if match[v] > v {
			pair = v
			break
		}
	}
	if pair < 0 {
		t.Fatal("matching matched nothing")
	}

	cases := []struct {
		name    string
		corrupt func(m []int32)
		maxW    int64
		wantSub string
	}{
		{"out-of-range", func(m []int32) { m[pair] = int32(g.NumVertices()) }, 0, "out of"},
		{"not-involution", func(m []int32) { m[match[pair]] = match[pair] }, 0, "involution"},
		{"non-edge", func(m []int32) {
			// Match pair with a vertex it has no edge to: its own mate's
			// mate chain is broken too, so fix both ends to isolate the
			// non-edge condition. Vertex (pair+2)%n is almost surely not
			// adjacent in a mesh; search for a genuine non-neighbor.
			n := int32(g.NumVertices())
			for u := int32(0); u < n; u++ {
				if u == pair || u == match[pair] {
					continue
				}
				adj, _ := g.Neighbors(pair)
				isAdj := false
				for _, w := range adj {
					if w == u {
						isAdj = true
						break
					}
				}
				if !isAdj {
					old := m[u]
					if old != u {
						m[old] = old // detach u's mate cleanly
					}
					m[match[pair]] = match[pair]
					m[pair], m[u] = u, pair
					return
				}
			}
		}, 0, "not an edge"},
		{"cap-violation", func(m []int32) {}, 1, "exceeds cap"},
	}
	for _, tc := range cases {
		m := make([]int32, len(match))
		copy(m, match)
		tc.corrupt(m)
		err := check.VerifyMatching(g, m, tc.maxW)
		if err == nil {
			t.Errorf("%s: corruption not caught", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestVerifyGainCacheGate derives consistent gain-cache tables for a round-
// robin partition, then checks that a flipped candidate gate and a wrong
// candidate count are each caught.
func TestVerifyGainCacheGate(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	part := make([]int32, n)
	for v := range part {
		part[v] = int32(v % 4)
	}
	id, ed := make([]int64, n), make([]int64, n)
	nfr, bndptr := make([]int32, n), make([]int32, n)
	gate := make([]bool, n)
	var bnd []int32
	candidates := 0
	for v := int32(0); int(v) < n; v++ {
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if part[u] == part[v] {
				id[v] += int64(wgt[i])
			} else {
				ed[v] += int64(wgt[i])
				nfr[v]++
			}
		}
		bndptr[v] = -1
		if nfr[v] > 0 {
			bndptr[v] = int32(len(bnd))
			bnd = append(bnd, v)
		}
		if gate[v] = nfr[v] > 0 && ed[v] >= id[v]; gate[v] {
			candidates++
		}
	}
	if err := check.VerifyGainCache(g, part, id, ed, nfr, bnd, bndptr, gate, candidates); err != nil {
		t.Fatalf("consistent tables rejected: %v", err)
	}
	if err := check.VerifyGainCache(g, part, id, ed, nfr, bnd, bndptr, gate, candidates+1); err == nil ||
		!strings.Contains(err.Error(), "candidate count") {
		t.Errorf("wrong candidate count: got %v", err)
	}
	gate[bnd[0]] = !gate[bnd[0]]
	if err := check.VerifyGainCache(g, part, id, ed, nfr, bnd, bndptr, gate, candidates); err == nil ||
		!strings.Contains(err.Error(), "candidate gate") {
		t.Errorf("flipped gate: got %v", err)
	}
}

// TestVerifyDegreeCache derives a consistent parallel-refiner degree cache
// for one simulated rank that owns the first half of a graph's vertices
// (adjacency entries into the second half act as ghosts), then checks that
// a corrupted entry and a stale ghost label are each caught.
func TestVerifyDegreeCache(t *testing.T) {
	g := testGraph(t)
	nlocal := g.NumVertices() / 2
	labels := make([]int32, g.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 4)
	}
	part, ghostPart := labels[:nlocal], append([]int32(nil), labels[nlocal:]...)
	xadj := g.Xadj[:nlocal+1]
	id, ed := make([]int64, nlocal), make([]int64, nlocal)
	nfr := make([]int32, nlocal)
	for v := 0; v < nlocal; v++ {
		for e := xadj[v]; e < xadj[v+1]; e++ {
			if labels[g.Adjncy[e]] == part[v] {
				id[v] += int64(g.Adjwgt[e])
			} else {
				ed[v] += int64(g.Adjwgt[e])
				nfr[v]++
			}
		}
	}
	if err := check.VerifyDegreeCache(xadj, g.Adjncy, g.Adjwgt, part, ghostPart, id, ed, nfr); err != nil {
		t.Fatalf("consistent cache rejected: %v", err)
	}
	ed[nlocal/3]++
	if err := check.VerifyDegreeCache(xadj, g.Adjncy, g.Adjwgt, part, ghostPart, id, ed, nfr); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("owned vertex %d ", nlocal/3)) {
		t.Errorf("corrupted ed: got %v", err)
	}
	ed[nlocal/3]--
	// Relabel a ghost neighbor of some owned vertex v across v's own
	// label without applying the change to v's entry.
relabel:
	for v := 0; v < nlocal; v++ {
		for e := xadj[v]; e < xadj[v+1]; e++ {
			if slot := int(g.Adjncy[e]) - nlocal; slot >= 0 {
				if ghostPart[slot] == part[v] {
					ghostPart[slot] = (part[v] + 1) % 4
				} else {
					ghostPart[slot] = part[v]
				}
				break relabel
			}
		}
	}
	if err := check.VerifyDegreeCache(xadj, g.Adjncy, g.Adjwgt, part, ghostPart, id, ed, nfr); err == nil ||
		!strings.Contains(err.Error(), "scratch re-derivation") {
		t.Errorf("stale ghost label: got %v", err)
	}
}
