// External test package: internal/coarsen imports check for the mcdebug
// cluster-cap invariant, so an in-package test importing coarsen would be
// an import cycle.
package check_test

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/coarsen"
	"repro/internal/gaincache"
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

// ownedState derives, by its own scan, the boundary state of a refiner
// that owns the first nlocal vertices of g. An adjacency entry u >= nlocal
// is the ghost in slot u-nlocal, so the whole graph's labels are already
// owned-then-ghost. Each row bound is set to its vertex's external degree.
func ownedState(g *graph.Graph, nlocal int, labels []int32) *gaincache.State {
	s := &gaincache.State{
		Xadj: g.Xadj[:nlocal+1], Adjncy: g.Adjncy, Adjwgt: g.Adjwgt, Labels: labels,
		ID: make([]int64, nlocal), ED: make([]int64, nlocal), Nfr: make([]int32, nlocal),
	}
	for v := 0; v < nlocal; v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if labels[g.Adjncy[e]] == labels[v] {
				s.ID[v] += int64(g.Adjwgt[e])
			} else {
				s.ED[v] += int64(g.Adjwgt[e])
				s.Nfr[v]++
			}
		}
		if s.Nfr[v] > 0 {
			s.Boundary++
		}
	}
	s.MaxRow = append([]int64(nil), s.ED...)
	return s
}

// TestVerifyGainCacheGate derives a consistent serial boundary state (no
// ghosts) for a round-robin partition, with each vertex's row bound at its
// external degree, the candidate gates and a rejection mask on some
// boundary vertices, then checks that a flipped candidate gate, a wrong
// candidate count, a wrong boundary count, a row bound below the heaviest
// row, one above the external degree, and a stale mask that misses a row
// reaching the internal degree are each caught.
func TestVerifyGainCacheGate(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	part := make([]int32, n)
	for v := range part {
		part[v] = int32(v % 4)
	}
	st := ownedState(g, n, part)
	rej := make([]uint64, n)
	gate := make([]bool, n)
	candidates := 0
	masked := int32(-1) // a vertex whose mask holds exactly the rows reaching id
	for v := int32(0); int(v) < n; v++ {
		rows := make(map[int32]int64)
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if part[u] != part[v] {
				rows[part[u]] += int64(wgt[i])
			}
		}
		if gate[v] = st.Nfr[v] > 0 && st.MaxRow[v] >= st.ID[v]; gate[v] {
			candidates++
		}
		for _, u := range adj {
			if b := part[u]; b != part[v] && rows[b] >= st.ID[v] {
				rej[v] |= 1 << b
			}
		}
		if masked < 0 && rej[v] != 0 {
			masked = v
		}
	}
	if masked < 0 {
		t.Fatal("no vertex has a row reaching its internal degree")
	}
	if err := check.VerifyBoundary(st, rej, gate, candidates); err != nil {
		t.Fatalf("consistent tables rejected: %v", err)
	}
	if err := check.VerifyBoundary(st, rej, gate, candidates+1); err == nil ||
		!strings.Contains(err.Error(), "candidate count") {
		t.Errorf("wrong candidate count: got %v", err)
	}
	st.Boundary--
	if err := check.VerifyBoundary(st, rej, gate, candidates); err == nil ||
		!strings.Contains(err.Error(), "boundary count") {
		t.Errorf("wrong boundary count: got %v", err)
	}
	st.Boundary++
	v := masked
	ed := st.ED[v]
	for _, bound := range []int64{0, ed + 1} {
		st.MaxRow[v] = bound
		if err := check.VerifyBoundary(st, rej, gate, candidates); err == nil ||
			!strings.Contains(err.Error(), "row bound") {
			t.Errorf("row bound %d (ed %d): got %v", bound, ed, err)
		}
	}
	st.MaxRow[v] = ed
	gate[v] = !gate[v]
	if err := check.VerifyBoundary(st, rej, gate, candidates); err == nil ||
		!strings.Contains(err.Error(), "candidate gate") {
		t.Errorf("flipped gate: got %v", err)
	}
	gate[v] = !gate[v]
	// A stale mask: drop one reaching row's bit and keep another bit set,
	// so the mask stays nonzero (zero means unknown and is always sound).
	full := rej[v]
	low := full & -full
	rej[v] = full&^low | 1<<((bits.TrailingZeros64(low)+1)%4)
	if rej[v]&low != 0 {
		t.Fatalf("mask %#x still holds the dropped bit %#x", rej[v], low)
	}
	if err := check.VerifyBoundary(st, rej, gate, candidates); err == nil ||
		!strings.Contains(err.Error(), "rejection mask") {
		t.Errorf("stale mask %#x (rows reaching id %#x): got %v", rej[v], full, err)
	}
	rej[v] = 0
	if err := check.VerifyBoundary(st, rej, gate, candidates); err != nil {
		t.Errorf("zero mask rejected: %v", err)
	}
}

// TestVerifyDegreeCache derives a consistent boundary state for one
// simulated rank that owns the first half of a graph's vertices (adjacency
// entries into the second half act as ghosts) and checks it without gates,
// as the parallel refiner does. A corrupted entry, a stale ghost label, and
// a row bound below a row that only ghost neighbors make up are each
// caught.
func TestVerifyDegreeCache(t *testing.T) {
	g := testGraph(t)
	nlocal := g.NumVertices() / 2
	labels := make([]int32, g.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 4)
	}
	st := ownedState(g, nlocal, labels)
	if err := check.VerifyBoundary(st, nil, nil, 0); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	st.ED[nlocal/3]++
	if err := check.VerifyBoundary(st, nil, nil, 0); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("ed[%d] ", nlocal/3)) {
		t.Errorf("corrupted ed: got %v", err)
	}
	st.ED[nlocal/3]--
	// Relabel a ghost neighbor of some owned vertex v across v's own
	// label without applying the change to v's entry.
	ghosts := labels[nlocal:]
relabel:
	for v := 0; v < nlocal; v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if slot := int(g.Adjncy[e]) - nlocal; slot >= 0 {
				if ghosts[slot] == labels[v] {
					ghosts[slot] = (labels[v] + 1) % 4
				} else {
					ghosts[slot] = labels[v]
				}
				break relabel
			}
		}
	}
	if err := check.VerifyBoundary(st, nil, nil, 0); err == nil ||
		!strings.Contains(err.Error(), "scratch re-derivation") {
		t.Errorf("stale ghost label: got %v", err)
	}

	// The owned vertices in subdomain 0 and the ghosts in 1: a boundary
	// vertex's one row is made of ghosts alone, so a bound of 0 is below it
	// but at least every row of owned neighbors.
	for v := range labels {
		labels[v] = int32(v / nlocal)
	}
	st = ownedState(g, nlocal, labels)
	v := 0
	for v < nlocal && st.ED[v] == 0 {
		v++
	}
	if v == nlocal {
		t.Fatal("no owned vertex has a ghost neighbor")
	}
	st.MaxRow[v] = 0
	if err := check.VerifyBoundary(st, nil, nil, 0); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("vertex %d row bound 0 ", v)) {
		t.Errorf("row bound below a ghost-only row: got %v", err)
	}
}
