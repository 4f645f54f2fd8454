package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func mustTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 3)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := mustTriangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle: %v", g)
	}
	if g.TotalEdgeWeight() != 6 {
		t.Errorf("TotalEdgeWeight = %d, want 6", g.TotalEdgeWeight())
	}
	if got := g.TotalVertexWeight(); got[0] != 3 {
		t.Errorf("TotalVertexWeight = %v", got)
	}
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d", g.Degree(0))
	}
}

func TestBuilderMergesDuplicateEdges(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 4) // same edge, reversed
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edges not merged: %d", g.NumEdges())
	}
	if _, wgt := g.Neighbors(0); wgt[0] != 5 {
		t.Errorf("merged weight = %d, want 5", wgt[0])
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	// want is a substring the error must contain.
	cases := map[string]struct {
		n    int
		add  func(b *Builder)
		want string
	}{
		"self-loop":       {3, func(b *Builder) { b.AddEdge(1, 1, 1) }, "self-loop"},
		"negative weight": {3, func(b *Builder) { b.AddEdge(0, 1, -1) }, "negative weight"},
		"out of range":    {3, func(b *Builder) { b.AddEdge(0, 9, 1) }, "out of range"},
		"summed weight past int32": {2, func(b *Builder) {
			for i := 0; i < 3; i++ {
				b.AddEdge(0, 1, math.MaxInt32)
			}
		}, "repeated edge (0,1)"},
	}
	for name, c := range cases {
		b := NewBuilder(c.n, 1)
		c.add(b)
		if _, err := b.Finish(); err == nil {
			t.Errorf("%s: want error", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, c.want)
		}
	}
}

func TestBuilderZeroWeightEdgeAllowed(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddEdge(0, 1, 0)
	if _, err := b.Finish(); err != nil {
		t.Fatalf("zero-weight edge should be legal (Type 2 workloads): %v", err)
	}
}

func TestVertexWeightVectors(t *testing.T) {
	b := NewBuilder(2, 3)
	b.SetVertexWeight(0, []int32{1, 2, 3})
	b.AddEdge(0, 1, 1)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if w := g.VertexWeight(0); w[0] != 1 || w[1] != 2 || w[2] != 3 {
		t.Errorf("VertexWeight(0) = %v", w)
	}
	if w := g.VertexWeight(1); w[0] != 1 || w[1] != 1 || w[2] != 1 {
		t.Errorf("default weight = %v, want all 1", w)
	}
	tot := g.TotalVertexWeight()
	if tot[0] != 2 || tot[1] != 3 || tot[2] != 4 {
		t.Errorf("totals = %v", tot)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustTriangle(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Asymmetric weight.
	g2 := g.Clone()
	g2.Adjwgt[0] += 7
	if err := g2.Validate(); err == nil {
		t.Error("asymmetric weight not caught")
	}
	// Out-of-range neighbor.
	g3 := g.Clone()
	g3.Adjncy[0] = 99
	if err := g3.Validate(); err == nil {
		t.Error("out-of-range neighbor not caught")
	}
	// Self-loop.
	g4 := g.Clone()
	g4.Adjncy[0] = 0
	if err := g4.Validate(); err == nil {
		t.Error("self-loop not caught")
	}
	// Bad Ncon.
	g5 := g.Clone()
	g5.Ncon = 0
	if err := g5.Validate(); err == nil {
		t.Error("bad Ncon not caught")
	}
}

// star returns a star with the hub last, so every leaf's reverse-edge
// lookup searches the hub's list before the hub's own list is checked.
func star(t testing.TB, leaves int) *Graph {
	t.Helper()
	b := NewBuilder(leaves+1, 1)
	for v := 0; v < leaves; v++ {
		b.AddEdge(int32(v), int32(leaves), 1)
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dropHubEntry returns a copy of the star g without the hub's entry for
// leaf, so (leaf, hub) is present but (hub, leaf) is missing.
func dropHubEntry(g *Graph, leaf int32) *Graph {
	hub := int32(g.NumVertices() - 1)
	adj, _ := g.Neighbors(hub)
	at := int(g.Xadj[hub]) + slices.Index(adj, leaf)
	c := g.Clone()
	c.Adjncy = append(c.Adjncy[:at], c.Adjncy[at+1:]...)
	c.Adjwgt = append(c.Adjwgt[:at], c.Adjwgt[at+1:]...)
	c.Xadj[hub+1]--
	return c
}

// TestValidateStar covers validation of a hub: a star whose hub lists
// 200,000 leaves validates (a scan per reverse edge would cost 2·10¹⁰
// steps), and a missing or reweighted reverse edge is reported with the
// same first violation and text whether the hub's list is sorted (binary
// search) or not (scan).
func TestValidateStar(t *testing.T) {
	const leaves, bad = 200_000, 123_456
	g := star(t, leaves)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	hub := int32(leaves)
	missing := dropHubEntry(g, bad)
	want := fmt.Sprintf("graph: edge (%d,%d) present but (%d,%d) missing", bad, hub, hub, bad)
	if err := missing.Validate(); err == nil || err.Error() != want {
		t.Errorf("missing reverse edge: err = %v, want %q", err, want)
	}
	reweighted := g.Clone()
	reweighted.Adjwgt[reweighted.Xadj[hub]+bad] = 5
	want = fmt.Sprintf("graph: edge (%d,%d) weight 1 != reverse weight 5", bad, hub)
	if err := reweighted.Validate(); err == nil || err.Error() != want {
		t.Errorf("reweighted reverse edge: err = %v, want %q", err, want)
	}

	// A small star with the hub's list reversed takes the scan.
	const small, smallBad = 2_000, 1_234
	s := star(t, small)
	reverseHub := func(g *Graph) *Graph {
		c := g.Clone()
		hub := int32(c.NumVertices() - 1)
		adj, wgt := c.Neighbors(hub)
		slices.Reverse(adj)
		slices.Reverse(wgt)
		return c
	}
	if err := reverseHub(s).Validate(); err != nil {
		t.Fatalf("unsorted hub list: %v", err)
	}
	// Out of order only at its end: the order check reads the whole list.
	swapped := s.Clone()
	adj, _ := swapped.Neighbors(small)
	adj[small-2], adj[small-1] = adj[small-1], adj[small-2]
	if err := swapped.Validate(); err != nil {
		t.Fatalf("hub list with its last two entries swapped: %v", err)
	}
	sortedErr := dropHubEntry(s, smallBad).Validate()
	scanErr := dropHubEntry(reverseHub(s), smallBad).Validate()
	if sortedErr == nil || scanErr == nil || sortedErr.Error() != scanErr.Error() {
		t.Errorf("sorted and unsorted hub lists report differently: %v vs %v", sortedErr, scanErr)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := mustTriangle(t)
	c := g.Clone()
	c.Vwgt[0] = 99
	c.Adjwgt[0] = 99
	if g.Vwgt[0] == 99 || g.Adjwgt[0] == 99 {
		t.Error("Clone shares storage with the original")
	}
}

// TestRandomGraphsValidate builds random graphs through the Builder and
// checks the CSR invariants always hold.
func TestRandomGraphsValidate(t *testing.T) {
	r := rng.New(5)
	err := quick.Check(func(seed uint16) bool {
		n := 2 + int(seed)%50
		b := NewBuilder(n, 1+int(seed)%3)
		edges := n * 2
		for i := 0; i < edges; i++ {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, int32(r.Intn(9)))
			}
		}
		g, err := b.Finish()
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestBFSOrderCoversComponent(t *testing.T) {
	g := mustTriangle(t)
	order := g.BFSOrder(1)
	if len(order) != 3 || order[0] != 1 {
		t.Fatalf("BFSOrder = %v", order)
	}
}

func TestComponents(t *testing.T) {
	// Two triangles, disconnected.
	b := NewBuilder(6, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.Components()
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[5] || labels[0] == labels[3] {
		t.Errorf("labels = %v", labels)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := mustTriangle(t)
	sub, remap := g.InducedSubgraph([]bool{true, true, false})
	if sub.NumVertices() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("subgraph: %v", sub)
	}
	if remap[2] != -1 || remap[0] != 0 || remap[1] != 1 {
		t.Errorf("remap = %v", remap)
	}
	if _, wgt := sub.Neighbors(0); wgt[0] != 1 {
		t.Errorf("subgraph edge weight = %d, want 1", wgt[0])
	}
}

var validateSink error

// BenchmarkValidate times Validate on a mesh-like grid and on a star,
// whose hub's reverse-edge lookups dominate.
func BenchmarkValidate(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *Graph
	}{
		{"grid-500x500", mustGrid(b, 500, 500)},
		{"star-200k", star(b, 200_000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				validateSink = bc.g.Validate()
			}
		})
	}
}
