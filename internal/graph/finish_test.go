package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// builderInput is one set of Builder calls, replayed on a fresh builder
// for each implementation under test.
type builderInput struct {
	name  string
	n     int
	ncon  int
	vwgt  []int32 // n*ncon weights, or nil for the default
	edges []Edge
}

func (in builderInput) builder() *Builder {
	b := NewBuilder(in.n, in.ncon)
	if in.vwgt != nil {
		copy(b.vwgt, in.vwgt)
	}
	b.edges = append(b.edges, in.edges...)
	return b
}

// randomMultigraph adds both orientations of an edge, repeats and zero
// weights among the first active vertices; the rest stay isolated.
func randomMultigraph(r *rng.RNG, trial int) builderInput {
	n := 1 + r.Intn(60)
	ncon := 1 + r.Intn(3)
	in := builderInput{name: fmt.Sprintf("random %d", trial), n: n, ncon: ncon, vwgt: make([]int32, n*ncon)}
	for i := range in.vwgt {
		in.vwgt[i] = int32(r.Intn(20))
	}
	active := 1 + r.Intn(n)
	for i, m := 0, r.Intn(4*n); i < m; i++ {
		u, v := int32(r.Intn(active)), int32(r.Intn(active))
		if u == v {
			continue
		}
		in.edges = append(in.edges, Edge{U: u, V: v, W: int32(r.Intn(4))})
		if r.Intn(3) == 0 {
			in.edges = append(in.edges, Edge{U: v, V: u, W: int32(r.Intn(4))})
		}
	}
	return in
}

// shuffledHub is a star of 5,000 leaves around a middle vertex, each edge
// in a random orientation with a varied weight, some repeated, plus a
// path through the leaves, all added in shuffled order: the hub's list is
// sorted through the scratch, the leaves' lists by insertion.
func shuffledHub(r *rng.RNG) builderInput {
	const leaves = 5000
	n := leaves + 1
	hub := int32(leaves / 2)
	in := builderInput{name: "shuffled hub", n: n, ncon: 1}
	for v := int32(0); int(v) < n; v++ {
		if v == hub {
			continue
		}
		e := Edge{U: hub, V: v, W: int32(1 + r.Intn(1000))}
		if r.Bool() {
			e.U, e.V = e.V, e.U
		}
		in.edges = append(in.edges, e)
		if r.Intn(10) == 0 {
			in.edges = append(in.edges, Edge{U: v, V: hub, W: int32(r.Intn(1000))})
		}
		if v+1 < int32(n) && v+1 != hub {
			in.edges = append(in.edges, Edge{U: v, V: v + 1, W: int32(r.Intn(5))})
		}
	}
	perm := make([]int32, len(in.edges))
	r.Perm(perm)
	shuffled := make([]Edge, len(in.edges))
	for i, p := range perm {
		shuffled[i] = in.edges[p]
	}
	in.edges = shuffled
	return in
}

// TestFinishMatchesReference compares Finish with the sort-based
// reference byte for byte: the canonical CSR depends only on the multiset
// of edges, so both must give the same four arrays, and the same error
// text for every input either rejects.
func TestFinishMatchesReference(t *testing.T) {
	r := rng.New(0xF1)
	inputs := []builderInput{
		{name: "n=0", n: 0, ncon: 1},
		{name: "n=1", n: 1, ncon: 2},
		shuffledHub(r),
	}
	for trial := 0; trial < 300; trial++ {
		inputs = append(inputs, randomMultigraph(r, trial))
	}
	for _, in := range inputs {
		got, err := in.builder().Finish()
		if err != nil {
			t.Fatalf("%s: Finish: %v", in.name, err)
		}
		want, err := finishReference(in.builder())
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		for _, a := range []struct {
			name      string
			got, want []int32
		}{
			{"Xadj", got.Xadj, want.Xadj},
			{"Adjncy", got.Adjncy, want.Adjncy},
			{"Adjwgt", got.Adjwgt, want.Adjwgt},
			{"Vwgt", got.Vwgt, want.Vwgt},
		} {
			if !slices.Equal(a.got, a.want) {
				t.Fatalf("%s: %s differs from the reference", in.name, a.name)
			}
		}
	}

	valid := []Edge{{U: 0, V: 1, W: 2}, {U: 2, V: 1, W: 1}, {U: 3, V: 0}}
	for _, c := range []struct {
		name string
		in   builderInput
	}{
		{"out of range", builderInput{n: 4, ncon: 1, edges: append(slices.Clone(valid), Edge{U: 1, V: 4, W: 1})}},
		{"negative id", builderInput{n: 4, ncon: 1, edges: append(slices.Clone(valid), Edge{U: -1, V: 2, W: 1})}},
		{"self-loop", builderInput{n: 4, ncon: 1, edges: append(slices.Clone(valid), Edge{U: 2, V: 2, W: 1})}},
		{"negative weight", builderInput{n: 4, ncon: 1, edges: append(slices.Clone(valid), Edge{U: 2, V: 3, W: -1})}},
		{"negative vertex weight", builderInput{n: 4, ncon: 2, vwgt: []int32{1, 1, 1, -3, 1, 1, 1, 1}, edges: valid}},
	} {
		_, err := c.in.builder().Finish()
		_, want := finishReference(c.in.builder())
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: Finish error %v, reference %v", c.name, err, want)
		}
	}
}

// csrFromLists builds a Graph from per-vertex lists as given, so a test
// can corrupt the lists in ways Finish never emits.
func csrFromLists(adj, wgt [][]int32) *Graph {
	g := &Graph{Ncon: 1, Xadj: []int32{0}, Vwgt: make([]int32, len(adj))}
	for v := range adj {
		g.Adjncy = append(g.Adjncy, adj[v]...)
		g.Adjwgt = append(g.Adjwgt, wgt[v]...)
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
	}
	return g
}

// lists copies g's adjacency into per-vertex lists.
func lists(g *Graph) (adj, wgt [][]int32) {
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		a, w := g.Neighbors(v)
		adj, wgt = append(adj, slices.Clone(a)), append(wgt, slices.Clone(w))
	}
	return adj, wgt
}

// TestValidateMatchesScan gives Validate and the scan-only reference the
// same graphs, valid ones and ones with a single corruption of their
// lists, and requires the same verdict and the same text for each.
func TestValidateMatchesScan(t *testing.T) {
	r := rng.New(0x5CA)
	var bases []*Graph
	for trial := 0; trial < 150; trial++ {
		g, err := randomMultigraph(r, trial).builder().Finish()
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, g)
	}
	// Stars with the hub inside the id range and one isolated vertex; the
	// larger hub's list is binary-searched by the scan's fallback.
	for _, n := range []int{40, 2000} {
		in := builderInput{n: n, ncon: 1}
		hub := int32(n / 3)
		for v := int32(0); int(v) < n-1; v++ {
			if v != hub {
				in.edges = append(in.edges, Edge{U: v, V: hub, W: 1 + v%7})
			}
		}
		g, err := in.builder().Finish()
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, g)
	}

	// Each corruption edits entry i of vertex v's list and returns false
	// when that list cannot take it.
	corruptions := []struct {
		name  string
		apply func(adj, wgt [][]int32, v, i, n int) bool
	}{
		{"none", func(adj, wgt [][]int32, v, i, n int) bool { return true }},
		{"dropped entry", func(adj, wgt [][]int32, v, i, n int) bool {
			adj[v], wgt[v] = slices.Delete(adj[v], i, i+1), slices.Delete(wgt[v], i, i+1)
			return true
		}},
		{"reweighted entry", func(adj, wgt [][]int32, v, i, n int) bool {
			wgt[v][i]++
			return true
		}},
		{"repeated entry", func(adj, wgt [][]int32, v, i, n int) bool {
			adj[v], wgt[v] = slices.Insert(adj[v], i, adj[v][i]), slices.Insert(wgt[v], i, wgt[v][i])
			return true
		}},
		{"swapped entries", func(adj, wgt [][]int32, v, i, n int) bool {
			if i == 0 {
				return false
			}
			adj[v][i-1], adj[v][i] = adj[v][i], adj[v][i-1]
			wgt[v][i-1], wgt[v][i] = wgt[v][i], wgt[v][i-1]
			return true
		}},
		{"self-loop", func(adj, wgt [][]int32, v, i, n int) bool {
			adj[v][i] = int32(v)
			return true
		}},
		{"out of range", func(adj, wgt [][]int32, v, i, n int) bool {
			adj[v][i] = int32(n)
			return true
		}},
		{"negative id", func(adj, wgt [][]int32, v, i, n int) bool {
			adj[v][i] = -1
			return true
		}},
		{"negative weight", func(adj, wgt [][]int32, v, i, n int) bool {
			wgt[v][i] = -wgt[v][i] - 1
			return true
		}},
	}
	for gi, base := range bases {
		n := base.NumVertices()
		for _, c := range corruptions {
			// A lower and a higher neighbor's entry of a random vertex, so
			// an edit lands on both sides of the diagonal.
			for _, lower := range []bool{true, false} {
				adj, wgt := lists(base)
				v := r.Intn(n)
				var at []int
				for i, u := range adj[v] {
					if (int(u) < v) == lower {
						at = append(at, i)
					}
				}
				if len(at) == 0 {
					continue
				}
				if !c.apply(adj, wgt, v, at[r.Intn(len(at))], n) {
					continue
				}
				g := csrFromLists(adj, wgt)
				got, want := g.Validate(), validateScan(g)
				if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
					t.Fatalf("graph %d, %s at vertex %d (lower=%v): Validate %v, scan %v", gi, c.name, v, lower, got, want)
				}
			}
		}
	}
}
