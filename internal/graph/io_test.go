package graph

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestRoundTripSimple(t *testing.T) {
	b := NewBuilder(4, 2)
	b.SetVertexWeight(0, []int32{5, 7})
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 4)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestRoundTripRandom(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		ncon := 1 + r.Intn(3)
		b := NewBuilder(n, ncon)
		w := make([]int32, ncon)
		for v := 0; v < n; v++ {
			for c := range w {
				w[c] = int32(r.Intn(20))
			}
			b.SetVertexWeight(int32(v), w)
		}
		for i := 0; i < n*2; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, int32(1+r.Intn(9)))
			}
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertGraphsEqual(t, g, g2)
	}
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.Ncon != b.Ncon {
		t.Fatalf("shape mismatch: %v vs %v", a, b)
	}
	for i, w := range a.Vwgt {
		if b.Vwgt[i] != w {
			t.Fatalf("vertex weight mismatch at %d", i)
		}
	}
	// Compare adjacency as sets per vertex (order may differ).
	for v := int32(0); int(v) < a.NumVertices(); v++ {
		wa := map[int32]int32{}
		adj, wgt := a.Neighbors(v)
		for i, u := range adj {
			wa[u] = wgt[i]
		}
		adj, wgt = b.Neighbors(v)
		if len(adj) != len(wa) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i, u := range adj {
			if wa[u] != wgt[i] {
				t.Fatalf("vertex %d edge (%d) weight mismatch: %d vs %d", v, u, wa[u], wgt[i])
			}
		}
	}
}

func TestReadPlainFormat(t *testing.T) {
	// Unweighted graph, fmt field omitted, with a comment line.
	in := `% a triangle
3 3
2 3
1 3
1 2
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 || g.Ncon != 1 {
		t.Fatalf("parsed %v", g)
	}
	if _, wgt := g.Neighbors(0); wgt[0] != 1 {
		t.Error("default edge weight should be 1")
	}
}

func TestReadErrors(t *testing.T) {
	// want, when set, is a substring the error must contain: the lines
	// that contradict each other are named by their vertex pair.
	cases := map[string]struct{ in, want string }{
		"empty":                     {"", ""},
		"bad header":                {"x\n", ""},
		"missing vertices":          {"3 3 11\n1 1 2 1\n", ""},
		"bad edge count":            {"2 5 0\n2\n1\n", ""},
		"bad neighbor":              {"2 1 0\nzz\n1\n", ""},
		"only lower lists":          {"2 1 10\n1 2\n1\n", "vertex 1 lists neighbor 2, but vertex 2 does not list 1"},
		"only higher lists":         {"2 1 10\n1\n1 1\n", "vertex 2 lists neighbor 1, but vertex 1 does not list 2"},
		"weights disagree":          {"2 1 1\n2 5\n1 7\n", "edge {1,2} has weight 5 on vertex 1's line and 7 on vertex 2's"},
		"one-sided duplicate":       {"3 2\n2 2\n1 3\n2\n", "edge {1,2} has weight 2 on vertex 1's line and 1 on vertex 2's"},
		"self-loop":                 {"2 1\n1 2\n1\n", "self-loop {1,1}"},
		"negative entry summed out": {"2 1 1\n2 3\n1 5 1 -2\n", "negative weight -2 on edge {1,2}"},
		"summed weight past int32":  {overflowBody, "repeated edge {1,2}"},
	}
	for name, c := range cases {
		_, err := ReadMETIS(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: want error", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, c.want)
		}
	}
}

// TestReadSymmetricDuplicate: a neighbor listed twice on both endpoints'
// lines is one edge of the summed weight, as the Builder merges it.
func TestReadSymmetricDuplicate(t *testing.T) {
	g, err := ReadMETIS(strings.NewReader("3 2 1\n2 3 2 4 3 1\n1 3 1 4\n1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("parsed %d edges, want 2", g.NumEdges())
	}
	if adj, wgt := g.Neighbors(0); adj[0] != 1 || wgt[0] != 7 || adj[1] != 2 || wgt[1] != 1 {
		t.Errorf("vertex 1: neighbors %v weights %v, want [1 2] [7 1]", adj, wgt)
	}
}

// TestAppendDecMatchesStrconv: appendDec writes what strconv.AppendInt
// writes, at every digit count and on either side of each power of ten.
func TestAppendDecMatchesStrconv(t *testing.T) {
	xs := []int64{0, 1, 9, -1, -10, math.MinInt32, math.MaxInt32, 999999999, 1000000000, math.MaxInt64, math.MinInt64}
	for p := int64(1); p <= 1e10; p *= 10 {
		xs = append(xs, p-1, p, p+1, 3*p+7)
	}
	r := rng.New(11)
	for i := 0; i < 2000; i++ {
		xs = append(xs, int64(r.Uint64()%2_000_000_000)-1000)
	}
	for _, x := range xs {
		prefix := []byte("x ")
		if got, want := appendDec(prefix, x), strconv.AppendInt([]byte("x "), x, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendDec(%d) = %q, want %q", x, got, want)
		}
	}
}

// TestReadNamesFirstDisagreement: when a line drops an entry, the error
// names the first vertex pair whose lines disagree, even when the
// symmetry pass only notices at a later vertex.
func TestReadNamesFirstDisagreement(t *testing.T) {
	for in, want := range map[string]string{
		"3 1 10\n1 2\n1\n1 1\n":               "graph: vertex 1 lists neighbor 2, but vertex 2 does not list 1",
		"4 2 1\n2 1 3 1\n1 1\n1 2\n3 1 1 5\n": "graph: edge {1,3} has weight 1 on vertex 1's line and 2 on vertex 3's",
	} {
		for _, read := range []func() error{
			func() error { _, err := ReadMETIS(strings.NewReader(in)); return err },
			func() error { _, err := ReadMETISBytes([]byte(in), Limits{}); return err },
		} {
			if err := read(); err == nil || err.Error() != want {
				t.Errorf("%q: error %v, want %q", in, err, want)
			}
		}
	}
}
