package graph

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// fuzzLimits keeps hostile headers from turning the fuzzer into an
// allocation benchmark; the parser's structural checks are exercised all
// the same.
var fuzzLimits = Limits{MaxVertices: 1 << 12, MaxEdges: 1 << 14}

// FuzzReadMETIS asserts the parser's contract for untrusted input (the
// mcpartd service feeds it client-supplied request bodies): any byte
// sequence either parses to a graph that passes Validate and survives a
// write/read round-trip unchanged, or returns an error — it never panics.
func FuzzReadMETIS(f *testing.F) {
	f.Add([]byte("2 1 11\n1 2 3\n1 1 3\n"))
	f.Add([]byte("4 3 11 2\n1 1 2 1 3 1\n2 2 1 1\n1 1 1 1 4 1\n2 2 3 1\n"))
	f.Add([]byte("3 2 0\n2 3\n1\n1\n"))
	f.Add([]byte("3 2 1\n2 5\n1 5 3 1\n2 1\n"))
	f.Add([]byte("% comment\n\n2 1 10\n7 2\n3 1\n"))
	f.Add([]byte("0 0\n"))
	f.Add([]byte("2 1 11\n-1 2 3\n1 1 3\n"))
	f.Add([]byte("99999999999999999999 1 11\n"))
	f.Add([]byte("4 3 11 9999999\n"))
	f.Add([]byte("2 1\n3 1\n1 1\n"))
	// Vertex lines that contradict each other.
	f.Add([]byte("2 1 10\n1 2\n1\n"))
	f.Add([]byte("2 1 10\n1\n1 1\n"))
	f.Add([]byte("2 1 1\n2 5\n1 7\n"))
	f.Add([]byte("3 2\n2 2\n1 3\n2\n"))
	f.Add([]byte("2 1\n1 2\n1\n"))
	f.Add([]byte(overflowBody))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadMETISLimited(bytes.NewReader(data), fuzzLimits)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph fails Validate: %v\ninput: %q", err, data)
		}
		assertRoundTrip(t, g)
	})
}

// overflowBody lists the edge {1,2} three times on both lines, each time
// with weight MaxInt32: the summed weight does not fit int32.
const overflowBody = "2 1 1\n2 2147483647 2 2147483647 2 2147483647\n1 2147483647 1 2147483647 1 2147483647\n"

// FuzzReadMETISMatchesReference asserts that ReadMETISLimited and
// ReadMETISBytes, which tokenize each line in place and build each
// adjacency list from its own line, agree on any input with the reference
// that splits it with strings.Fields, parses each field with
// strconv.ParseInt and assembles the graph through the Builder: the same
// graph, or the same error text.
func FuzzReadMETISMatchesReference(f *testing.F) {
	for _, s := range []string{
		"2 1 1\n+2 +5\n1 5\n",
		"2 1 11\n-0 2 3\n007 1 3\n",
		"2 1 1\n2 1_0\n1 10\n",
		"2 1 1\n2 2147483648\n1 2147483648\n",
		"2 1 11\n-2147483648 2 1\n1 1 1\n",
		"2 1 1\n2 -2147483649\n1 1\n",
		"2 1 10 3\n1 2\n1 x 1\n",
		"2\t1\t1\n2\t5\n\t1 5\t\n",
		"2 1 1\n2\v5\n1\v5\n",
		"2 1 1\n2\f5\n1 5\f\n",
		"2 1 1\r\n2 5\r\n1 5\r\n",
		"2 1 1\n2\u00a05\n1 5\n",
		"\u00a0% comment\n2 1 1\n2\u00855\n1 5\u0085\n",
		"2 1 1\n2 5 \U0001F600\n1 5\n",
		"2 1 1\n2 5\xff\n1 5\n",
		"2 1 1\n2 99999999999\u00a05\n1 5\n",
		overflowBody,
		// Lines that disagree: the first pair named depends on which
		// side drops the entry, and a missing entry shifts later matches.
		"4 4 1\n2 1 3 1\n1 1 4 1\n1 1 4 1\n2 1 3 1\n",
		"4 3 1\n2 1 3 1 4 1\n1 1\n1 1 4 1\n1 1\n",
		"4 3 1\n3 1\n3 1 4 1\n1 1 2 1\n2 1 1 1\n",
		"3 2 1\n2 2147483647 2 1\n1 2147483647 1 1 3 1\n2 1\n",
		"3 2 11\n-1 2 1\n1 1 1 3 1\n1 2 1\n",
		// Vertex 2's line drops vertex 1, which the pass sees only when
		// vertex 3's line names vertex 1: the first pair is {1,2}.
		"3 1 10\n1 2\n1\n1 1\n",
		"4 2 1\n2 1 3 1\n1 1\n1 2\n3 1 1 5\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadMETISLimited(bytes.NewReader(data), fuzzLimits)
		want, wantErr := readMETISReference(bytes.NewReader(data), fuzzLimits)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v\ninput: %q", err, wantErr, data)
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("graph differs from the reference\ninput: %q", data)
		}
		g, err = ReadMETISBytes(data, fuzzLimits)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ReadMETISBytes: error %v, reference %v\ninput: %q", err, wantErr, data)
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("ReadMETISBytes: graph differs from the reference\ninput: %q", data)
		}
	})
}

// assertRoundTrip writes g and re-reads it, requiring the exact same CSR
// representation back (WriteMETIS output is canonical: sorted adjacency,
// explicit weights).
func assertRoundTrip(t *testing.T, g *Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatalf("WriteMETIS: %v", err)
	}
	g2, err := ReadMETIS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read of written graph failed: %v\ntext:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(g, g2) {
		t.Fatalf("round-trip changed the graph:\nbefore: %+v\nafter:  %+v\ntext:\n%s", g, g2, buf.String())
	}
}

// TestMETISRoundTripProperty is the property test behind the fuzz target:
// WriteMETIS then ReadMETIS must reproduce randomly built graphs exactly —
// including multi-constraint weight vectors, zero-weight edges (legal for
// Type 2 workloads), isolated vertices and single-vertex graphs.
func TestMETISRoundTripProperty(t *testing.T) {
	r := rng.New(0xC0FFEE)
	for trial := 0; trial < 300; trial++ {
		n := 1 + int(r.Uint64()%40)
		ncon := 1 + int(r.Uint64()%3)
		b := NewBuilder(n, ncon)
		w := make([]int32, ncon)
		for v := 0; v < n; v++ {
			for c := range w {
				w[c] = int32(r.Uint64() % 20) // zero vertex weights are legal
			}
			b.SetVertexWeight(int32(v), w)
		}
		edges := int(r.Uint64() % uint64(2*n))
		for e := 0; e < edges; e++ {
			u := int32(r.Uint64() % uint64(n))
			v := int32(r.Uint64() % uint64(n))
			if u == v {
				continue
			}
			b.AddEdge(u, v, int32(r.Uint64()%5)) // zero edge weights are legal
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatalf("trial %d: Finish: %v", trial, err)
		}
		assertRoundTrip(t, g)
	}
}
