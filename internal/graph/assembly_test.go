package graph_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestFinishAllocBudget is the committed memory budget of graph assembly:
// besides the builder's own edge list, Finish allocates the CSR (16 B per
// edge: two int32 entries in each of Adjncy and Adjwgt), arrays of one
// int32 per vertex, and a sort scratch sized to the longest list. A
// version that stages the edges in a second edge-sized array exceeds it.
func TestFinishAllocBudget(t *testing.T) {
	spec, _ := gen.MeshByName("mrng1s")
	src := spec.Build(7)
	n, m := src.NumVertices(), src.NumEdges()
	b := graph.NewBuilder(n, 1)
	b.Grow(m)
	maxDeg := 0
	for v := int32(0); int(v) < n; v++ {
		adj, wgt := src.Neighbors(v)
		maxDeg = max(maxDeg, len(adj))
		for i, u := range adj {
			if u > v {
				b.AddEdge(u, v, wgt[i])
			}
		}
	}
	budget := 16*uint64(m) + 16*uint64(n) + 8*uint64(maxDeg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := b.Finish()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != m {
		t.Fatalf("Finish built %d edges, want %d", g.NumEdges(), m)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Finish on mrng1s (n=%d, m=%d): %d B, %.1f B/edge (budget %d B)",
		n, m, got, float64(got)/float64(m), budget)
	if got > budget {
		t.Errorf("Finish allocated %d B, past the budget of %d B (16 B/edge + 16 B/vertex + 8 B x longest list)", got, budget)
	}
}

// TestReadMETISReserveBound: the reader reserves its edge lists from the
// header only as far as the input it holds can back them, four bytes per
// edge. A header that declares 10^8 edges over a three-line body costs
// the scanner's 64 KiB buffer and a few small arrays; reserving the
// header's count would take 2.4 GB.
func TestReadMETISReserveBound(t *testing.T) {
	const body = "3 100000000\n2\n1 3\n2\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := graph.ReadMETIS(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "header declares 100000000 edges, found 2") {
		t.Fatalf("err = %v, want the edge count mismatch", err)
	}
	const budget = 128 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a header declaring 10^8 edges over %d bytes: %d B allocated (budget %d B)", len(body), got, budget)
	if got > budget {
		t.Errorf("allocated %d B, past the budget of %d B", got, budget)
	}
}

var readSink *graph.Graph

// zipfBody is one mcpartd request body of the daemon-zipf workload:
// mrng2t with a Type 1, m=3 overlay, about 1 MB of METIS text.
func zipfBody(b *testing.B) []byte {
	spec, _ := gen.MeshByName("mrng2t")
	var body bytes.Buffer
	if err := graph.WriteMETIS(&body, gen.Type1(spec.Build(1000*7919+7), 3, 1100)); err != nil {
		b.Fatal(err)
	}
	return body.Bytes()
}

// BenchmarkReadMETIS times parsing zipfBody through the io.Reader entry,
// as mcpart and the streaming endpoint read a graph.
func BenchmarkReadMETIS(b *testing.B) {
	body := zipfBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadMETIS(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		readSink = g
	}
}

// BenchmarkReadMETISBytes times parsing zipfBody in place, as mcpartd
// parses an inline graph.
func BenchmarkReadMETISBytes(b *testing.B) {
	body := zipfBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadMETISBytes(body, graph.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		readSink = g
	}
}
