package graph

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestChunkedReaderChunks verifies no single Read exceeds the chunk size
// and the full payload round-trips.
func TestChunkedReaderChunks(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 10_000)
	cr := NewChunkedReader(bytes.NewReader(payload), 1024, 0)
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := cr.Read(buf)
		if n > 1024 {
			t.Fatalf("Read returned %d bytes, above the 1024 chunk", n)
		}
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload did not round-trip: %d bytes vs %d", len(got), len(payload))
	}
	if cr.BytesRead() != int64(len(payload)) {
		t.Fatalf("BytesRead = %d, want %d", cr.BytesRead(), len(payload))
	}
}

// TestChunkedReaderBudget verifies the hard byte cap: input exactly at the
// budget succeeds, one byte past it fails with ErrTooLarge.
func TestChunkedReaderBudget(t *testing.T) {
	exact := strings.Repeat("a", 100)
	cr := NewChunkedReader(strings.NewReader(exact), 16, 100)
	if _, err := io.ReadAll(cr); err != nil {
		t.Fatalf("input exactly at the budget failed: %v", err)
	}

	over := exact + "b"
	cr = NewChunkedReader(strings.NewReader(over), 16, 100)
	_, err := io.ReadAll(cr)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized input: err = %v, want ErrTooLarge", err)
	}
}

// TestChunkedReaderUnderMETIS parses a graph through the chunked reader
// with a tiny chunk size and checks it matches a direct parse — the
// streaming-ingest composition the daemon uses.
func TestChunkedReaderUnderMETIS(t *testing.T) {
	var buf bytes.Buffer
	g := mustGrid(t, 12, 9)
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	direct, err := ReadMETIS(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := ReadMETISLimited(
		NewChunkedReader(strings.NewReader(text), 7, int64(len(text))), Limits{})
	if err != nil {
		t.Fatalf("chunked parse failed: %v", err)
	}
	if chunked.NumVertices() != direct.NumVertices() || chunked.NumEdges() != direct.NumEdges() {
		t.Fatalf("chunked graph %v != direct %v", chunked, direct)
	}
	for v := int32(0); int(v) < direct.NumVertices(); v++ {
		ca, cw := chunked.Neighbors(v)
		da, dw := direct.Neighbors(v)
		if len(ca) != len(da) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(ca), len(da))
		}
		for i := range da {
			if ca[i] != da[i] || cw[i] != dw[i] {
				t.Fatalf("vertex %d: adjacency mismatch", v)
			}
		}
	}

	// The same parse with a budget that truncates the body mid-content
	// must fail, with the reader reporting the budget violation (the
	// surfaced error may be a content error from the truncated tail — see
	// Exceeded's doc comment).
	cr := NewChunkedReader(strings.NewReader(text), 1<<10, int64(len(text))/2)
	_, err = ReadMETISLimited(cr, Limits{})
	if err == nil {
		t.Fatal("undersized budget: parse succeeded")
	}
	if !errors.Is(err, ErrTooLarge) && !cr.Exceeded() {
		t.Fatalf("undersized budget: err = %v and Exceeded() = false", err)
	}
}

func mustGrid(t testing.TB, w, h int) *Graph {
	t.Helper()
	b := NewBuilder(w*h, 1)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
