package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	partition "repro"
	"repro/internal/gen"
)

// unsized hides a reader's length, so the client sends it chunked.
type unsized struct{ io.Reader }

// TestE2EBodyReadChunked: a chunked body and a sized one are the same
// body. A chunked miss is answered as the library partitions, and a sized
// and a chunked repeat both get the entry's stored reply.
func TestE2EBodyReadChunked(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	var mu sync.Mutex
	var declared []int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		declared = append(declared, r.ContentLength)
		mu.Unlock()
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	body, g := inlineBody(t, "", 8, 3)
	post := func(r io.Reader) printReply {
		t.Helper()
		out, err := postReader(ts.URL+"/v1/partition", r)
		if err != nil {
			t.Fatal(err)
		}
		if out.status != http.StatusOK {
			t.Fatalf("status %d, body %s", out.status, out.raw)
		}
		return out
	}
	miss := post(unsized{bytes.NewReader(body)})
	sized := post(bytes.NewReader(body))
	chunked := post(unsized{bytes.NewReader(body)})
	if want := []int64{-1, int64(len(body)), -1}; fmt.Sprint(declared) != fmt.Sprint(want) {
		t.Fatalf("declared lengths = %v, want %v", declared, want)
	}
	want, _, err := partition.Serial(g, 8, partition.SerialOptions{Seed: 3, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if miss.resp.Cached || fmt.Sprint(miss.resp.Labels) != fmt.Sprint(want) {
		t.Fatal("the chunked miss differs from the in-process partitioning")
	}
	if !bytes.Equal(sized.raw, chunked.raw) {
		t.Fatal("a sized and a chunked repeat got different replies")
	}
	sameAnswer(t, chunked.resp, miss.resp)
	wantCounters(t, ts.URL, 2, 1, 2)
}

// TestE2EBodyReadErrors: a body past MaxBodyBytes answers 413, declared
// or not, and a body shorter than its declared length answers 400 with
// the read error; neither counts a lookup.
func TestE2EBodyReadErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxBodyBytes: 4096})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := []byte(`{"mesh":"mrng1t","k":8,"graph":"` + strings.Repeat(" ", 5000) + `"}`)
	for _, r := range []io.Reader{bytes.NewReader(big), unsized{bytes.NewReader(big)}} {
		out, err := postReader(ts.URL+"/v1/partition", r)
		if err != nil {
			t.Fatal(err)
		}
		if out.status != http.StatusRequestEntityTooLarge || string(out.raw) != `{"error":"body exceeds 4096 bytes"}`+"\n" {
			t.Fatalf("oversized body: status %d, body %s", out.status, out.raw)
		}
	}

	// The client declares 1000 bytes, sends 9 and closes its side.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/partition HTTP/1.1\r\nHost: mcpartd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"mesh\":"); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || string(raw) != `{"error":"bad JSON: unexpected EOF"}`+"\n" {
		t.Fatalf("short body: status %d, body %s", resp.StatusCode, raw)
	}
	wantCounters(t, ts.URL, 0, 0, 0)
}

// TestE2EBodyReadPastReserve: a body that declares more than
// maxBodyReserve is read whole. Its leading white space leaves the
// request, and so its answer, that of the bare body.
func TestE2EBodyReadPastReserve(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bare := []byte(`{"mesh":"mrng1t","k":4,"seed":2}`)
	padded := append(bytes.Repeat([]byte(" "), maxBodyReserve+1<<20), bare...)
	first := mustPost(t, ts.URL, "", bare, http.StatusOK)
	long := mustPost(t, ts.URL, "", padded, http.StatusOK)
	again := mustPost(t, ts.URL, "", padded, http.StatusOK)
	if !long.Cached || !again.Cached {
		t.Fatal("the padded body was not answered from the bare body's entry")
	}
	sameAnswer(t, long, first)
	sameAnswer(t, again, first)
	wantCounters(t, ts.URL, 2, 1, 1)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBodyAllocBudget is the committed memory budget of reading a
// request body: a 1 MiB body that declares its length is read into one
// buffer of about its length (at most 1.1x), where io.ReadAll grows its
// buffer step by step to about 5x. A body that declares 64 MiB and sends
// a few bytes reserves at most maxBodyReserve.
func TestReadBodyAllocBudget(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	read := func(f func() ([]byte, error)) uint64 {
		t.Helper()
		var got []byte
		var err error
		n := allocated(func() { got, err = f() })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("read %d bytes, not the %d-byte body", len(got), len(body))
		}
		return n
	}
	budget := uint64(len(body)) * 11 / 10
	sized := read(func() ([]byte, error) {
		return readBody(unsized{bytes.NewReader(body)}, int64(len(body)), 64<<20)
	})
	all := read(func() ([]byte, error) { return io.ReadAll(unsized{bytes.NewReader(body)}) })
	t.Logf("1 MiB body: readBody %d B, io.ReadAll %d B (budget %d B)", sized, all, budget)
	if sized > budget {
		t.Errorf("readBody allocated %d B for a %d-byte body, past the budget of %d B", sized, len(body), budget)
	}
	if all <= budget {
		t.Errorf("io.ReadAll allocated %d B, within the budget: it no longer tells a sized read apart", all)
	}

	hostile := allocated(func() {
		if _, err := readBody(unsized{strings.NewReader(`{"k":1}`)}, 64<<20, 64<<20); err != nil {
			t.Error(err)
		}
	})
	t.Logf("a body declaring 64 MiB: readBody %d B (reserve %d B)", hostile, maxBodyReserve)
	if hostile > maxBodyReserve+64<<10 {
		t.Errorf("a body declaring 64 MiB allocated %d B, past maxBodyReserve (%d B)", hostile, maxBodyReserve)
	}
}

// BenchmarkPartitionHit times body-print hits of one daemon-zipf
// request, an mrng2t Type 1 (m=3) graph sent inline at k=64 (about 1 MB),
// posted through httptest with its length; B/op covers client and server.
func BenchmarkPartitionHit(b *testing.B) {
	spec, _ := gen.MeshByName("mrng2t")
	var text bytes.Buffer
	if err := partition.WriteGraph(&text, partition.Type1Workload(spec.Build(1000*7919+7), 3, 1100)); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(PartitionRequest{Graph: text.String(), K: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/partition", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
	}
	post() // the miss that fills the entry and attaches the print
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
