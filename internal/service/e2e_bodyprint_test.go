package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	partition "repro"
)

// printReply is one /v1/partition answer as a client sees it.
type printReply struct {
	status int
	header http.Header
	resp   PartitionResponse
	raw    []byte
}

// postBody sends body verbatim, so a test controls the exact bytes a
// body print is taken over.
func postBody(url, query string, body []byte) (printReply, error) {
	return postReader(url+"/v1/partition"+query, bytes.NewReader(body))
}

// postReader posts what body holds; a reader that hides its length is
// sent chunked.
func postReader(url string, body io.Reader) (printReply, error) {
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		return printReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return printReply{}, err
	}
	r := printReply{status: resp.StatusCode, header: resp.Header, raw: raw}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &r.resp); err != nil {
			return printReply{}, fmt.Errorf("bad reply: %v", err)
		}
	}
	return r, nil
}

func mustPost(t *testing.T, url, query string, body []byte, wantStatus int) PartitionResponse {
	t.Helper()
	return mustPostReply(t, url, query, body, wantStatus).resp
}

func mustPostReply(t *testing.T, url, query string, body []byte, wantStatus int) printReply {
	t.Helper()
	r, err := postBody(url, query, body)
	if err != nil {
		t.Fatal(err)
	}
	if r.status != wantStatus {
		t.Fatalf("status = %d, want %d; body %s", r.status, wantStatus, r.raw)
	}
	return r
}

// cacheCounters reads the unlabeled cache counters off /metrics the way
// the benchmark harness does: hits, misses, body hits.
func cacheCounters(t *testing.T, url string) [3]int {
	t.Helper()
	names := map[string]int{"mcpartd_cache_hits_total": 0, "mcpartd_cache_misses_total": 1, "mcpartd_cache_body_hits_total": 2}
	var got [3]int
	seen := 0
	sc := bufio.NewScanner(strings.NewReader(fetchMetrics(t, url)))
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 2 {
			continue
		}
		if i, ok := names[fs[0]]; ok {
			n, err := strconv.Atoi(fs[1])
			if err != nil {
				t.Fatalf("%s: %v", sc.Text(), err)
			}
			got[i] = n
			seen++
		}
	}
	if seen != len(names) {
		t.Fatalf("/metrics has %d of the %d unlabeled cache counters", seen, len(names))
	}
	return got
}

func wantCounters(t *testing.T, url string, hits, misses, bodyHits int) {
	t.Helper()
	if got, want := cacheCounters(t, url), [3]int{hits, misses, bodyHits}; got != want {
		t.Fatalf("cache counters (hits, misses, body hits) = %v, want %v", got, want)
	}
}

// sameAnswer requires two replies to carry the same partition and shape.
func sameAnswer(t *testing.T, got, want PartitionResponse) {
	t.Helper()
	if got.N != want.N || got.M != want.M || got.K != want.K || got.P != want.P ||
		got.Seed != want.Seed || got.Scheme != want.Scheme {
		t.Fatalf("shape (n m k p seed scheme) = %d %d %d %d %d %q, want %d %d %d %d %d %q",
			got.N, got.M, got.K, got.P, got.Seed, got.Scheme,
			want.N, want.M, want.K, want.P, want.Seed, want.Scheme)
	}
	if got.Cut != want.Cut || got.CommVolume != want.CommVolume ||
		!reflect.DeepEqual(got.Imbalances, want.Imbalances) || !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("cached answer differs: cut %d vs %d, imbalances %v vs %v", got.Cut, want.Cut, got.Imbalances, want.Imbalances)
	}
}

// inlineBody is a request for a Type 1 overlay of mrng1t sent as inline
// METIS text; prefix is prepended to the text, which leaves the graph and
// so the canonical key unchanged when it is a comment or blank line.
func inlineBody(t *testing.T, prefix string, k int, seed uint64) ([]byte, *partition.Graph) {
	t.Helper()
	g := partition.Type1Workload(mustMesh(t, "mrng1t", 1), 2, 9)
	var buf bytes.Buffer
	if err := partition.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(PartitionRequest{Graph: prefix + buf.String(), K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return body, g
}

func printsLen(c *resultCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.prints)
}

// soleEntry returns the key, result and stored reply of a cache's only
// entry.
func soleEntry(t *testing.T, c *resultCache) (cacheKey, *Result, []byte) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.ll.Len())
	}
	e := c.ll.Front().Value.(*cacheEntry)
	return e.key, e.res, e.reply
}

// wantLength requires a reply to declare its own length.
func wantLength(t *testing.T, r printReply) {
	t.Helper()
	if got, want := r.header.Get("Content-Length"), strconv.Itoa(len(r.raw)); got != want {
		t.Fatalf("Content-Length = %q, want %s", got, want)
	}
}

// TestE2EBodyPrintRepeat: a byte-identical repeat is a cached answer
// equal to the first, found by body print, and the counters keep parity:
// one hit or miss per request.
func TestE2EBodyPrintRepeat(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, g := inlineBody(t, "", 8, 3)
	first := mustPost(t, ts.URL, "", body, http.StatusOK)
	second := mustPost(t, ts.URL, "", body, http.StatusOK)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	if second.QueueMS != 0 || second.RunMS != first.RunMS {
		t.Errorf("hit queue_ms = %v, run_ms = %v; want 0 and the filling run's %v", second.QueueMS, second.RunMS, first.RunMS)
	}
	sameAnswer(t, second, first)
	want, _, err := partition.Serial(g, 8, partition.SerialOptions{Seed: 3, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Labels, want) || second.Cut != partition.EdgeCut(g, want) {
		t.Fatal("cached answer differs from the in-process partitioning")
	}
	wantCounters(t, ts.URL, 1, 1, 1)
}

// TestE2EBodyPrintReply: the second POST of a body encodes the entry's
// hit reply and the third writes it from the entry. Both are the bytes
// the encoder gives for the filling run's response with cached set and
// no queue time, and both declare their length; the stored reply counts
// in mcpartd_cache_bytes.
func TestE2EBodyPrintReply(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := inlineBody(t, "", 8, 3)
	first := mustPostReply(t, ts.URL, "", body, http.StatusOK)
	wantLength(t, first)
	_, res, _ := soleEntry(t, s.cache)
	filled := s.cache.bytesNow()
	want := first.resp
	want.Cached, want.QueueMS = true, 0
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(&want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := mustPostReply(t, ts.URL, "", body, http.StatusOK)
		if !bytes.Equal(r.raw, enc.Bytes()) {
			t.Fatalf("repeat %d: reply differs from the encoded response\n got %.200s\nwant %.200s", i+1, r.raw, enc.Bytes())
		}
		wantLength(t, r)
		_, held, reply := soleEntry(t, s.cache)
		if held != res || !bytes.Equal(reply, enc.Bytes()) {
			t.Fatalf("repeat %d: the entry's stored reply is not the reply written", i+1)
		}
		if got, want := s.cache.bytesNow(), filled+int64(len(reply)); got != want {
			t.Fatalf("repeat %d: cache bytes = %d, want %d with the %d-byte reply", i+1, got, want, len(reply))
		}
	}
	wantCounters(t, ts.URL, 2, 1, 2)
}

// TestE2EBodyPrintVariant: a whitespace or comment variant of a cached
// graph shares its canonical key, so it is first a hit through the slow
// path and then a body-print hit of its own. Its print replaces the
// first body's, which takes the slow path once more before its own
// repeat is a body-print hit again.
func TestE2EBodyPrintVariant(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, _ := inlineBody(t, "", 8, 3)
	b, _ := inlineBody(t, "% the same graph\n\n", 8, 3)
	first := mustPost(t, ts.URL, "", a, http.StatusOK)
	var replies []PartitionResponse
	for _, step := range []struct {
		body                   []byte
		hits, misses, bodyHits int
	}{
		{b, 1, 1, 0}, // variant: slow-path hit, its print replaces a's
		{b, 2, 1, 1}, // its repeat: body-print hit
		{a, 3, 1, 1}, // a's print was replaced: slow-path hit
		{a, 4, 1, 2},
	} {
		r := mustPost(t, ts.URL, "", step.body, http.StatusOK)
		if !r.Cached {
			t.Fatalf("request %d after the first was recomputed", len(replies)+1)
		}
		wantCounters(t, ts.URL, step.hits, step.misses, step.bodyHits)
		replies = append(replies, r)
	}
	for _, r := range replies {
		sameAnswer(t, r, first)
	}
	if n := printsLen(s.cache); n != 1 {
		t.Fatalf("print index holds %d prints, want 1", n)
	}
}

// TestE2EBodyPrintEviction: with one entry and two alternating bodies,
// every request misses: an evicted entry takes its print with it, and
// the print index never outgrows one print per entry.
func TestE2EBodyPrintEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheEntries: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, _ := inlineBody(t, "", 4, 1)
	b, _ := inlineBody(t, "", 4, 2)
	for i := 0; i < 6; i++ {
		body := a
		if i%2 == 1 {
			body = b
		}
		if r := mustPost(t, ts.URL, "", body, http.StatusOK); r.Cached {
			t.Fatalf("request %d was a hit with one entry and alternating bodies", i)
		}
		if n := printsLen(s.cache); n > 1 {
			t.Fatalf("print index holds %d prints with 1 entry", n)
		}
	}
	wantCounters(t, ts.URL, 0, 6, 0)
}

// TestE2EBodyPrintTrace: ?trace=1 on a cached body runs the job and
// returns its trace; it counts no hit or miss and attaches no print.
func TestE2EBodyPrintTrace(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := inlineBody(t, "", 8, 3)
	traced := mustPost(t, ts.URL, "?trace=1", body, http.StatusOK)
	if traced.Cached || traced.Trace == nil {
		t.Fatalf("cold traced request: cached %v, trace present %v", traced.Cached, traced.Trace != nil)
	}
	wantCounters(t, ts.URL, 0, 0, 0)
	if n := printsLen(s.cache); n != 0 {
		t.Fatalf("traced run attached %d prints", n)
	}
	plain := mustPost(t, ts.URL, "", body, http.StatusOK)
	if plain.Cached {
		t.Fatal("traced run filled the cache")
	}
	again := mustPost(t, ts.URL, "?trace=1", body, http.StatusOK)
	if again.Cached || again.Trace == nil {
		t.Fatalf("traced request on a cached body: cached %v, trace present %v", again.Cached, again.Trace != nil)
	}
	if again.Cut != plain.Cut || !reflect.DeepEqual(again.Labels, plain.Labels) {
		t.Fatal("traced run differs from the cached answer")
	}
	wantCounters(t, ts.URL, 0, 1, 0)
	if n := printsLen(s.cache); n != 1 {
		t.Fatalf("print index holds %d prints, want 1", n)
	}
}

// TestE2EBodyPrintRejects: invalid bodies answer 400 on every attempt
// and oversized ones 413; none of them counts a lookup.
func TestE2EBodyPrintRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxBodyBytes: 4096})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"unknown field", `{"mesh":"mrng1t","k":8,"colour":"red"}`, http.StatusBadRequest},
		{"k over n", `{"graph":"2 1 11\n1 2 1\n1 1 1\n","k":5}`, http.StatusBadRequest},
		{"oversized", `{"mesh":"mrng1t","k":8,"graph":"` + strings.Repeat(" ", 5000) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		for i := 0; i < 3; i++ {
			r, err := postBody(ts.URL, "", []byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if r.status != tc.status {
				t.Fatalf("%s, attempt %d: status %d, want %d; body %s", tc.name, i, r.status, tc.status, r.raw)
			}
		}
	}
	wantCounters(t, ts.URL, 0, 0, 0)
}

// TestE2EBodyPrintDiskRestart: after a restart the memory tier and its
// prints are empty, so the first repeat is a disk hit, which attaches the
// print, and the second is a body-print hit.
func TestE2EBodyPrintDiskRestart(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 2, CacheDir: t.TempDir()}
	body, _ := inlineBody(t, "", 8, 5)

	s1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(s1.Handler())
	first := mustPost(t, ts1.URL, "", body, http.StatusOK)
	ts1.Close()
	s1.Close()

	s2 := newTestServer(t, cfg)
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	warm := mustPost(t, ts2.URL, "", body, http.StatusOK)
	if !warm.Cached {
		t.Fatal("first repeat after restart was recomputed")
	}
	if met := fetchMetrics(t, ts2.URL); !strings.Contains(met, "mcpartd_disk_cache_hits_total 1\n") {
		t.Fatal("first repeat after restart was not a disk hit")
	}
	wantCounters(t, ts2.URL, 0, 1, 0)
	fast := mustPost(t, ts2.URL, "", body, http.StatusOK)
	wantCounters(t, ts2.URL, 1, 1, 1)
	if met := fetchMetrics(t, ts2.URL); !strings.Contains(met, "mcpartd_disk_cache_hits_total 1\n") {
		t.Fatal("body-print hit consulted the disk tier")
	}
	sameAnswer(t, warm, first)
	sameAnswer(t, fast, first)
}

// TestE2EBodyPrintMesh: repeated named-mesh requests are answered from
// their print, so the mesh and its overlay are not built again, and the
// stored shape keeps n, m, p and a parallel run's scheme.
func TestE2EBodyPrintMesh(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	n := mustMesh(t, "mrng1t", 0).NumVertices()
	for i, tc := range []struct {
		body   string
		m, p   int
		scheme string
	}{
		{`{"mesh":"mrng1t","workload":"type1","m":3,"k":8,"seed":4}`, 3, 0, ""},
		{`{"mesh":"mrng1t","k":8,"p":4,"seed":2,"scheme":"slice"}`, 1, 4, "slice"},
	} {
		first := mustPost(t, ts.URL, "", []byte(tc.body), http.StatusOK)
		second := mustPost(t, ts.URL, "", []byte(tc.body), http.StatusOK)
		if !second.Cached {
			t.Fatalf("case %d: repeat was not cached", i)
		}
		sameAnswer(t, second, first)
		if second.N != n || second.M != tc.m || second.P != tc.p || second.Scheme != tc.scheme {
			t.Fatalf("case %d: n=%d m=%d p=%d scheme %q, want %d %d %d %q",
				i, second.N, second.M, second.P, second.Scheme, n, tc.m, tc.p, tc.scheme)
		}
		wantCounters(t, ts.URL, i+1, i+1, i+1)
	}
}

// TestE2EBodyPrintConcurrent: eight clients post one body at once, cold
// and then warm. Every reply carries the in-process partitioning, each
// request counts exactly one hit or miss, and the warm round is served
// by body print. CI runs it under -race -count=10.
func TestE2EBodyPrintConcurrent(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	body, g := inlineBody(t, "", 4, 6)
	want, _, err := partition.Serial(g, 4, partition.SerialOptions{Seed: 6, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	round := func() (hits int, replies []printReply) {
		replies = make([]printReply, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				replies[c], errs[c] = postBody(ts.URL, "", body)
			}(c)
		}
		wg.Wait()
		for c, r := range replies {
			if errs[c] != nil {
				t.Fatalf("client %d: %v", c, errs[c])
			}
			if r.status != http.StatusOK {
				t.Fatalf("client %d: status %d, body %s", c, r.status, r.raw)
			}
			if !reflect.DeepEqual(r.resp.Labels, want) {
				t.Fatalf("client %d: labels differ from the in-process partitioning", c)
			}
			if r.resp.Cached {
				hits++
			}
		}
		return hits, replies
	}
	cold, _ := round()
	got := cacheCounters(t, ts.URL)
	if got[0] != cold || got[1] != clients-cold || got[2] > got[0] {
		t.Fatalf("cold round: counters (hits, misses, body hits) = %v, clients saw %d hits of %d", got, cold, clients)
	}
	// A miss that finishes after a body-print hit refreshes the entry and
	// drops the reply the hit stored. Refresh it the same way, so every
	// hit of the warm round is a first hit racing to store the reply.
	k, res, _ := soleEntry(t, s.cache)
	refreshed := *res
	s.cache.put(k, &refreshed)
	warm, replies := round()
	if warm != clients {
		t.Fatalf("warm round: %d of %d cached", warm, clients)
	}
	_, _, reply := soleEntry(t, s.cache)
	for c, r := range replies {
		if !bytes.Equal(r.raw, reply) {
			t.Fatalf("client %d: warm reply differs from the entry's stored reply", c)
		}
	}
	wantCounters(t, ts.URL, got[0]+clients, got[1], got[2]+clients)
}
