package service

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func key(b byte) cacheKey {
	var k cacheKey
	k[0] = b
	return k
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	evictions := 0
	c.onEvict = func() { evictions++ }
	c.put(key(1), &Result{Cut: 1})
	c.put(key(2), &Result{Cut: 2})
	if got := c.get(key(1)); got == nil || got.Cut != 1 {
		t.Fatalf("get(1) = %v, want cut 1", got)
	}
	// 1 is now most-recent, so inserting 3 must evict 2.
	c.put(key(3), &Result{Cut: 3})
	if c.get(key(2)) != nil {
		t.Fatalf("entry 2 should have been evicted")
	}
	if c.get(key(1)) == nil || c.get(key(3)) == nil {
		t.Fatalf("entries 1 and 3 should be resident")
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestCacheZeroCapacityDisables(t *testing.T) {
	c := newResultCache(0)
	c.put(key(1), &Result{})
	if c.get(key(1)) != nil {
		t.Fatalf("zero-capacity cache stored an entry")
	}
}

// TestCachePrints covers the body-print index: an entry keeps one print,
// the latest attached; a refresh by put keeps it; eviction removes it; a
// zero-capacity cache attaches none.
func TestCachePrints(t *testing.T) {
	fp := func(b byte) bodyPrint { return bodyPrint(key(b)) }
	shape := responseShape{n: 3, m: 1, k: 2}
	c := newResultCache(2)
	c.put(key(1), &Result{Cut: 1})
	c.attach(key(1), fp(1), shape)
	c.attach(key(1), fp(2), shape)
	if _, _, _, ok := c.getPrint(fp(1)); ok {
		t.Fatal("a replaced print still resolves")
	}
	if res, sh, _, ok := c.getPrint(fp(2)); !ok || res.Cut != 1 || sh != shape {
		t.Fatalf("latest print: ok %v, shape %+v", ok, sh)
	}
	if n := printsLen(c); n != 1 {
		t.Fatalf("one entry holds %d prints, want 1", n)
	}
	c.put(key(1), &Result{Cut: 7})
	if res, _, _, ok := c.getPrint(fp(2)); !ok || res.Cut != 7 {
		t.Fatal("refresh dropped the entry's print or kept the old result")
	}
	c.attach(key(9), fp(9), shape) // not resident: nothing to alias
	if _, _, _, ok := c.getPrint(fp(9)); ok {
		t.Fatal("print attached to a key that is not resident")
	}
	c.put(key(2), &Result{Cut: 2})
	c.put(key(3), &Result{Cut: 3}) // evicts key(1)
	if n := printsLen(c); n != 0 {
		t.Fatalf("eviction left %d prints", n)
	}

	off := newResultCache(0)
	off.put(key(1), &Result{})
	off.attach(key(1), fp(1), shape)
	if n := printsLen(off); n != 0 {
		t.Fatalf("zero-capacity cache attached %d prints", n)
	}
}

// TestCacheReplies covers the stored hit replies: keepReply stores bytes
// only for the result the entry still holds, once, and counts them in the
// cache bytes; a replaced print keeps them; a refresh by put and an
// eviction each drop them.
func TestCacheReplies(t *testing.T) {
	fp := func(b byte) bodyPrint { return bodyPrint(key(b)) }
	shape := responseShape{n: 3, m: 1, k: 2}
	c := newResultCache(2)
	stored := func(p bodyPrint) (*Result, []byte) {
		t.Helper()
		res, _, reply, ok := c.getPrint(p)
		if !ok {
			t.Fatalf("print %d does not resolve", p[0])
		}
		return res, reply
	}
	wantBytes := func(want int64) {
		t.Helper()
		if got := c.bytesNow(); got != want {
			t.Fatalf("cache bytes = %d, want %d", got, want)
		}
	}

	c.put(key(1), &Result{Labels: []int32{0, 1, 1}, Cut: 1})
	c.attach(key(1), fp(1), shape)
	res, reply := stored(fp(1))
	if reply != nil {
		t.Fatalf("a fresh entry holds a reply of %d bytes", len(reply))
	}
	base := c.bytesNow()
	c.keepReply(fp(1), &Result{Cut: 1}, []byte("another result\n"))
	if _, reply := stored(fp(1)); reply != nil {
		t.Fatal("stored a reply encoded from a result the entry does not hold")
	}
	wantBytes(base)

	first := []byte("first\n")
	c.keepReply(fp(1), res, first)
	if _, reply := stored(fp(1)); string(reply) != string(first) {
		t.Fatalf("stored reply = %q, want %q", reply, first)
	}
	wantBytes(base + int64(len(first)))
	c.keepReply(fp(1), res, []byte("a racing first hit's\n"))
	if _, reply := stored(fp(1)); string(reply) != string(first) {
		t.Fatalf("a second keepReply replaced the stored reply with %q", reply)
	}
	wantBytes(base + int64(len(first)))

	c.attach(key(1), fp(2), shape)
	if _, reply := stored(fp(2)); string(reply) != string(first) {
		t.Fatal("a replaced print dropped the stored reply")
	}
	c.put(key(1), &Result{Labels: []int32{0, 1, 1}, Cut: 1})
	res, reply = stored(fp(2))
	if reply != nil {
		t.Fatal("a refresh kept the reply of the result it replaced")
	}
	wantBytes(base)

	c.keepReply(fp(2), res, first)
	wantBytes(base + int64(len(first)))
	c.put(key(2), &Result{Cut: 2})
	c.put(key(3), &Result{Cut: 3}) // evicts key(1)
	if _, _, _, ok := c.getPrint(fp(2)); ok {
		t.Fatal("the evicted entry's print still resolves")
	}
	wantBytes(2 * approxSize(&Result{}))
}

func TestCacheKeyCanonicalization(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	// The same 3-vertex path graph, written with different whitespace,
	// comments, and line layout, must produce the same cache key; a
	// different seed must not.
	a := &PartitionRequest{Graph: "3 2 11\n1 2 1\n1 1 1 3 1\n1 2 1\n", K: 2, Seed: 5}
	b := &PartitionRequest{Graph: "% a comment\n 3   2  11\n1    2 1\n1 1 1 3 1\n\n1 2 1\n", K: 2, Seed: 5}
	c := &PartitionRequest{Graph: "3 2 11\n1 2 1\n1 1 1 3 1\n1 2 1\n", K: 2, Seed: 6}
	sa, err := s.buildSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := s.buildSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.buildSpec(c)
	if err != nil {
		t.Fatal(err)
	}
	if sa.key != sb.key {
		t.Fatalf("whitespace/comment variants hashed differently")
	}
	if sa.key == sc.key {
		t.Fatalf("different seeds hashed identically")
	}

	// Each variant describes the graph of its canonical text and must hash
	// to that text's key: line ends, separators and comments are not part
	// of the graph, nor is the order of a line's neighbours, and a
	// neighbour listed twice is one edge of the summed weight.
	const path = "3 2 11\n1 2 1\n1 1 1 3 1\n1 2 1\n"
	for _, tc := range []struct{ name, canonical, variant string }{
		{"CRLF line ends", path, "3 2 11\r\n1 2 1\r\n1 1 1 3 1\r\n1 2 1\r\n"},
		{"tabs", path, "3\t2\t11\n1\t2\t1\n\t1 1\t1 3\t1\n1 2 1\t\n"},
		{"comments", path, "% header\n3 2 11\n% vertex 1\n1 2 1\n%\n1 1 1 3 1\n% last\n1 2 1\n% end\n"},
		{"neighbours out of order", path, "3 2 11\n1 2 1\n1 3 1 1 1\n1 2 1\n"},
		{"repeated neighbour", "3 2 11\n1 2 3\n1 1 3 3 1\n1 2 1\n", "3 2 11\n1 2 1 2 2\n1 1 2 3 1 1 1\n1 2 1\n"},
	} {
		want, err := s.buildSpec(&PartitionRequest{Graph: tc.canonical, K: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: canonical text: %v", tc.name, err)
		}
		got, err := s.buildSpec(&PartitionRequest{Graph: tc.variant, K: 2, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.key != want.key {
			t.Errorf("%s: key %x, want the canonical text's %x", tc.name, got.key, want.key)
		}
	}
}

// metisText is g's METIS text as WriteMETIS writes it.
func metisText(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCacheKeyGolden pins the canonical key of fixed requests. The disk
// tier stores results under these keys across restarts, so a change to
// the key derivation (the METIS serialization or the parameter tuple)
// orphans every persisted result and must be deliberate.
func TestCacheKeyGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	// The daemon's request shape: an inline mrng2t Type 1 (m=3) graph, as
	// mcbench's daemon-zipf sends it, and an inline Type 2 graph, whose
	// 0/1 phase indicators give many vertices zero weights.
	spec2t, _ := gen.MeshByName("mrng2t")
	type1 := metisText(t, gen.Type1(spec2t.Build(1000*7919+7), 3, 1100))
	spec1t, _ := gen.MeshByName("mrng1t")
	type2 := gen.Type2(spec1t.Build(7), 3, 11)
	if !slicesContainsZero(type2.Vwgt) {
		t.Fatal("the Type 2 graph has no zero vertex weight")
	}
	for _, tc := range []struct {
		name string
		req  PartitionRequest
		want string
	}{
		{"inline path", PartitionRequest{Graph: "3 2 11\n1 2 1\n1 1 1 3 1\n1 2 1\n", K: 2, Seed: 5}, "7e9889bf8b0f24b4ebcd76cd573b74e1f0d9e09226999eb2476db9d0181a32db"},
		{"inline mrng2t type1 m=3", PartitionRequest{Graph: type1, K: 64, Seed: 1}, "f42ced06c01e7c0e727d9520a911ed22608bf1a87b1cd181c74afb0a7dd7a9f6"},
		{"inline mrng1t type2 m=3", PartitionRequest{Graph: metisText(t, type2), K: 8, Seed: 2}, "0c975af065ddad9ac3ff21b7d58f6d9ea82d9456463a46f97207866865e77e13"},
		{"mesh type1 parallel", PartitionRequest{Mesh: "mrng1t", Workload: "type1", M: 3, K: 8, P: 4, Seed: 7, Tol: 0.03, Scheme: "slice"}, "be5bac48505f272abdb6fb83de03aa73d589ea027bcc0b3b90a32674a25a82b7"},
		{"mesh type2 cluster", PartitionRequest{Mesh: "mrng1t", Workload: "type2", M: 2, K: 16, Seed: 3, Coarsen: "cluster"}, "1369dd2c5abfafe52bfe100a8f470f436b5f9f1612f795676f0fe9ac2f25eff8"},
	} {
		spec, err := s.buildSpec(&tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", spec.key); got != tc.want {
			t.Errorf("%s: key = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// slicesContainsZero reports whether w holds a zero.
func slicesContainsZero(w []int32) bool {
	for _, x := range w {
		if x == 0 {
			return true
		}
	}
	return false
}

func TestBuildSpecValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxVertices: 10000})
	defer s.Close()
	cases := []struct {
		name string
		req  PartitionRequest
		want string // substring of the error
	}{
		{"neither input", PartitionRequest{K: 2}, "exactly one"},
		{"both inputs", PartitionRequest{Graph: "1 0\n1\n", Mesh: "mrng1t", K: 2}, "exactly one"},
		{"bad k", PartitionRequest{Mesh: "mrng1t"}, "k = 0"},
		{"negative p", PartitionRequest{Mesh: "mrng1t", K: 2, P: -1}, "p = -1"},
		{"bad tol", PartitionRequest{Mesh: "mrng1t", K: 2, Tol: 1.5}, "tol"},
		{"bad scheme", PartitionRequest{Mesh: "mrng1t", K: 2, Scheme: "magic"}, "unknown scheme"},
		{"unknown mesh", PartitionRequest{Mesh: "nope", K: 2}, "unknown mesh"},
		{"mesh too big", PartitionRequest{Mesh: "mrng2t", K: 2}, "above the"},
		{"bad workload", PartitionRequest{Mesh: "mrng1t", K: 2, Workload: "type9"}, "unknown workload"},
		{"workload needs m", PartitionRequest{Mesh: "mrng1t", K: 2, Workload: "type1"}, "m >= 1"},
		{"garbage graph", PartitionRequest{Graph: "not a graph", K: 2}, "graph:"},
		{"k over n", PartitionRequest{Graph: "2 1 11\n1 2 1\n1 1 1\n", K: 5}, "exceeds vertex count"},
		{"one-sided edge", PartitionRequest{Graph: "2 1 10\n1 2\n1\n", K: 1}, "vertex 2 does not list 1"},
		{"summed weight past int32", PartitionRequest{Graph: "2 1 1\n2 2147483647 2 2147483647 2 2147483647\n1 2147483647 1 2147483647 1 2147483647\n", K: 1}, "repeated edge {1,2}"},
		{"empty graph overlay", PartitionRequest{Graph: "0 0\n", K: 1, Workload: "type2", M: 2}, "exceeds vertex count"},
	}
	for _, tc := range cases {
		_, err := s.buildSpec(&tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestMetricsRenderDeterministic(t *testing.T) {
	m := newMetrics()
	m.queueDepth = func() int { return 0 }
	m.cacheLen = func() int { return 0 }
	m.countRequest(200)
	m.countRequest(429)
	m.countJob("ok")
	m.countJob("timeout")
	m.observeStage("run", 0.2)
	m.observeStage("queue", 0.001)
	var a, b strings.Builder
	m.Render(&a)
	m.Render(&b)
	if a.String() != b.String() {
		t.Fatalf("two renders of the same registry differ")
	}
	for _, want := range []string{
		`mcpartd_requests_total{code="200"} 1`,
		`mcpartd_requests_total{code="429"} 1`,
		`mcpartd_jobs_total{status="ok"} 1`,
		`mcpartd_stage_seconds_bucket{stage="run",le="0.5"} 1`,
		`mcpartd_stage_seconds_bucket{stage="run",le="+Inf"} 1`,
		`mcpartd_stage_seconds_count{stage="queue"} 1`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("render missing %q\n%s", want, a.String())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram()
	h.observe(0.0005) // le 0.001
	h.observe(0.3)    // le 0.5
	h.observe(120)    // +Inf
	if h.counts[0] != 1 || h.counts[len(histBuckets)] != 1 {
		t.Fatalf("bucket routing wrong: %v", h.counts)
	}
	if h.n != 3 {
		t.Fatalf("n = %d, want 3", h.n)
	}
}
