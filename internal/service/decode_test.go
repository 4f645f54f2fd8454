package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	partition "repro"
	"repro/internal/gen"
)

// decodeReference is the decode POST /v1/partition made before the
// inline graph got its own path: the whole body through a json.Decoder
// that refuses unknown fields.
func decodeReference(body []byte) (PartitionRequest, error) {
	var req PartitionRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// checkDecode requires decodePartition to decide body as decodeReference
// does: the same error text, or the same request with the same graph.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := decodeReference(body)
	got, text, err := decodePartition(bytes.Clone(body))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("error %v, encoding/json %v\nbody: %q", err, wantErr, body)
	}
	if err != nil {
		return
	}
	if got.Graph != "" {
		t.Fatalf("req.Graph = %q, want it empty beside the text\nbody: %q", got.Graph, body)
	}
	got.Graph = string(text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, encoding/json %+v\nbody: %q", got, want, body)
	}
}

// decodeSeeds are bodies of every shape the decoder must tell apart.
var decodeSeeds = []string{
	// The e2e suite's shapes.
	`{"mesh":"mrng1t","k":8,"p":4,"seed":7}`,
	`{"graph":"3 2 11\n1 2 1\n1 1 1 3 1\n1 2 1\n","k":2,"seed":5}`,
	`{"k":64,"seed":1,"graph":"3 2\n2\n1 3\n2\n"}`,
	`{"graph":"3 2\n2\n1 3\n2\n","k":2,"workload":"type1","m":2,"seed":3,"tol":0.05,"timeout_ms":1000,"coarsen":"cluster"}`,
	` {"graph":"3 2\n2\n1 3\n2\n","k":2}` + "\n",
	`{"graph":"3 2\n2\n1 3\n2\n","k":2,"p":2,"scheme":"slice"}`,
	// Casings encoding/json folds onto the fields.
	`{"Graph":"3 2\n2\n1 3\n2\n","K":2}`,
	`{"graph":"3 2\n2\n1 3\n2\n","K":2,"SEED":4}`,
	`{"graph":"3 2\n2\n1 3\n2\n","Graph":"2 1\n2\n1\n","k":1}`,
	`{"graph":"3 2\n2\n1 3\n2\n","k":2}`,
	// A repeated graph key: the last one wins.
	`{"graph":"2 1\n2\n1\n","graph":"3 2\n2\n1 3\n2\n","k":2}`,
	`{"graph":"3 2\n2\n1 3\n2\n","k":2,"graph":null}`,
	`{"graph":7,"k":2}`,
	`{"graph":null,"k":2}`,
	// Escapes.
	`{"graph":"% café\n3 2\n2\n1 3\n2\n","k":2}`,
	`{"graph":"% a\/b \"q\" \\ \b\f\r\t\n3 2\n2\n1 3\n2\n","k":2}`,
	`{"graph":"% 😀 \ud800 \ud800A \udc00\ud800\n3 2\n2\n1 3\n2\n","k":2}`,
	`{"graph":"% \u00\n","k":2}`,
	`{"graph":"% \x\n","k":2}`,
	`{"graph":"% \'\n","k":2}`,
	"{\"graph\":\"% \xff\xfe\\n3 2\\n2\\n1 3\\n2\\n\",\"k\":2}",
	"{\"graph\":\"% \xed\xa0\x80\\n3 2\\n2\\n1 3\\n2\\n\",\"k\":2}",
	"{\"graph\":\"% tab\there\\n\",\"k\":2}",
	"{\"graph\":\"3 2\n2\n1 3\n2\n\",\"k\":2}",
	// What follows the object is not read.
	`{"graph":"3 2\n2\n1 3\n2\n","k":2} trailing`,
	`{"graph":"3 2\n2\n1 3\n2\n","k":2}{"k":3}`,
	`{"graph":"3 2\n2\n1 3\n2\n","k":2`,
	`{"graph":"3 2\n2\n1 3\n2\n`,
	// Unknown fields, type errors and syntax errors around the graph.
	`{"graph":"3 2\n2\n1 3\n2\n","k":2,"bogus":1}`,
	`{"bogus":{"graph":"x"},"graph":"3 2\n2\n1 3\n2\n","k":2}`,
	`{"graph":"3 2\n2\n1 3\n2\n","k":"2"}`,
	`{"seed":[1,{"a":"]"}],"graph":"3 2\n2\n1 3\n2\n","k":2}`,
	`{"graph":"3 2\n2\n1 3\n2\n" "k":2}`,
	`{"graph":"3 2\n2\n1 3\n2\n",,"k":2}`,
	`{"graph":"3 2\n2\n1 3\n2\n","k":2,}`,
	`{"graph"  :  "3 2\n2\n1 3\n2\n"  ,  "k" : 2 }`,
	`{"k":2e0,"graph":"3 2\n2\n1 3\n2\n"}`,
	`{"k":-1,"tol":1e-3,"graph":""}`,
	// Not an object.
	``, ` `, `null`, `[]`, `"graph"`, `{}`, `{"k":1}`, `{"graph"}`, `{"graph":}`,
}

// FuzzDecodeRequestMatchesJSON holds decodePartition to decodeReference
// on any body: both accept or both refuse it, with the same error text,
// and an accepted body gives the same request and graph text.
func FuzzDecodeRequestMatchesJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestDecodeSpecialBytes: every byte class a JSON string treats apart,
// at every offset of the eight-byte words the literal is scanned in.
func TestDecodeSpecialBytes(t *testing.T) {
	const text = `3 2\n2\n1 3\n2\n% 0123456789abcdef`
	for _, special := range []string{`"`, `\`, `\\`, `\"`, `\/`, `\u00e9`, `\ud83d\ude00`, `\ud800`, `\x`, "\x01", "\x1f", "\x7f", "\u00e9", "\xc3", "\xff", "\xed\xa0\x80"} {
		for p := 0; p <= len(text); p++ {
			checkDecode(t, []byte(`{"graph":"`+text[:p]+special+text[p:]+`","k":2}`))
		}
	}
}

// zipfRequest is one daemon-zipf request body: an mrng2t Type 1 (m=3)
// graph sent inline at k=64, about 1 MB.
func zipfRequest(tb testing.TB) []byte {
	spec, _ := gen.MeshByName("mrng2t")
	var text bytes.Buffer
	if err := partition.WriteGraph(&text, partition.Type1Workload(spec.Build(1000*7919+7), 3, 1100)); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(PartitionRequest{Graph: text.String(), K: 64, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeInlineTakesRequests: the bodies mcbench and the e2e suite
// send go through the fast path, so the whole body is never decoded by
// encoding/json on a miss.
func TestDecodeInlineTakesRequests(t *testing.T) {
	bodies := [][]byte{zipfRequest(t)}
	for _, s := range decodeSeeds[1:6] {
		bodies = append(bodies, []byte(s))
	}
	for _, body := range bodies {
		checkDecode(t, body)
		if _, _, ok := decodeInline(bytes.Clone(body)); !ok {
			t.Errorf("the fast path refused %.60q", body)
		}
	}
}

// missPath decodes, parses and keys body as a POST /v1/partition miss
// does, with no partitioning.
func missPath(tb testing.TB, s *Server, body []byte) *jobSpec {
	req, text, err := decodePartition(body)
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := s.specFor(&req, text)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// BenchmarkPartitionMiss times the ingest of one daemon-zipf request
// that missed the body print: decode, parse and cache key, with no
// partitioning. Each op copies the body into a reused buffer first, as
// decoding unescapes the graph in place.
func BenchmarkPartitionMiss(b *testing.B) {
	body := zipfRequest(b)
	s, err := New(Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, len(body))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, body)
		missPath(b, s, buf)
	}
}

// TestMissPathAllocBudget is the committed allocation budget of a miss's
// ingest on one daemon-zipf body (BenchmarkPartitionMiss's path). What it
// allocates follows from the graph alone: the CSR (8 B per adjacency
// entry), Xadj and the reader's cursors (4 B per vertex each), the vertex
// weights (4 B per vertex and constraint) and the key's 64 KiB chunk,
// plus under 32 KiB for the rest of the object's decode, the hash and the
// job, so a decode that copies the body or its graph fails it.
func TestMissPathAllocBudget(t *testing.T) {
	body := zipfRequest(t)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	buf := make([]byte, len(body))
	want := missPath(t, s, bytes.Clone(body))
	allocs := testing.AllocsPerRun(5, func() {
		copy(buf, body)
		missPath(t, s, buf)
	})
	copy(buf, body)
	var spec *jobSpec
	n := allocated(func() { spec = missPath(t, s, buf) })
	if spec.key != want.key {
		t.Fatal("the key differs between runs")
	}
	g := spec.g
	csr := 8*len(g.Adjncy) + 4*(2*g.NumVertices()+1) + 4*len(g.Vwgt)
	const maxAllocs, slack = 30, 32 << 10
	maxBytes := uint64(csr + keyChunk + slack)
	t.Logf("ingest of a %d-byte body: %.0f allocations, %d B; the graph's arrays take %d B (budget %d, %d B)",
		len(body), allocs, n, csr, maxAllocs, maxBytes)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations, past the budget of %d", allocs, maxAllocs)
	}
	if n > maxBytes {
		t.Errorf("%d B allocated, past the budget of %d B", n, maxBytes)
	}
}

// TestIngestStage: a body-print miss observes one ingest sample, and its
// repeat, a body-print hit answered before decoding, observes none.
func TestIngestStage(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := inlineBody(t, "", 4, 1)
	count := func() string {
		t.Helper()
		for _, line := range strings.Split(fetchMetrics(t, ts.URL), "\n") {
			if strings.HasPrefix(line, `mcpartd_stage_seconds_count{stage="ingest"} `) {
				return strings.TrimPrefix(line, `mcpartd_stage_seconds_count{stage="ingest"} `)
			}
		}
		return "absent"
	}
	if got := count(); got != "absent" {
		t.Fatalf("ingest samples before any request: %s", got)
	}
	mustPost(t, ts.URL, "", body, 200)
	if got := count(); got != "1" {
		t.Fatalf("ingest samples after a miss: %s, want 1", got)
	}
	if !mustPost(t, ts.URL, "", body, 200).Cached {
		t.Fatal("the repeat was not a hit")
	}
	if got := count(); got != "1" {
		t.Fatalf("ingest samples after a body-print hit: %s, want 1", got)
	}
	wantCounters(t, ts.URL, 1, 1, 1)
}
