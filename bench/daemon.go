package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	partition "repro"
	"repro/internal/rng"
	"repro/internal/service"
)

// zipfS is the Zipf exponent of the key popularity.
const zipfS = 1.2

// daemonSpec is a workload that runs mcpartd in-process behind an
// httptest server on loopback and drives it with closed-loop clients: each
// client sends its next request only after the previous reply arrived.
type daemonSpec struct {
	mesh    string
	graphs  int // distinct Type 1 inputs on the mesh, one key each
	m       int // Type 1 constraints
	k       int
	cache   int // result-cache entries
	clients int
}

// reply is what one request returned, as the client saw it.
type reply struct {
	key     int
	ok      bool
	problem string
	status  int
	latency float64 // seconds, request sent to reply body read
	cached  bool
	queueMS float64
	runMS   float64
	hash    uint64
	cut     int64
	trace   []byte
}

// daemonRun is one run's server, inputs and client.
type daemonRun struct {
	spec   daemonSpec
	seed   uint64
	url    string
	client *http.Client
	texts  [][]byte // METIS text per key
	quoted [][]byte // the same text as a JSON string literal
}

func (ds daemonSpec) run(cfg runConfig) (*outcome, error) {
	out := newOutcome(cfg)
	ms, bt := out.metrics, out.bench
	d := &daemonRun{spec: ds, seed: cfg.seed}

	// Set-up unit: one graph generated, overlaid and encoded as request
	// body text.
	in := meshType1(ds.mesh, ds.m)
	units := make([]float64, ds.graphs)
	gens := make([]float64, ds.graphs)
	for i := range units {
		bt.Begin("bench.setup")
		t0 := time.Now()
		g, genS := in.build(instanceSeed(cfg.seed, i))
		gens[i] = genS
		var buf bytes.Buffer
		if err := partition.WriteGraph(&buf, g); err != nil {
			return nil, fmt.Errorf("daemon set-up: %w", err)
		}
		q, err := json.Marshal(buf.String())
		if err != nil {
			return nil, fmt.Errorf("daemon set-up: %w", err)
		}
		d.texts = append(d.texts, buf.Bytes())
		d.quoted = append(d.quoted, q)
		units[i] = time.Since(t0).Seconds()
		bt.End()
	}
	bt.Begin("bench.setup")
	t0 := time.Now()
	srv, err := service.New(service.Config{Workers: 2, CacheEntries: ds.cache})
	if err != nil {
		return nil, fmt.Errorf("daemon set-up: %w", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	transport := &http.Transport{MaxConnsPerHost: ds.clients, MaxIdleConnsPerHost: ds.clients}
	defer transport.CloseIdleConnections()
	d.url, d.client = ts.URL, &http.Client{Transport: transport}
	startS := time.Since(t0).Seconds()
	bt.End()
	ms.set("setup_s", median(units)+startS)
	ms.set("gen.build_s", median(gens))

	// The request stream: keys ranked by a seeded permutation, drawn with
	// Zipf probabilities, handed out in draw order to whichever client is
	// free.
	draw := newZipf(len(d.texts), zipfS, rng.New(cfg.seed*7919+7))
	var mu sync.Mutex
	next := func() int {
		mu.Lock()
		defer mu.Unlock()
		return draw.next()
	}
	resetPeakRSS()
	r0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	perClient := make([][]reply, ds.clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				perClient[c] = append(perClient[c], d.post(next(), false))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	r1 := readRuntime()
	ms.set("peak_rss_mb", float64(vmHWM())/mb)
	var replies []reply
	for _, rs := range perClient {
		replies = append(replies, rs...)
	}

	bt.Begin("bench.verify")
	refs, parseMS, err := d.references()
	if err != nil {
		return nil, err
	}
	ms.set("graph.parse_ms_mean", parseMS)
	firstMiss := make(map[int]float64)
	var lat, hitMS, missMS, queueMS, runMS, overMS []float64
	hits, misses, rejected := 0, 0, 0
	for _, r := range replies {
		out.op(d.check(r, refs))
		if r.status == http.StatusTooManyRequests {
			rejected++
		}
		if !r.ok {
			continue
		}
		// Overhead is the latency neither queued nor partitioning: body
		// decoding, METIS parsing, hashing, encoding and transport. A hit
		// carries the run time of the request that filled the cache, not
		// its own.
		l := r.latency * 1e3
		lat = append(lat, r.latency)
		if r.cached {
			hits++
			hitMS = append(hitMS, l)
			overMS = append(overMS, l)
			continue
		}
		misses++
		missMS = append(missMS, l)
		overMS = append(overMS, l-r.queueMS-r.runMS)
		queueMS = append(queueMS, r.queueMS)
		runMS = append(runMS, r.runMS)
		if _, ok := firstMiss[r.key]; !ok {
			firstMiss[r.key] = r.runMS
		}
	}
	out.check(d.checkMetrics(hits, misses))
	bt.End()

	ms.set("latency_p50_ms", median(lat)*1e3)
	ms.set("latency_tail_ms", tail(lat)*1e3)
	var cutSum float64
	for _, ref := range refs {
		cutSum += float64(ref.cut)
		if ref.imb > ms["max_imbalance"] {
			ms.set("max_imbalance", ref.imb)
		}
	}
	ms.set("edge_cut", cutSum/float64(len(refs)))
	ms.set("service.req_per_s", float64(len(lat))/elapsed)
	ms.set("service.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	ms.set("service.hit_ms_p50", median(hitMS))
	ms.set("service.miss_ms_p50", median(missMS))
	ms.set("service.queue_ms_p50", median(queueMS))
	ms.set("service.run_ms_p50", median(runMS))
	ms.set("service.overhead_ms_p50", median(overMS))
	ms.set("service.rejected", float64(rejected))
	addRuntimeMetrics(ms, r0, r1, len(replies))

	if out.tracer == nil {
		return out, nil
	}
	// One traced request for the most popular key: the daemon runs it
	// without the cache and returns the run's spans.
	k := draw.rank[0]
	bt.Begin("bench.partition")
	r := d.post(k, true)
	bt.End()
	out.op(d.check(r, refs))
	if r.ok {
		ms.set("trace.overhead_frac", ratio(r.runMS, firstMiss[k])-1)
		prof, err := parseTrace(r.trace)
		if err != nil {
			return nil, err
		}
		serialLayers(ms, prof)
	}
	return out, nil
}

// post sends one partition request for key k and reads the whole reply.
func (d *daemonRun) post(k int, traced bool) reply {
	prefix := fmt.Sprintf(`{"k":%d,"seed":%d,"graph":`, d.spec.k, d.seed)
	body := io.MultiReader(strings.NewReader(prefix), bytes.NewReader(d.quoted[k]), strings.NewReader("}"))
	url := d.url + "/v1/partition"
	if traced {
		url += "?trace=1"
	}
	r := reply{key: k}
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		r.problem = err.Error()
		return r
	}
	req.ContentLength = int64(len(prefix) + len(d.quoted[k]) + 1)
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		r.problem = err.Error()
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0).Seconds()
	r.status = resp.StatusCode
	if err != nil {
		r.problem = err.Error()
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.problem = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return r
	}
	var pr service.PartitionResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		r.problem = fmt.Sprintf("bad reply: %v", err)
		return r
	}
	r.ok, r.cached, r.queueMS, r.runMS = true, pr.Cached, pr.QueueMS, pr.RunMS
	r.hash, r.cut, r.trace = hashLabels(pr.Labels), pr.Cut, pr.Trace
	return r
}

// reference is the in-process serial partitioning of one key.
type reference struct {
	hash    uint64
	cut     int64
	imb     float64
	problem string
}

// references parses every key's graph text the way the daemon does and
// partitions it in-process with the daemon's parameters, on as many
// goroutines as the run has clients. It also returns the mean parse
// time per graph in milliseconds.
func (d *daemonRun) references() ([]reference, float64, error) {
	graphs := make([]*partition.Graph, len(d.texts))
	var parse time.Duration
	for i, text := range d.texts {
		t0 := time.Now()
		g, err := partition.ReadGraph(bytes.NewReader(text))
		parse += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("daemon verify: graph %d: %w", i, err)
		}
		graphs[i] = g
	}
	refs := make([]reference, len(graphs))
	todo := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < d.spec.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				g, k := graphs[i], d.spec.k
				labels, st, err := partition.Serial(g, k, partition.SerialOptions{Seed: d.seed, Tol: tol})
				if err != nil {
					refs[i].problem = err.Error()
					continue
				}
				refs[i] = reference{
					hash:    hashLabels(labels),
					cut:     st.EdgeCut,
					imb:     partition.MaxImbalance(g, labels, k),
					problem: checkPartition(g, labels, k, st.EdgeCut),
				}
			}
		}()
	}
	for i := range graphs {
		todo <- i
	}
	close(todo)
	wg.Wait()
	ms := float64(parse) / float64(time.Millisecond) / float64(len(graphs))
	return refs, ms, nil
}

// check verifies one reply: every reply for a key must carry the labels
// and cut of the in-process partitioning of that key, which must itself
// meet the output contract.
func (d *daemonRun) check(r reply, refs []reference) string {
	where := fmt.Sprintf("key %d", r.key)
	ref := refs[r.key]
	switch {
	case !r.ok:
		return where + ": " + r.problem
	case ref.problem != "":
		return where + ": reference: " + ref.problem
	case r.hash != ref.hash:
		return where + ": labels differ from the in-process partitioning"
	case r.cut != ref.cut:
		return fmt.Sprintf("%s: reported cut %d, in-process %d", where, r.cut, ref.cut)
	}
	return ""
}

// checkMetrics verifies that the daemon's /metrics cache counters agree
// with the hits and misses the clients observed.
func (d *daemonRun) checkMetrics(hits, misses int) string {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return "metrics: " + err.Error()
	}
	defer resp.Body.Close()
	want := map[string]int{"mcpartd_cache_hits_total": hits, "mcpartd_cache_misses_total": misses}
	got := make(map[string]int)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 2 {
			if _, ok := want[fs[0]]; ok {
				got[fs[0]], _ = strconv.Atoi(fs[1])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "metrics: " + err.Error()
	}
	for name, n := range want {
		if got[name] != n {
			return fmt.Sprintf("metrics: %s = %d, clients saw %d", name, got[name], n)
		}
	}
	return ""
}

// zipf draws key indices: the key at rank r (1-based) of a seeded
// permutation has probability proportional to r^-s.
type zipf struct {
	rank []int
	cdf  []float64
	r    *rng.RNG
}

func newZipf(n int, s float64, r *rng.RNG) *zipf {
	perm := make([]int32, n)
	r.Perm(perm)
	z := &zipf{rank: make([]int, n), cdf: make([]float64, n), r: r}
	total := 0.0
	for i := range perm {
		z.rank[i] = int(perm[i])
		total += math.Pow(float64(i+1), -s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) next() int {
	i := sort.SearchFloat64s(z.cdf, z.r.Float64())
	if i == len(z.cdf) {
		i--
	}
	return z.rank[i]
}
