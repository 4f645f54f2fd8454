package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// histBuckets are the upper bounds (seconds) of the latency histograms,
// log-spaced from 1ms to 60s: partition jobs span sub-millisecond cache
// fills to minute-scale parallel runs on the large meshes.
var histBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60}

// histogram is a fixed-bucket latency histogram in the Prometheus sense:
// cumulative bucket counts, a sum, and a total count.
type histogram struct {
	counts []int64 // per-bucket (non-cumulative) counts; +Inf is the last slot
	sum    float64
	n      int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(histBuckets)+1)}
}

// observe records one duration in seconds.
func (h *histogram) observe(s float64) {
	i := 0
	for i < len(histBuckets) && s > histBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += s
	h.n++
}

// Metrics is the daemon's metric registry. It is deliberately tiny and
// stdlib-only: a handful of counters and histograms behind one mutex,
// rendered in the Prometheus text exposition format. All label sets are
// rendered in sorted order so /metrics output is deterministic.
type Metrics struct {
	mu sync.Mutex

	requests map[string]int64 // HTTP responses by status code
	jobs     map[string]int64 // finished jobs by outcome: ok|timeout|canceled|error
	coarsen  map[string]int64 // executed partition jobs by coarsening scheme

	queueRejected  int64
	cacheHits      int64
	cacheMisses    int64
	cacheBodyHits  int64 // the hits found by body print, before decoding
	cacheEvictions int64

	diskHits      int64
	diskMisses    int64
	diskEvictions int64

	sessionsCreated   int64
	repartitions      map[string]int64 // completed repartitions by method
	migrationVertices int64            // vertices migrated across all repartitions
	migrationWeight   int64            // summed per-constraint weight migrated

	stages map[string]*histogram // per-stage latency: ingest|queue|run|total

	// gauges, read at render time
	queueDepth   func() int
	cacheLen     func() int
	cacheBytes   func() int64
	diskLen      func() int   // nil when the disk tier is disabled
	diskBytes    func() int64 // nil when the disk tier is disabled
	sessionsLive func() int
	workers      int
	queueCap     int
}

func newMetrics() *Metrics {
	return &Metrics{
		requests:     make(map[string]int64),
		jobs:         make(map[string]int64),
		coarsen:      make(map[string]int64),
		repartitions: make(map[string]int64),
		stages:       make(map[string]*histogram),
		// Gauge closures default to zero so a partially-wired registry
		// (tests, embedders) still renders.
		queueDepth:   func() int { return 0 },
		cacheLen:     func() int { return 0 },
		cacheBytes:   func() int64 { return 0 },
		sessionsLive: func() int { return 0 },
	}
}

func (m *Metrics) countRequest(code int) {
	m.mu.Lock()
	m.requests[strconv.Itoa(code)]++
	m.mu.Unlock()
}

func (m *Metrics) countJob(outcome string) {
	m.mu.Lock()
	m.jobs[outcome]++
	m.mu.Unlock()
}

// countCoarsen records one executed (not cached) partition job under the
// coarsening scheme it asked for.
func (m *Metrics) countCoarsen(scheme string) {
	m.mu.Lock()
	m.coarsen[scheme]++
	m.mu.Unlock()
}

func (m *Metrics) countQueueRejected() {
	m.mu.Lock()
	m.queueRejected++
	m.mu.Unlock()
}

func (m *Metrics) countCache(hit bool) {
	m.mu.Lock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMisses++
	}
	m.mu.Unlock()
}

// countBodyHit records that a hit, already counted by countCache, was
// found by body print.
func (m *Metrics) countBodyHit() {
	m.mu.Lock()
	m.cacheBodyHits++
	m.mu.Unlock()
}

func (m *Metrics) countEviction() {
	m.mu.Lock()
	m.cacheEvictions++
	m.mu.Unlock()
}

func (m *Metrics) countDisk(hit bool) {
	m.mu.Lock()
	if hit {
		m.diskHits++
	} else {
		m.diskMisses++
	}
	m.mu.Unlock()
}

func (m *Metrics) countDiskEviction() {
	m.mu.Lock()
	m.diskEvictions++
	m.mu.Unlock()
}

func (m *Metrics) countSessionCreated() {
	m.mu.Lock()
	m.sessionsCreated++
	m.mu.Unlock()
}

// countRepartition records one completed repartition: the method that ran
// and its migration volume (vertices moved, total weight moved across all
// constraints).
func (m *Metrics) countRepartition(method string, movedVertices int, movedWeight int64) {
	m.mu.Lock()
	m.repartitions[method]++
	m.migrationVertices += int64(movedVertices)
	m.migrationWeight += movedWeight
	m.mu.Unlock()
}

// observeStage records a stage latency in seconds.
func (m *Metrics) observeStage(stage string, seconds float64) {
	m.mu.Lock()
	h := m.stages[stage]
	if h == nil {
		h = newHistogram()
		m.stages[stage] = h
	}
	h.observe(seconds)
	m.mu.Unlock()
}

// snapshotCounters returns selected counter values for tests.
func (m *Metrics) snapshotCounters() (hits, misses, rejected int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits, m.cacheMisses, m.queueRejected
}

// sortedKeys returns the map's keys in sorted order; all map iteration in
// the render path goes through it so the exposition text is stable.
func sortedKeys[V any](mp map[string]V) []string {
	keys := make([]string, 0, len(mp))
	for k := range mp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render writes the registry in the Prometheus text exposition format.
func (m *Metrics) Render(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP mcpartd_requests_total HTTP responses by status code.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_requests_total counter\n")
	for _, code := range sortedKeys(m.requests) {
		fmt.Fprintf(w, "mcpartd_requests_total{code=%q} %d\n", code, m.requests[code])
	}

	fmt.Fprintf(w, "# HELP mcpartd_jobs_total Finished partition jobs by outcome.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_jobs_total counter\n")
	for _, st := range sortedKeys(m.jobs) {
		fmt.Fprintf(w, "mcpartd_jobs_total{status=%q} %d\n", st, m.jobs[st])
	}

	fmt.Fprintf(w, "# HELP mcpartd_jobs_by_coarsen_total Executed partition jobs by coarsening scheme.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_jobs_by_coarsen_total counter\n")
	for _, sc := range sortedKeys(m.coarsen) {
		fmt.Fprintf(w, "mcpartd_jobs_by_coarsen_total{scheme=%q} %d\n", sc, m.coarsen[sc])
	}

	fmt.Fprintf(w, "# HELP mcpartd_queue_depth Jobs waiting in the admission queue.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_queue_depth gauge\n")
	fmt.Fprintf(w, "mcpartd_queue_depth %d\n", m.queueDepth())
	fmt.Fprintf(w, "# HELP mcpartd_queue_capacity Admission queue capacity.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_queue_capacity gauge\n")
	fmt.Fprintf(w, "mcpartd_queue_capacity %d\n", m.queueCap)
	fmt.Fprintf(w, "# HELP mcpartd_workers Size of the worker pool.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_workers gauge\n")
	fmt.Fprintf(w, "mcpartd_workers %d\n", m.workers)
	fmt.Fprintf(w, "# HELP mcpartd_queue_rejected_total Admissions refused with 429 because the queue was full.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_queue_rejected_total counter\n")
	fmt.Fprintf(w, "mcpartd_queue_rejected_total %d\n", m.queueRejected)

	fmt.Fprintf(w, "# HELP mcpartd_cache_hits_total Requests served from the result cache.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_cache_hits_total counter\n")
	fmt.Fprintf(w, "mcpartd_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintf(w, "# HELP mcpartd_cache_misses_total Requests that had to compute.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_cache_misses_total counter\n")
	fmt.Fprintf(w, "mcpartd_cache_misses_total %d\n", m.cacheMisses)
	fmt.Fprintf(w, "# HELP mcpartd_cache_body_hits_total Cache hits found by request-body fingerprint, before decoding (a subset of mcpartd_cache_hits_total).\n")
	fmt.Fprintf(w, "# TYPE mcpartd_cache_body_hits_total counter\n")
	fmt.Fprintf(w, "mcpartd_cache_body_hits_total %d\n", m.cacheBodyHits)
	fmt.Fprintf(w, "# HELP mcpartd_cache_evictions_total LRU evictions from the result cache.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_cache_evictions_total counter\n")
	fmt.Fprintf(w, "mcpartd_cache_evictions_total %d\n", m.cacheEvictions)
	fmt.Fprintf(w, "# HELP mcpartd_cache_entries Resident entries in the result cache.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_cache_entries gauge\n")
	fmt.Fprintf(w, "mcpartd_cache_entries %d\n", m.cacheLen())
	fmt.Fprintf(w, "# HELP mcpartd_cache_bytes Approximate resident bytes in the in-memory result cache.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_cache_bytes gauge\n")
	fmt.Fprintf(w, "mcpartd_cache_bytes %d\n", m.cacheBytes())

	if m.diskLen != nil {
		fmt.Fprintf(w, "# HELP mcpartd_disk_cache_hits_total Memory-cache misses served from the disk tier.\n")
		fmt.Fprintf(w, "# TYPE mcpartd_disk_cache_hits_total counter\n")
		fmt.Fprintf(w, "mcpartd_disk_cache_hits_total %d\n", m.diskHits)
		fmt.Fprintf(w, "# HELP mcpartd_disk_cache_misses_total Lookups that missed both cache tiers.\n")
		fmt.Fprintf(w, "# TYPE mcpartd_disk_cache_misses_total counter\n")
		fmt.Fprintf(w, "mcpartd_disk_cache_misses_total %d\n", m.diskMisses)
		fmt.Fprintf(w, "# HELP mcpartd_disk_cache_evictions_total Segments deleted to hold the disk-cache byte bound.\n")
		fmt.Fprintf(w, "# TYPE mcpartd_disk_cache_evictions_total counter\n")
		fmt.Fprintf(w, "mcpartd_disk_cache_evictions_total %d\n", m.diskEvictions)
		fmt.Fprintf(w, "# HELP mcpartd_disk_cache_entries Segment files resident in the disk cache.\n")
		fmt.Fprintf(w, "# TYPE mcpartd_disk_cache_entries gauge\n")
		fmt.Fprintf(w, "mcpartd_disk_cache_entries %d\n", m.diskLen())
		fmt.Fprintf(w, "# HELP mcpartd_disk_cache_bytes Total bytes of resident disk-cache segments.\n")
		fmt.Fprintf(w, "# TYPE mcpartd_disk_cache_bytes gauge\n")
		fmt.Fprintf(w, "mcpartd_disk_cache_bytes %d\n", m.diskBytes())
	}

	fmt.Fprintf(w, "# HELP mcpartd_sessions_live Sessions currently held by the session store.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_sessions_live gauge\n")
	fmt.Fprintf(w, "mcpartd_sessions_live %d\n", m.sessionsLive())
	fmt.Fprintf(w, "# HELP mcpartd_sessions_created_total Sessions created since startup.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_sessions_created_total counter\n")
	fmt.Fprintf(w, "mcpartd_sessions_created_total %d\n", m.sessionsCreated)
	fmt.Fprintf(w, "# HELP mcpartd_repartitions_total Completed session repartitions by executed method.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_repartitions_total counter\n")
	for _, method := range sortedKeys(m.repartitions) {
		fmt.Fprintf(w, "mcpartd_repartitions_total{method=%q} %d\n", method, m.repartitions[method])
	}
	fmt.Fprintf(w, "# HELP mcpartd_migration_vertices_total Vertices that changed subdomain across all repartitions.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_migration_vertices_total counter\n")
	fmt.Fprintf(w, "mcpartd_migration_vertices_total %d\n", m.migrationVertices)
	fmt.Fprintf(w, "# HELP mcpartd_migration_weight_total Summed per-constraint vertex weight that changed subdomain (the migration volume).\n")
	fmt.Fprintf(w, "# TYPE mcpartd_migration_weight_total counter\n")
	fmt.Fprintf(w, "mcpartd_migration_weight_total %d\n", m.migrationWeight)

	fmt.Fprintf(w, "# HELP mcpartd_stage_seconds Per-stage latency of partition requests.\n")
	fmt.Fprintf(w, "# TYPE mcpartd_stage_seconds histogram\n")
	for _, stage := range sortedKeys(m.stages) {
		h := m.stages[stage]
		cum := int64(0)
		for i, ub := range histBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "mcpartd_stage_seconds_bucket{stage=%q,le=%q} %d\n", stage, formatBound(ub), cum)
		}
		cum += h.counts[len(histBuckets)]
		fmt.Fprintf(w, "mcpartd_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, cum)
		fmt.Fprintf(w, "mcpartd_stage_seconds_sum{stage=%q} %g\n", stage, h.sum)
		fmt.Fprintf(w, "mcpartd_stage_seconds_count{stage=%q} %d\n", stage, h.n)
	}
}

// formatBound renders a bucket bound the way Prometheus clients expect
// (shortest decimal form, no exponent for these magnitudes).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
