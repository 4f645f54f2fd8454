// Package service is the partition-as-a-service layer: an HTTP JSON API
// over the serial (SC'98) and parallel (Euro-Par 2000) multi-constraint
// partitioners, built for sustained traffic rather than one-shot CLI runs.
//
// The moving parts, each in its own file:
//
//   - server.go — request parsing/validation, the POST /v1/partition,
//     GET /healthz and GET /metrics handlers, and result shaping.
//   - queue.go — a bounded worker pool behind an explicit admission
//     queue: overflow is refused with 429 + Retry-After (backpressure)
//     instead of spawning unbounded goroutines.
//   - cache.go — a content-addressed LRU over completed results, keyed by
//     the canonical METIS serialization of the graph plus the parameter
//     tuple, so identical requests never recompute; a second index by
//     request-body SHA-256 answers byte-identical repeats before decoding.
//   - metrics.go — a tiny stdlib-only Prometheus text registry: request
//     and job counters, queue depth, cache hit ratio, per-stage latency
//     histograms.
//
// Jobs run under a per-job deadline merged with the client connection's
// context, and cancellation reaches all the way into the multilevel
// pipeline (see partition.SerialContext/ParallelContext): an expired
// deadline tears down the p simulated ranks cleanly mid-run.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	partition "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prefine"
	"repro/internal/service/store"
)

// Config sizes the daemon. The zero value of any field selects the
// documented default.
type Config struct {
	// Workers is the number of concurrent partition jobs (default 2).
	Workers int
	// QueueDepth is the number of admitted-but-not-started jobs the
	// server will hold before answering 429 (default 4*Workers).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 128; 0 after
	// defaulting disables caching — use -1 to request that explicitly).
	CacheEntries int
	// MaxBodyBytes caps the request body (default 64 MiB).
	MaxBodyBytes int64
	// MaxVertices / MaxEdges cap accepted graphs (default 8M / 64M —
	// mrng4-sized headroom).
	MaxVertices int
	MaxEdges    int
	// DefaultTimeout applies when a request names none; MaxTimeout caps
	// what a request may ask for (defaults 60s / 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// CacheDir, when non-empty, enables the disk-persistent result-cache
	// tier under that directory: results survive restarts and are served
	// as warm hits after a memory miss. Requires the memory cache to be
	// enabled (Validate rejects the contradiction).
	CacheDir string
	// DiskCacheBytes bounds the disk tier (0 = default 256 MiB after
	// defaulting; negative disables the tier and is rejected when
	// CacheDir is also set, matching the -cache "negative disables"
	// convention).
	DiskCacheBytes int64

	// MaxSessions bounds the session store (default 64); SessionTTL is
	// the idle lifetime after which a session may be swept (default 1h).
	MaxSessions int
	SessionTTL  time.Duration

	// MaxBatchJobs caps the number of jobs one POST /v1/batch may carry
	// (default 64).
	MaxBatchJobs int

	// CoarsenWorkers sets the shared-memory worker count for the
	// coarsening kernels of every serial job. It is a server-wide tuning
	// knob, not a request field, because it cannot change any result: the
	// coarsening is bit-identical for every worker count, which is also why
	// it does not enter the result-cache key — cached entries stay valid
	// across restarts with a different value.
	CoarsenWorkers int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 8 << 20
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = time.Hour
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 64
	}
	return c
}

// Validate rejects contradictory configurations before any state is
// created. It runs on the raw (pre-defaulting) config, because the
// contradictions it catches are between explicit operator choices.
func (c Config) Validate() error {
	if c.CacheDir != "" && c.CacheEntries < 0 {
		return errors.New("service: -cache-dir requires the in-memory cache: a negative -cache disables caching entirely (drop -cache-dir, or use -cache 0 for the default)")
	}
	if c.CacheDir != "" && c.DiskCacheBytes < 0 {
		return errors.New("service: -cache-dir with a negative -cache-disk-bytes is contradictory: negative disables the disk tier (drop -cache-dir, or use -cache-disk-bytes 0 for the default)")
	}
	if c.CacheDir == "" && c.DiskCacheBytes > 0 {
		return errors.New("service: -cache-disk-bytes without -cache-dir: the disk tier needs a directory")
	}
	return nil
}

// PartitionRequest is the body of POST /v1/partition. Exactly one of
// Graph (inline METIS 4.0 text) or Mesh (a named synthetic mrng-like
// mesh) selects the input; Workload optionally overlays a Type 1/Type 2
// multi-constraint problem with M constraints, exactly like `mcpart`.
type PartitionRequest struct {
	Graph    string `json:"graph,omitempty"`
	Mesh     string `json:"mesh,omitempty"`
	Workload string `json:"workload,omitempty"`
	M        int    `json:"m,omitempty"`

	K      int     `json:"k"`
	P      int     `json:"p,omitempty"` // 0 = serial algorithm
	Seed   uint64  `json:"seed,omitempty"`
	Tol    float64 `json:"tol,omitempty"`    // 0 = default 0.05
	Scheme string  `json:"scheme,omitempty"` // reservation|slice|slice-smart|free
	// Coarsen selects the coarsening scheme for serial jobs:
	// matching (default), cluster (power-law graphs), or auto. Serial-only:
	// a request naming p > 0 with a non-matching scheme is rejected.
	Coarsen string `json:"coarsen,omitempty"`

	// TimeoutMS is the per-job deadline in milliseconds, covering queue
	// wait and execution (0 = server default, capped at the server max).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PartitionResponse is the success body of POST /v1/partition.
type PartitionResponse struct {
	N          int       `json:"n"`
	M          int       `json:"m"`
	K          int       `json:"k"`
	P          int       `json:"p"`
	Seed       uint64    `json:"seed"`
	Scheme     string    `json:"scheme,omitempty"` // parallel runs only
	Cut        int64     `json:"cut"`
	CommVolume int64     `json:"comm_volume"`
	Imbalances []float64 `json:"imbalances"`
	Labels     []int32   `json:"labels"`
	Cached     bool      `json:"cached"`
	QueueMS    float64   `json:"queue_ms"`
	RunMS      float64   `json:"run_ms"`
	// Trace is the Chrome trace-event JSON of the run, present only when
	// the request asked for it with ?trace=1 (open in Perfetto).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// errorResponse is the body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// jobSpec is a validated, executable unit of work.
type jobSpec struct {
	g       *partition.Graph
	k, p    int
	seed    uint64
	tol     float64
	scheme  prefine.Scheme
	coarsen partition.CoarsenScheme
	traced  bool // ?trace=1: record and return a span trace
	key     cacheKey
	print   *bodyPrint // print of the POST /v1/partition body; nil elsewhere
}

// responseShape is the part of a PartitionResponse the cache key
// determines, so a cached entry can answer without its request.
type responseShape struct {
	n, m, k, p int
	seed       uint64
	scheme     string // parallel runs only
}

func (spec *jobSpec) shape() responseShape {
	sh := responseShape{n: spec.g.NumVertices(), m: spec.g.Ncon, k: spec.k, p: spec.p, seed: spec.seed}
	if spec.p > 0 {
		sh.scheme = spec.scheme.String()
	}
	return sh
}

// RepartInfo is the migration report of a session repartition, attached
// to its Result.
type RepartInfo struct {
	Method        string
	MovedVertices int
	MovedWeight   []int64
	MovedFraction float64
}

// Result is a completed partitioning, shared between the cache and
// responses; immutable after construction.
type Result struct {
	Labels     []int32
	Cut        int64
	CommVolume int64
	Imbalances []float64
	RunSeconds float64
	// Trace holds the exported Chrome trace-event JSON of a traced run;
	// nil otherwise. Traced results bypass the cache in both directions.
	Trace []byte
	// Repart carries the migration report of a session repartition job;
	// nil for plain partition jobs. Repartition results are stateful
	// (they depend on the previous labelling) and are never cached.
	Repart *RepartInfo
}

// Server wires the queue, cache tiers, session store, and metrics behind
// an http.Handler.
type Server struct {
	cfg      Config
	pool     *workerPool
	cache    *resultCache
	disk     *store.DiskCache // nil when the disk tier is disabled
	sessions *store.Sessions
	met      *Metrics
	mux      *http.ServeMux
	closed   atomic.Bool
}

// New builds a ready-to-serve Server, opening (and scanning) the disk
// cache tier when the config names one. Call Close to drain it.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg.withDefaults()}
	s.met = newMetrics()
	s.cache = newResultCache(s.cfg.CacheEntries)
	s.cache.onEvict = s.met.countEviction
	if s.cfg.CacheDir != "" {
		disk, err := store.Open(s.cfg.CacheDir, store.DiskOptions{
			MaxBytes: s.cfg.DiskCacheBytes,
			OnEvict:  s.met.countDiskEviction,
		})
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.met.diskLen = disk.Len
		s.met.diskBytes = disk.Bytes
	}
	s.sessions = store.NewSessions(s.cfg.MaxSessions, s.cfg.SessionTTL)
	s.pool = newWorkerPool(s.cfg.Workers, s.cfg.QueueDepth, s.runJob)
	s.met.queueDepth = s.pool.depth
	s.met.cacheLen = s.cache.len
	s.met.cacheBytes = s.cache.bytesNow
	s.met.sessionsLive = s.sessions.Len
	s.met.workers = s.cfg.Workers
	s.met.queueCap = s.cfg.QueueDepth
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/partition", s.handlePartition)
	s.mux.HandleFunc("/v1/partition/stream", s.handleStream)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("/v1/sessions/", s.handleSessionSubtree)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool: admission stops (handlers answer 503) and
// Close blocks until every queued and running job has finished. Stop the
// HTTP listener first (http.Server.Shutdown) so no handler is still
// waiting on a job.
func (s *Server) Close() {
	s.closed.Store(true)
	s.pool.close()
}

// Metrics exposes the registry (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.met }

func (s *Server) writeJSON(w http.ResponseWriter, code int, body any) {
	s.writeReply(w, code, encodeJSON(body))
}

// encodeJSON encodes v as json.Encoder does, trailing newline included.
// A value the encoder refuses encodes to no bytes.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// writeReply writes an encoded JSON reply with its length. Every JSON
// answer goes through it, the stored reply of a body-print hit included.
func (s *Server) writeReply(w http.ResponseWriter, code int, reply []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(reply)))
	w.WriteHeader(code)
	_, _ = w.Write(reply) // a failed write means the client is gone
	s.met.countRequest(code)
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	h := map[string]any{
		"status":         "ok",
		"queue_depth":    s.pool.depth(),
		"queue_capacity": s.cfg.QueueDepth,
		"workers":        s.cfg.Workers,
		"cache_entries":  s.cache.len(),
		"sessions_live":  s.sessions.Len(),
	}
	if s.disk != nil {
		h["disk_cache_entries"] = s.disk.Len()
		h["disk_cache_bytes"] = s.disk.Bytes()
	}
	s.writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	s.met.Render(w)
	s.met.countRequest(http.StatusOK)
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.closed.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	start := time.Now()

	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	traced := r.URL.Query().Get("trace") == "1"
	fp := bodyPrint(sha256.Sum256(body))
	// A byte-identical repeat of a body answered before is a memory hit
	// found without decoding, parsing or key derivation; it never reaches
	// the disk tier. Its reply is the entry's stored one, encoded on the
	// entry's first such hit. Traced requests skip it, as they skip the
	// cache.
	if !traced {
		if res, shape, reply, ok := s.cache.getPrint(fp); ok {
			s.met.countCache(true)
			s.met.countBodyHit()
			if reply == nil {
				reply = s.partitionReply(shape, res, true, 0)
				s.cache.keepReply(fp, res, reply)
			}
			s.met.observeStage("total", time.Since(start).Seconds())
			s.writeReply(w, http.StatusOK, reply)
			return
		}
	}

	// Ingest: decode, parse or build the graph, overlay and key. The
	// body is not read again, so its graph is unescaped in place.
	ingest := time.Now()
	req, text, err := decodePartition(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	spec, err := s.specFor(&req, text)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.observeStage("ingest", time.Since(ingest).Seconds())
	spec.traced = traced
	spec.print = &fp
	s.servePartition(w, r, &req, spec, start)
}

// servePartition is the shared tail of /v1/partition and
// /v1/partition/stream: cache tiers, admission, execution, response.
func (s *Server) servePartition(w http.ResponseWriter, r *http.Request, req *PartitionRequest, spec *jobSpec, start time.Time) {
	// Cache first: a hit costs no queue slot and no worker. Traced
	// requests skip the lookup — the client wants a recording of an
	// actual run, not a cached result without one.
	if !spec.traced {
		if res, ok := s.lookupCached(spec.key); ok {
			s.attachPrint(spec)
			s.respond(w, spec.shape(), res, true, 0, time.Since(start))
			return
		}
	}

	// Admission. The job's deadline starts here and covers queue wait, so
	// a job cannot consume a worker after its caller stopped caring.
	timeout := s.jobTimeout(req.TimeoutMS)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	j := &job{ctx: ctx, work: spec, enqueued: time.Now(), done: make(chan struct{})}
	if !s.pool.trySubmit(j) {
		s.met.countQueueRejected()
		// A full queue of partition jobs drains on the scale of seconds;
		// a constant small hint is honest enough and trivially cacheable.
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests,
			"admission queue full (%d waiting); retry later", s.cfg.QueueDepth)
		return
	}

	<-j.done
	queueWait := time.Since(j.enqueued)
	if j.err != nil {
		code, msg := s.classifyJobError(j.err, timeout)
		s.writeError(w, code, "%s", msg)
		return
	}
	s.met.countJob("ok")
	if !spec.traced {
		// Traced results stay out of the cache: their Trace payloads are
		// large, one-shot, and must not be replayed to untraced callers.
		s.storeResult(spec.key, j.res)
		s.attachPrint(spec)
	}
	s.met.observeStage("queue", queueWait.Seconds()-j.res.RunSeconds)
	s.met.observeStage("run", j.res.RunSeconds)
	s.respond(w, spec.shape(), j.res, false, queueWait-time.Duration(j.res.RunSeconds*float64(time.Second)), time.Since(start))
}

// attachPrint aliases the request's body print, if it has one, to the
// cache entry that answered it. It runs before the response is written,
// so a client that has read a reply can count on its repeat finding the
// print.
func (s *Server) attachPrint(spec *jobSpec) {
	if spec.print != nil {
		s.cache.attach(spec.key, *spec.print, spec.shape())
	}
}

// jobTimeout merges the request's deadline wish with the server policy.
func (s *Server) jobTimeout(timeoutMS int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// classifyJobError maps a failed job to (HTTP status, message) and counts
// it. Shared by the single-job, batch, and session paths.
func (s *Server) classifyJobError(err error, timeout time.Duration) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.countJob("timeout")
		return http.StatusGatewayTimeout, fmt.Sprintf("job exceeded its %v deadline", timeout)
	case errors.Is(err, context.Canceled):
		s.met.countJob("canceled")
		// The client is gone; the status code is for the log line.
		return statusClientClosedRequest, "client canceled the request"
	default:
		s.met.countJob("error")
		return http.StatusBadRequest, err.Error()
	}
}

// lookupCached consults the memory tier then the disk tier, promoting a
// disk hit into memory so the next lookup is cheap. The counters tell the
// tiers apart: a disk hit counts as a memory miss plus a disk hit.
func (s *Server) lookupCached(key cacheKey) (*Result, bool) {
	if res := s.cache.get(key); res != nil {
		s.met.countCache(true)
		return res, true
	}
	s.met.countCache(false)
	if s.disk == nil {
		return nil, false
	}
	rec, ok := s.disk.Get(store.Key(key))
	s.met.countDisk(ok)
	if !ok {
		return nil, false
	}
	res := &Result{
		Labels:     rec.Labels,
		Cut:        rec.Cut,
		CommVolume: rec.CommVolume,
		Imbalances: rec.Imbalances,
		RunSeconds: rec.RunSeconds,
	}
	s.cache.put(key, res)
	return res, true
}

// storeResult writes a completed plain-partition result through both cache
// tiers. Disk failures are deliberately non-fatal: the response is already
// computed, and a full disk must not fail the request.
func (s *Server) storeResult(key cacheKey, res *Result) {
	s.cache.put(key, res)
	if s.disk == nil || res.Repart != nil {
		return
	}
	_ = s.disk.Put(store.Key(key), &store.Record{
		Labels:     res.Labels,
		Cut:        res.Cut,
		CommVolume: res.CommVolume,
		Imbalances: res.Imbalances,
		RunSeconds: res.RunSeconds,
	})
}

// statusClientClosedRequest is nginx's conventional code for "client went
// away"; there is no official HTTP status for it.
const statusClientClosedRequest = 499

func (s *Server) respond(w http.ResponseWriter, shape responseShape, res *Result, cached bool, queueWait, total time.Duration) {
	s.met.observeStage("total", total.Seconds())
	s.writeReply(w, http.StatusOK, s.partitionReply(shape, res, cached, queueWait))
}

// partitionReply encodes the 200 body of a /v1/partition answer.
func (s *Server) partitionReply(shape responseShape, res *Result, cached bool, queueWait time.Duration) []byte {
	body := s.shapeResponse(shape, res, cached, queueWait)
	body.Trace = json.RawMessage(res.Trace)
	return encodeJSON(body)
}

// maxBodyReserve caps what a request body's declared length reserves
// before any of it arrives. mcpartd sets no read timeout, so a client that
// declares a large body and sends nothing pins at most this much.
const maxBodyReserve = 4 << 20

// readBody reads a request body whole. A body that declares its length
// gets a buffer of that length, capped by limit and maxBodyReserve, plus
// bytes.MinRead, so the read that finds EOF does not grow the buffer: a
// body within the reserve is read into one allocation. Longer bodies and
// bodies without a length grow by doubling.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	var reserved []byte
	if declared > 0 {
		reserved = make([]byte, 0, min(declared, limit, maxBodyReserve)+bytes.MinRead)
	}
	buf := bytes.NewBuffer(reserved)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// buildSpec validates a request and materializes the graph. All failures
// are client errors (400).
func (s *Server) buildSpec(req *PartitionRequest) (*jobSpec, error) {
	return s.specFor(req, []byte(req.Graph))
}

// specFor is buildSpec with the inline graph's METIS text given as text,
// in place of req.Graph, which it does not read.
func (s *Server) specFor(req *PartitionRequest, text []byte) (*jobSpec, error) {
	if (len(text) == 0) == (req.Mesh == "") {
		return nil, errors.New("exactly one of \"graph\" (inline METIS text) or \"mesh\" (named mesh) is required")
	}
	var g *partition.Graph
	var err error
	switch {
	case len(text) > 0:
		g, err = graph.ReadMETISBytes(text, graph.Limits{MaxVertices: s.cfg.MaxVertices, MaxEdges: s.cfg.MaxEdges})
		if err != nil {
			return nil, err
		}
	default:
		spec, ok := gen.MeshByName(req.Mesh)
		if !ok {
			return nil, fmt.Errorf("unknown mesh %q", req.Mesh)
		}
		if spec.Vertices() > s.cfg.MaxVertices {
			return nil, fmt.Errorf("mesh %q has %d vertices, above the %d limit", req.Mesh, spec.Vertices(), s.cfg.MaxVertices)
		}
		// The same derived seeds as cmd/mcpart, so a service job and a CLI
		// run with identical parameters produce identical labels.
		g = spec.Build(req.Seed*7919 + 7)
	}
	return s.finishSpec(req, g)
}

// finishSpec validates the parameter tuple against an already-built graph,
// applies the workload overlay, and content-addresses the job. The
// streaming endpoint reaches it directly with a graph parsed off the wire.
func (s *Server) finishSpec(req *PartitionRequest, g *partition.Graph) (*jobSpec, error) {
	if req.K < 1 {
		return nil, fmt.Errorf("k = %d, want >= 1", req.K)
	}
	if req.P < 0 {
		return nil, fmt.Errorf("p = %d, want >= 0 (0 = serial)", req.P)
	}
	if req.Tol < 0 || req.Tol >= 1 {
		return nil, fmt.Errorf("tol = %v, want 0 <= tol < 1", req.Tol)
	}
	tol := req.Tol
	if tol == 0 {
		tol = 0.05
	}
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return nil, err
	}
	coarsenScheme, err := partition.ParseCoarsenScheme(req.Coarsen)
	if err != nil {
		return nil, err
	}
	if req.P > 0 && coarsenScheme != partition.CoarsenMatching {
		return nil, fmt.Errorf("coarsen %q is serial-only: matching is the parallel coarsening scheme (drop \"p\" or \"coarsen\")", req.Coarsen)
	}
	switch req.Workload {
	case "":
	case "type1":
		if req.M < 1 {
			return nil, fmt.Errorf("workload %q needs m >= 1", req.Workload)
		}
		g = partition.Type1Workload(g, req.M, req.Seed+100)
	case "type2":
		if req.M < 1 {
			return nil, fmt.Errorf("workload %q needs m >= 1", req.Workload)
		}
		g = partition.Type2Workload(g, req.M, req.Seed+100)
	default:
		return nil, fmt.Errorf("unknown workload %q (want type1 or type2)", req.Workload)
	}
	if req.K > g.NumVertices() {
		return nil, fmt.Errorf("k = %d exceeds vertex count %d", req.K, g.NumVertices())
	}
	if req.P > g.NumVertices() {
		return nil, fmt.Errorf("p = %d exceeds vertex count %d", req.P, g.NumVertices())
	}

	spec := &jobSpec{g: g, k: req.K, p: req.P, seed: req.Seed, tol: tol, scheme: scheme, coarsen: coarsenScheme}
	spec.key = s.cacheKeyFor(spec)
	return spec, nil
}

func parseScheme(name string) (prefine.Scheme, error) {
	switch name {
	case "", "reservation":
		return prefine.Reservation, nil
	case "slice":
		return prefine.Slice, nil
	case "slice-smart":
		return prefine.SliceSmart, nil
	case "free":
		return prefine.Free, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want reservation, slice, slice-smart or free)", name)
}

// cacheKeyFor content-addresses a job: the graph is re-serialized in the
// canonical METIS form (stable adjacency order, explicit weights), so any
// two descriptions of the same graph — inline text with odd whitespace,
// comments, or a named mesh — hash identically; the parameter tuple is
// appended after a NUL separator. The text is formatted once, in chunks
// of keyChunk bytes, straight into the hash.
func (s *Server) cacheKeyFor(spec *jobSpec) cacheKey {
	h := sha256.New()
	// EncodeMETIS into a hasher cannot fail.
	_ = graph.EncodeMETIS(h, spec.g, make([]byte, 0, keyChunk))
	fmt.Fprintf(h, "\x00k=%d m=%d p=%d seed=%d tol=%g scheme=%d coarsen=%d",
		spec.k, spec.g.Ncon, spec.p, spec.seed, spec.tol, spec.scheme, spec.coarsen)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// keyChunk is the buffer cacheKeyFor formats the canonical text into.
const keyChunk = 64 << 10

// runJob executes one admitted job on a worker.
func (s *Server) runJob(j *job) {
	if j.exec != nil {
		j.res, j.err = j.exec(j.ctx)
		return
	}
	spec := j.work
	s.met.countCoarsen(spec.coarsen.String())
	var tracer *partition.Tracer
	if spec.traced {
		tracer = partition.NewTracer("mcpartd")
	}
	t0 := time.Now()
	var (
		labels []int32
		err    error
	)
	if spec.p == 0 {
		labels, _, err = partition.SerialTraced(j.ctx, spec.g, spec.k, partition.SerialOptions{
			Seed: spec.seed, Tol: spec.tol, CoarsenScheme: spec.coarsen,
			CoarsenWorkers: s.cfg.CoarsenWorkers,
		}, tracer)
	} else {
		labels, _, err = partition.ParallelTraced(j.ctx, spec.g, spec.k, spec.p, partition.ParallelOptions{
			Seed: spec.seed, Tol: spec.tol, Scheme: spec.scheme,
		}, tracer)
	}
	if err != nil {
		// Surface the root context error so the handler can classify
		// timeout vs. client cancellation.
		if ctxErr := j.ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			err = ctxErr
		}
		j.err = err
		return
	}
	j.res = &Result{
		Labels:     labels,
		Cut:        partition.EdgeCut(spec.g, labels),
		CommVolume: partition.CommVolume(spec.g, labels, spec.k),
		Imbalances: partition.Imbalances(spec.g, labels, spec.k),
		RunSeconds: time.Since(t0).Seconds(),
	}
	if tracer != nil {
		var buf bytes.Buffer
		// Export into a buffer cannot fail.
		_ = tracer.Export(&buf)
		j.res.Trace = buf.Bytes()
	}
}
