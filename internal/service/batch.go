package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"
)

// BatchRequest is the body of POST /v1/batch: up to MaxBatchJobs ordinary
// partition requests executed with per-job error isolation. Each job
// carries its own deadline (timeout_ms), so one pathological job times out
// alone while its siblings complete.
type BatchRequest struct {
	Jobs []PartitionRequest `json:"jobs"`
}

// BatchJobResult is one entry of a batch answer, in request order. Exactly
// one of Result and Error is set; Status is the HTTP code the same job
// would have received from POST /v1/partition.
type BatchJobResult struct {
	Index  int                `json:"index"`
	Status int                `json:"status"`
	Result *PartitionResponse `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// BatchResponse is the success body of POST /v1/batch. The batch itself
// answers 200 whenever it was well-formed, even if every job inside
// failed — per-job status lives in the entries.
type BatchResponse struct {
	Results []BatchJobResult `json:"results"`
}

// handleBatch fans a list of partition jobs through the same bounded
// admission queue as single requests. Unlike single requests, batch jobs
// block for a queue slot instead of being shed with 429: the wait is
// bounded by each job's own deadline, and failing one sibling because
// another was slow would defeat the point of batching.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.closed.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}

	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		s.writeError(w, http.StatusBadRequest,
			"batch has %d jobs, above the %d limit", len(req.Jobs), s.cfg.MaxBatchJobs)
		return
	}

	results := make([]BatchJobResult, len(req.Jobs))
	var wg sync.WaitGroup
	for i := range req.Jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.runBatchJob(r.Context(), i, &req.Jobs[i])
		}(i)
	}
	wg.Wait()
	s.writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// runBatchJob executes one batch entry end to end — validation, cache,
// queue, execution — and shapes the outcome. Every failure is local to the
// entry.
func (s *Server) runBatchJob(parent context.Context, idx int, jreq *PartitionRequest) BatchJobResult {
	out := BatchJobResult{Index: idx}
	spec, err := s.buildSpec(jreq)
	if err != nil {
		out.Status = http.StatusBadRequest
		out.Error = err.Error()
		return out
	}
	if res, ok := s.lookupCached(spec.key); ok {
		out.Status = http.StatusOK
		out.Result = s.shapeResponse(spec.shape(), res, true, 0)
		return out
	}

	timeout := s.jobTimeout(jreq.TimeoutMS)
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	j := &job{ctx: ctx, work: spec, enqueued: time.Now(), done: make(chan struct{})}
	if !s.pool.submitWait(ctx, j) {
		// The deadline expired before a queue slot freed: same shape as a
		// queued job that timed out.
		out.Status, out.Error = s.classifyJobError(ctx.Err(), timeout)
		return out
	}
	<-j.done
	if j.err != nil {
		out.Status, out.Error = s.classifyJobError(j.err, timeout)
		return out
	}
	s.met.countJob("ok")
	s.storeResult(spec.key, j.res)
	queueWait := time.Since(j.enqueued) - time.Duration(j.res.RunSeconds*float64(time.Second))
	out.Status = http.StatusOK
	out.Result = s.shapeResponse(spec.shape(), j.res, false, queueWait)
	return out
}

// shapeResponse builds the per-job response body without writing it —
// shared by the batch path, which aggregates bodies instead of streaming
// them.
func (s *Server) shapeResponse(shape responseShape, res *Result, cached bool, queueWait time.Duration) *PartitionResponse {
	return &PartitionResponse{
		N:          shape.n,
		M:          shape.m,
		K:          shape.k,
		P:          shape.p,
		Seed:       shape.seed,
		Scheme:     shape.scheme,
		Cut:        res.Cut,
		CommVolume: res.CommVolume,
		Imbalances: res.Imbalances,
		Labels:     res.Labels,
		Cached:     cached,
		QueueMS:    float64(queueWait) / float64(time.Millisecond),
		RunMS:      res.RunSeconds * 1000,
	}
}
