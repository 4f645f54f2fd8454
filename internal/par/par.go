// Package par provides the tiny fixed-size fork-join worker pool behind
// the shared-memory parallel coarsening kernels (internal/coarsen).
// Unlike the simulated-MPI ranks of internal/mpi, these are plain
// goroutines targeting *real* multicore wall clock inside the serial
// pipeline.
//
// The pool exists so a whole coarsening hierarchy pays the goroutine
// start-up cost once, not once per level or per propose/commit chunk: the
// workers park on a channel between Run calls. Determinism note: the pool
// only ever executes write-disjoint range work (each worker owns a slice of
// the iteration space and its own scratch), so the partitioner's output is
// independent of scheduling — see DESIGN.md, "Parallel coarsening
// contract".
package par

import "sync"

// Pool runs fork-join batches on workers goroutines. A Pool with one
// worker runs everything on the calling goroutine and starts nothing.
// Close releases the goroutines; using the pool after Close panics.
type Pool struct {
	workers int
	work    chan call // nil when workers == 1
	// wg is reused across Run calls (Run is never concurrent with itself
	// by contract), so a fork-join batch allocates nothing: hot loops may
	// call Run per chunk with a hoisted closure and stay allocation-free.
	wg sync.WaitGroup
}

type call struct {
	f  func(worker int)
	w  int
	wg *sync.WaitGroup
}

// NewPool creates a pool of the given size (values < 1 are clamped to 1).
// workers-1 goroutines are started; worker 0 is always the caller.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// The goroutines range over a local copy: the field write in Close
		// must not race with their channel receive.
		work := make(chan call)
		p.work = work
		for i := 1; i < workers; i++ {
			go func() {
				for c := range work {
					c.f(c.w)
					c.wg.Done()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run invokes f(w) for every worker id w in [0, Workers()) concurrently
// and returns once all calls have completed. Worker 0 runs on the calling
// goroutine, so a 1-worker pool is a plain function call. f must confine
// its writes to worker-id-indexed (or range-disjoint) state.
func (p *Pool) Run(f func(worker int)) {
	if p.workers == 1 {
		f(0)
		return
	}
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.work <- call{f: f, w: w, wg: &p.wg}
	}
	f(0)
	p.wg.Wait()
}

// Close stops the pool's goroutines. It must not be called concurrently
// with Run.
func (p *Pool) Close() {
	if p.work != nil {
		close(p.work)
		p.work = nil
	}
}

// Span returns the half-open range [lo, hi) that worker w owns when [0, n)
// is split into workers near-equal contiguous spans: the first n%workers
// spans are one element longer, so sizes differ by at most one and the
// split is a pure function of (n, workers, w).
func Span(n, workers, w int) (lo, hi int) {
	q, r := n/workers, n%workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}
