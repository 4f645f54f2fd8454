// Command mcpartd serves the multi-constraint partitioner over HTTP:
// partition-as-a-service on top of the same library the mcpart CLI uses.
//
// Usage:
//
//	mcpartd -addr :8080 -workers 4 -queue 16 -cache 128
//	mcpartd -addr :8080 -pprof 127.0.0.1:6060
//
// Endpoints:
//
//	POST   /v1/partition               submit a job (inline METIS graph or
//	                                   named mesh); append ?trace=1 to get
//	                                   back a Chrome trace-event JSON
//	                                   recording of the run
//	POST   /v1/partition/stream        raw METIS body parsed incrementally;
//	                                   parameters in the query string
//	POST   /v1/batch                   up to -batch-max jobs with per-job
//	                                   deadlines and error isolation
//	POST   /v1/sessions                upload a graph once, get a handle
//	GET    /v1/sessions/{id}           session state
//	POST   /v1/sessions/{id}/repartition  adapt to drifted vertex weights
//	DELETE /v1/sessions/{id}           drop the session
//	GET    /healthz                    liveness
//	GET    /metrics                    Prometheus text exposition
//
// Serial jobs accept a "coarsen" parameter (JSON field or stream query
// value): matching (default), cluster — size-constrained label propagation
// for power-law graphs — or auto, which sniffs the degree distribution.
// The scheme is part of the cache key, so requests differing only in it
// never alias, and /metrics counts executed jobs per scheme.
//
// A full queue answers 429 with a Retry-After header; results are cached
// by content address (graph hash + parameter tuple), so resubmitting an
// identical request is served without recomputation (traced requests
// bypass the cache). With -cache-dir, results additionally persist to an
// LRU-bounded directory of checksummed segment files and survive daemon
// restarts. SIGINT/SIGTERM trigger a graceful shutdown that drains
// in-flight jobs. With -pprof, Go's net/http/pprof profiling endpoints are
// served on a second, separate listener — keep it on loopback or otherwise
// private; it is off by default and never shares the service listener. See
// the README for request examples and internal/service for the
// implementation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent partition jobs (0 = service default)")
		queue    = flag.Int("queue", 0, "admission queue depth; overflow answers 429 (0 = 4x workers)")
		cache    = flag.Int("cache", 0, "result cache entries (0 = default 128, negative disables)")
		maxBody  = flag.Int64("max-body", 0, "request body byte limit (0 = default 64 MiB)")
		maxVerts = flag.Int("max-vertices", 0, "largest accepted graph, in vertices (0 = default)")
		maxEdges = flag.Int("max-edges", 0, "largest accepted graph, in edges (0 = default)")
		timeout  = flag.Duration("timeout", 0, "default per-job deadline (0 = service default 60s)")
		maxTime  = flag.Duration("max-timeout", 0, "largest per-job deadline a client may request (0 = default 10m)")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown grace period for draining connections")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); empty = disabled")

		cacheDir   = flag.String("cache-dir", "", "directory for the disk-persistent result cache; empty = disabled")
		diskBytes  = flag.Int64("cache-disk-bytes", 0, "disk cache byte bound (0 = default 256 MiB, negative disables)")
		sessions   = flag.Int("sessions", 0, "live session limit (0 = default 64)")
		sessionTTL = flag.Duration("session-ttl", 0, "idle session lifetime before sweep (0 = default 1h)")
		batchMax   = flag.Int("batch-max", 0, "jobs accepted per /v1/batch call (0 = default 64)")
		coarsenW   = flag.Int("coarsen-workers", 0, "goroutines for serial jobs' coarsening kernels; results (and cache keys) are identical for any value")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "mcpartd: unexpected arguments:", flag.Args())
		os.Exit(2)
	}

	s, err := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		MaxBodyBytes:   *maxBody,
		MaxVertices:    *maxVerts,
		MaxEdges:       *maxEdges,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTime,
		CacheDir:       *cacheDir,
		DiskCacheBytes: *diskBytes,
		MaxSessions:    *sessions,
		SessionTTL:     *sessionTTL,
		MaxBatchJobs:   *batchMax,
		CoarsenWorkers: *coarsenW,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcpartd:", err)
		os.Exit(2)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofOn != "" {
		// An explicit mux rather than http.DefaultServeMux: nothing else
		// can accidentally register handlers on the profiling listener,
		// and the service mux stays pprof-free even if a dependency
		// imports net/http/pprof.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofOn, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("mcpartd: pprof listening on %s", *pprofOn)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("mcpartd: pprof: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("mcpartd: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("mcpartd: %v received, draining", sig)
	case err := <-errc:
		log.Fatalf("mcpartd: %v", err)
	}

	// Stop accepting connections, let in-flight handlers (and therefore
	// their queued jobs) finish, then drain the worker pool.
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("mcpartd: shutdown: %v", err)
	}
	s.Close()
	log.Printf("mcpartd: drained, exiting")
}
