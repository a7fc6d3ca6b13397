// Command discserve is the long-running serving layer over DISC: upload or
// load a dataset once, and the server builds its neighbor index and
// distance-constraint state into a cached session; detection and repair
// requests then run against the warm session instead of paying index
// construction per invocation, with concurrent saves coalesced into
// micro-batches over the shared worker pool.
//
// API (see docs/SERVING.md for the full reference):
//
//	POST   /v1/datasets            create a session (inline CSV, server path, or table1 spec)
//	GET    /v1/datasets            list sessions
//	GET    /v1/datasets/{id}       session info (build timings, search counters)
//	DELETE /v1/datasets/{id}       evict a session
//	POST   /v1/datasets/{id}/detect  count ε-neighbors of query tuples ("member": true
//	                                 excludes each row's own stored copy from its count)
//	POST   /v1/datasets/{id}/save    repair one tuple
//	POST   /v1/datasets/{id}/repair  repair a batch of tuples
//	POST   /v1/datasets/{id}/tuples       insert a tuple (201 + its logical row handle)
//	PUT    /v1/datasets/{id}/tuples/{idx} update the tuple at a logical row handle
//	DELETE /v1/datasets/{id}/tuples/{idx} delete the tuple at a logical row handle
//	GET    /livez                  liveness: 200 while the process serves HTTP at all
//	GET    /readyz                 readiness: 503 during startup replay and drain
//	GET    /healthz                legacy combined probe (503 while draining)
//	GET    /varz                   counters: endpoints, registry, store, per-session stats
//	GET    /metrics                Prometheus text exposition of the same, plus histograms
//
// Capacity is bounded everywhere: the session cache by count, bytes and
// idle TTL (LRU eviction), each session's admission queue by -max-queue
// (overflow answered 429 + Retry-After; a single batch larger than the
// queue 413), and each save by a deadline
// (client timeout_ms capped at -request-budget). SIGINT/SIGTERM drain
// gracefully: admitted work finishes, new work is refused with 503.
//
// With -data-dir, sessions are durable: each build is snapshotted
// (versioned, checksummed, written atomically) and a restart replays the
// snapshots — detection skipped, only the in-memory indexes rebuilt —
// quarantining corrupt files and rebuilding path-loaded sessions from
// source. /readyz answers 503 until the replay completes. -fault installs
// deterministic fault injection (errors, latency, panics at named sites)
// for chaos testing; see docs/SERVING.md "Durability & recovery".
//
// With -coordinator -workers=<url,url,...>, the process serves the same
// API as a scatter/gather front over a fleet of worker discserve
// instances: sessions are consistent-hashed onto -replicas workers,
// detect/repair requests scatter in chunks across the owners with
// failover between replicas, and /varz and /metrics report per-owner and
// merged stats; see docs/SERVING.md "Sharding & coordinator mode".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers for -pprof-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/coord"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		maxSessions   = flag.Int("max-sessions", 8, "max cached dataset sessions (LRU eviction)")
		maxBytes      = flag.Int64("max-bytes", 0, "max approximate resident bytes across sessions (0 = unbounded)")
		sessionTTL    = flag.Duration("session-ttl", 0, "evict sessions idle longer than this (0 = never)")
		maxQueue      = flag.Int("max-queue", api.DefaultMaxQueue, "admission queue slots per session; overflow is answered 429, a single batch larger than this 413")
		batchWindow   = flag.Duration("batch-window", 2*time.Millisecond, "how long a dispatch waits for co-arriving saves to coalesce")
		maxBatch      = flag.Int("max-batch", 64, "max saves per dispatch")
		workers       = flag.String("workers", "0", "parallel saves per dispatch (0 = GOMAXPROCS); with -coordinator, the comma-separated worker base URLs instead")
		coordinator   = flag.Bool("coordinator", false, "run as a coordinator over the worker fleet named by -workers (no local sessions)")
		replicas      = flag.Int("replicas", 0, "coordinator: workers owning each session (0 = min(2, workers))")
		requestBudget = flag.Duration("request-budget", 30*time.Second, "per-save deadline cap; client timeout_ms cannot exceed it")
		maxUpload     = flag.Int64("max-upload", 64<<20, "max request body bytes, dataset uploads included")
		drainTimeout  = flag.Duration("drain-timeout", time.Minute, "max time to finish admitted work on shutdown")
		dataDir       = flag.String("data-dir", "", "directory for durable session snapshots; on restart sessions are recovered from it instead of rebuilt ('' = memory-only)")
		slowRequest   = flag.Duration("slow-request", time.Second, "log a span breakdown for API requests slower than this (0 = off)")
		pprofAddr     = flag.String("pprof-addr", "", "separate listen address for net/http/pprof ('' = off); keep it off public interfaces")
		faultSpec     = flag.String("fault", "", "fault-injection spec, site:mode[:arg][:prob],... (e.g. snapshot.write:sleep:2s); testing only")
		faultSeed     = flag.Int64("fault-seed", 1, "seed for probabilistic fault injection")
		logLevel      = flag.String("log-level", "info", "structured log level on stderr (debug|info|warn|error)")
	)
	flag.Parse()

	if *faultSpec != "" {
		if err := fault.Configure(*faultSpec, *faultSeed); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "discserve: FAULT INJECTION ACTIVE: %s (seed %d)\n", *faultSpec, *faultSeed)
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	if *coordinator {
		runCoordinator(log, *addr, *workers, *replicas, *requestBudget, *maxUpload, *drainTimeout)
		return
	}
	saveWorkers, err := strconv.Atoi(*workers)
	if err != nil {
		fatal(fmt.Errorf("bad -workers %q: an integer outside -coordinator mode", *workers))
	}

	srv := serve.New(serve.Config{
		MaxSessions:   *maxSessions,
		MaxBytes:      *maxBytes,
		TTL:           *sessionTTL,
		MaxQueue:      *maxQueue,
		BatchWindow:   *batchWindow,
		MaxBatch:      *maxBatch,
		Workers:       saveWorkers,
		RequestBudget: *requestBudget,
		MaxBodyBytes:  *maxUpload,
		SlowRequest:   *slowRequest,
		DataDir:       *dataDir,
		Logger:        log,
	})

	// pprof gets its own listener so profiling stays reachable when the API
	// listener is saturated, and so the API address never exposes pprof.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "discserve: pprof listening on %s\n", pln.Addr())
		go func() {
			// http.DefaultServeMux carries the net/http/pprof handlers.
			if err := http.Serve(pln, nil); err != nil {
				log.Warn("pprof server stopped", "err", err)
			}
		}()
	}

	// Listen before announcing: scripts (and the smoke test) parse the
	// printed address, which may carry a kernel-assigned port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "discserve: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// Replay snapshots with the listener already serving: /livez answers
	// during the replay while /readyz stays 503 until Recover completes, so
	// probes see "alive but not ready" instead of connection refused.
	if err := srv.Recover(context.Background()); err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the usual way

	// Drain: finish everything admitted, refuse new work, then close the
	// listener. The order matters — srv.Shutdown flips the draining flag
	// first so health checks fail while in-flight requests complete.
	fmt.Fprintln(os.Stderr, "discserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "discserve: %v\n", err)
		hs.Close()
		os.Exit(1)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "discserve: closing listener: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "discserve: drained")
}

// runCoordinator serves the scatter/gather front over a worker fleet. It
// prints the same listen/drain lines as single-node mode so scripts (and
// the smoke test) drive both identically.
func runCoordinator(log *slog.Logger, addr, workerList string, replicas int,
	requestBudget time.Duration, maxUpload int64, drainTimeout time.Duration) {
	var urls []string
	for _, u := range strings.Split(workerList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	co, err := coord.New(coord.Config{
		Workers:        urls,
		Replicas:       replicas,
		RequestTimeout: requestBudget,
		MaxBodyBytes:   maxUpload,
		Logger:         log,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "discserve: listening on %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "discserve: coordinating %d workers\n", len(urls))

	hs := &http.Server{
		Handler:           co.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(os.Stderr, "discserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	co.Shutdown(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "discserve: closing listener: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "discserve: drained")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "discserve: %v\n", err)
	os.Exit(1)
}
