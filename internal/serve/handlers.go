package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	disc "repro"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/serve/api"
)

// Config tunes the server's capacity knobs. The zero value is usable;
// withDefaults fills the rest.
type Config struct {
	// MaxSessions bounds the registry's session count (LRU eviction;
	// default 8). MaxBytes additionally bounds the approximate resident
	// bytes across sessions (0 = unbounded).
	MaxSessions int
	MaxBytes    int64
	// TTL evicts sessions idle longer than this (0 = never).
	TTL time.Duration
	// MaxQueue bounds each session's admission queue (default
	// api.DefaultMaxQueue); overflow is answered 429 + Retry-After, and a
	// single batch larger than the whole queue 413.
	MaxQueue int
	// BatchWindow is how long the dispatcher holds an open batch for
	// co-arriving requests (default 2ms; 0 coalesces only what is already
	// queued). MaxBatch caps one dispatch (default 64).
	BatchWindow time.Duration
	MaxBatch    int
	// Workers bounds each dispatch's parallelism (0 = GOMAXPROCS).
	Workers int
	// RequestBudget is the per-request save deadline applied when the
	// client sends none (default 30s). Client-requested budgets are capped
	// at this value, so one request cannot hold a queue slot forever.
	RequestBudget time.Duration
	// MaxBodyBytes caps request bodies, uploads included (default 64 MiB).
	MaxBodyBytes int64
	// SlowRequest, when positive, makes the middleware log the full span
	// breakdown (admit, queue, dispatch, save, respond, ...) of any API
	// request whose end-to-end latency reaches the threshold. 0 disables
	// the slow log; the trace ring still retains recent traces either way.
	SlowRequest time.Duration
	// DataDir, when set, makes sessions durable: each build is snapshotted
	// under this directory and a restart replays the snapshots (call
	// Server.Recover) instead of rebuilding from scratch. Empty keeps the
	// registry memory-only.
	DataDir string
	// Logger receives structured request and lifecycle logs (nil = silent).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = api.DefaultMaxQueue
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	} else if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestBudget <= 0 {
		c.RequestBudget = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server is the HTTP serving layer: the session registry plus the JSON API.
type Server struct {
	cfg     Config
	log     *slog.Logger
	reg     *Registry
	handler http.Handler
	start   time.Time

	draining atomic.Bool
	// ready gates /readyz: false while a data-dir server has not finished
	// its startup snapshot replay (Recover), and false again once a drain
	// begins, so rolling deploys shift traffic before the listener dies.
	ready  atomic.Bool
	panics atomic.Int64

	// endpoints maps the API surface to its admission counters.
	endpoints map[string]*obs.EndpointStats
	// traces retains the most recent API request traces for postmortems.
	traces *obs.TraceRing
}

// traceRingSize bounds the retained request traces: enough to cover a
// burst, small enough that the ring never matters for memory.
const traceRingSize = 256

// New builds a server. Callers serve s.Handler() and must call Shutdown for
// a graceful drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		log:   obs.Logger(cfg.Logger),
		reg:   NewRegistry(cfg),
		start: time.Now(),
		endpoints: map[string]*obs.EndpointStats{
			"datasets": {}, "detect": {}, "save": {}, "repair": {}, "tuples": {},
		},
		traces: obs.NewTraceRing(traceRingSize),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.handleCreate)
	mux.HandleFunc("GET /v1/datasets", s.handleList)
	mux.HandleFunc("GET /v1/datasets/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/datasets/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/datasets/{id}/detect", s.handleDetect)
	mux.HandleFunc("POST /v1/datasets/{id}/save", s.handleSave)
	mux.HandleFunc("POST /v1/datasets/{id}/repair", s.handleRepair)
	mux.HandleFunc("POST /v1/datasets/{id}/tuples", s.handleTupleInsert)
	mux.HandleFunc("PUT /v1/datasets/{id}/tuples/{idx}", s.handleTupleUpdate)
	mux.HandleFunc("DELETE /v1/datasets/{id}/tuples/{idx}", s.handleTupleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.wrap(mux)
	// Without a data dir there is no snapshot replay to wait for; with one,
	// readiness arrives when Recover completes.
	s.ready.Store(cfg.DataDir == "")
	return s
}

// Recover replays the data directory into the registry (sessions rehydrate
// from snapshots; corrupt ones are quarantined and rebuilt from source) and
// then marks the server ready. It must run before traffic is expected —
// /readyz answers 503 until it completes. Without a DataDir it is a no-op.
// The error covers the data directory itself (unreadable, uncreatable, as
// reported at New time); individual bad snapshots never fail recovery.
func (s *Server) Recover(ctx context.Context) error {
	defer s.ready.Store(true)
	if s.reg.storeErr != nil {
		return s.reg.storeErr
	}
	return s.reg.Recover(ctx)
}

// Handler returns the middleware-wrapped API.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the session registry (embedders and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Shutdown drains gracefully: stop admitting (new mutating requests get
// 503), finish everything already queued or in flight, and return once the
// queues are empty. If ctx expires first, Shutdown returns its error with
// queues possibly non-empty — callers then simply exit.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.ready.Store(false)
	s.log.Info("serve: draining", "sessions", len(s.reg.List()))
	done := make(chan struct{})
	go func() {
		s.reg.Close()
		close(done)
	}()
	select {
	case <-done:
		s.logFinalStats()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain cut short: %w", ctx.Err())
	}
}

// logFinalStats flushes the endpoint counters once the drain completes, so
// a terminated process leaves its last numbers in the log.
func (s *Server) logFinalStats() {
	for name, es := range s.endpoints {
		snap := es.Snapshot()
		if snap.Requests == 0 {
			continue
		}
		s.log.Info("serve: final endpoint stats", "endpoint", name,
			"requests", snap.Requests, "admitted", snap.Admitted,
			"rejected", snap.Rejected, "coalesced", snap.Coalesced,
			"expired", snap.Expired, "drained", snap.Drained)
	}
}

// --- handlers ---

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	s.endpoints["datasets"].Requests.Add(1)
	if s.refuseDraining(w, r) {
		return
	}
	var (
		sess *Session
		err  error
	)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "text/csv") {
		// Raw CSV body; params ride in the query string.
		q := r.URL.Query()
		p := api.BuildParams{Kappa: 2}
		p.Eps, _ = strconv.ParseFloat(q.Get("eps"), 64)
		p.Eta, _ = strconv.Atoi(q.Get("eta"))
		if k := q.Get("kappa"); k != "" {
			p.Kappa, _ = strconv.Atoi(k)
		}
		p.Index = q.Get("index")
		parse := time.Now()
		rel, rerr := disc.ReadCSV(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if rerr != nil {
			var mbe *http.MaxBytesError
			if errors.As(rerr, &mbe) {
				s.writeErr(w, r, http.StatusRequestEntityTooLarge,
					fmt.Errorf("serve: request body exceeds %d bytes", s.cfg.MaxBodyBytes))
				return
			}
			s.writeErr(w, r, http.StatusBadRequest, rerr)
			return
		}
		tr.Span("parse", parse)
		name := q.Get("name")
		if name == "" {
			name = "upload.csv"
		}
		sess, err = s.reg.Upload(r.Context(), name, rel, p)
	} else {
		var req api.CreateRequest
		if !s.decodeJSON(w, r, &req) {
			return
		}
		sources := 0
		for _, set := range []bool{req.CSV != "", req.Path != "", req.Table1 != ""} {
			if set {
				sources++
			}
		}
		if sources != 1 {
			s.writeErr(w, r, http.StatusBadRequest,
				errors.New("serve: exactly one of csv, path or table1 must be set"))
			return
		}
		p := req.BuildParams
		switch {
		case req.Path != "":
			sess, err = s.reg.OpenPath(r.Context(), req.Path, p)
		case req.Table1 != "":
			scale := req.Scale
			if scale <= 0 {
				scale = 1
			}
			ds, derr := disc.Table1(req.Table1, scale, req.Seed)
			if derr != nil {
				s.writeErr(w, r, http.StatusBadRequest, derr)
				return
			}
			if p.Eps <= 0 {
				p.Eps = ds.Eps
			}
			if p.Eta < 1 {
				p.Eta = ds.Eta
			}
			name := req.Name
			if name == "" {
				name = fmt.Sprintf("table1:%s@%g", req.Table1, scale)
			}
			sess, err = s.reg.Upload(r.Context(), name, ds.Rel, p)
		default:
			parse := time.Now()
			rel, rerr := disc.ReadCSV(strings.NewReader(req.CSV))
			if rerr != nil {
				s.writeErr(w, r, http.StatusBadRequest, rerr)
				return
			}
			tr.Span("parse", parse)
			name := req.Name
			if name == "" {
				name = "upload.csv"
			}
			sess, err = s.reg.Upload(r.Context(), name, rel, p)
		}
	}
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, errClosed) {
			status = http.StatusServiceUnavailable
		} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		s.writeErr(w, r, status, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	infos := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.Info()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Delete(r.PathValue("id")) {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDetect is the cheap always-on screen: count ε-neighbors of each
// query tuple against the cached full-relation index — no search, no
// queueing, just range queries.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	s.endpoints["detect"].Requests.Add(1)
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	var req api.DetectRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Tuples) == 0 {
		s.writeErr(w, r, http.StatusBadRequest, errors.New("serve: tuples must be non-empty"))
		return
	}
	tuples := make([]disc.Tuple, len(req.Tuples))
	for i, raw := range req.Tuples {
		t, err := data.TupleFromJSON(sess.schema, raw)
		if err != nil {
			s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("serve: tuple %d: %w", i, err))
			return
		}
		tuples[i] = t
	}
	// One counting view per request: the counters are goroutine-owned
	// while the queries run, then merged into the session — the cached
	// index answers, and the traffic proves it. The state read-lock keeps
	// the queries consistent against concurrent mutations.
	var qc disc.IndexCounters
	resp := api.DetectResponse{Eps: sess.Cons.Eps, Eta: sess.Cons.Eta,
		Results: make([]api.DetectResult, len(tuples))}
	sess.stateMu.RLock()
	view := disc.CountingIndex(sess.RelIdx, &qc)
	for i, t := range tuples {
		// cap at η: the split only needs "≥ η or not", so the count stops
		// early exactly like the detection pass does, and Neighbors is the
		// same saturated min(|D_ε|, η) that Detection.Counts stores. Member
		// tuples match their own stored copy, so the cap grows by one and
		// the self-match is subtracted back out.
		capN := sess.Cons.Eta
		if req.Member {
			capN++
		}
		n := view.CountWithin(t, sess.Cons.Eps, -1, capN)
		if req.Member && n > 0 {
			n--
		}
		resp.Results[i] = api.DetectResult{Neighbors: n, Outlier: n < sess.Cons.Eta}
	}
	sess.stateMu.RUnlock()
	var st obs.SearchStats
	st.KNNQueries = qc.KNNQueries
	st.RangeQueries = qc.RangeQueries
	st.DistEvals = qc.DistEvals
	st.GridFallbacks = qc.GridFallbacks
	sess.addStats(&st, 0, int64(len(req.Tuples)))
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSave repairs one tuple through the session's batcher.
func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	hStart := time.Now()
	tr := obs.TraceFrom(r.Context())
	es := s.endpoints["save"]
	es.Requests.Add(1)
	if s.refuseDraining(w, r) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	t, req, ok := s.decodeTuple(w, r, sess)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	sreq := &saveReq{ctx: ctx, tuple: t, res: make(chan saveRes, 1), es: es, ep: "save"}
	if err := sess.batcher.admit(sreq); err != nil {
		s.writeAdmitErr(w, r, err)
		return
	}
	// The admit span covers decode, tuple parsing and queue admission —
	// everything between route match and the request entering the queue.
	tr.Span("admit", hStart)
	select {
	case res := <-sreq.res:
		if res.err != nil {
			s.writeErr(w, r, http.StatusGatewayTimeout, res.err)
			return
		}
		rs := time.Now()
		s.writeJSON(w, http.StatusOK, adjustmentToJSON(sess.schema, res.adj))
		tr.Span("respond", rs)
	case <-ctx.Done():
		// The dispatcher will still answer the buffered channel; this
		// request just stops waiting.
		s.writeErr(w, r, http.StatusGatewayTimeout,
			fmt.Errorf("serve: request deadline exceeded: %w", ctx.Err()))
	}
}

// handleRepair batches many tuples through the same admission path;
// admission is all-or-nothing so a 429 never splits a batch, and a batch
// larger than the queue is a 413.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	hStart := time.Now()
	tr := obs.TraceFrom(r.Context())
	es := s.endpoints["repair"]
	es.Requests.Add(1)
	if s.refuseDraining(w, r) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	var req api.RepairRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Tuples) == 0 {
		s.writeErr(w, r, http.StatusBadRequest, errors.New("serve: tuples must be non-empty"))
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	reqs := make([]*saveReq, len(req.Tuples))
	for i, raw := range req.Tuples {
		t, err := data.TupleFromJSON(sess.schema, raw)
		if err != nil {
			s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("serve: tuple %d: %w", i, err))
			return
		}
		reqs[i] = &saveReq{ctx: ctx, tuple: t, res: make(chan saveRes, 1), es: es, ep: "repair"}
	}
	if err := sess.batcher.admit(reqs...); err != nil {
		s.writeAdmitErr(w, r, err)
		return
	}
	tr.Span("admit", hStart)
	rs := time.Now()
	resp := api.RepairResponse{Adjustments: make([]api.Adjustment, len(reqs))}
	for i, sr := range reqs {
		select {
		case res := <-sr.res:
			if res.err != nil {
				s.writeErr(w, r, http.StatusGatewayTimeout,
					fmt.Errorf("serve: tuple %d: %w", i, res.err))
				return
			}
			aj := adjustmentToJSON(sess.schema, res.adj)
			resp.Adjustments[i] = aj
			switch {
			case aj.Saved:
				resp.Saved++
			case aj.Natural:
				resp.Natural++
			}
			if aj.Exhausted {
				resp.Exhausted++
			}
		case <-ctx.Done():
			s.writeErr(w, r, http.StatusGatewayTimeout,
				fmt.Errorf("serve: request deadline exceeded after %d/%d tuples: %w", i, len(reqs), ctx.Err()))
			return
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
	// One respond span for the whole gather: repair answers arrive
	// per-tuple, so the span covers waiting for and encoding all of them.
	tr.Span("respond", rs)
}

// handleTupleInsert appends one tuple to the session's live dataset,
// maintaining the indexes and detection state incrementally. The mutation
// rides the session's batcher queue, so it serializes against admitted
// detect/save work. Answers 201 with the new row's logical handle.
func (s *Server) handleTupleInsert(w http.ResponseWriter, r *http.Request) {
	es := s.endpoints["tuples"]
	es.Requests.Add(1)
	if s.refuseDraining(w, r) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	t, req, ok := s.decodeTuple(w, r, sess)
	if !ok {
		return
	}
	s.runMutation(w, r, sess, &mutation{op: "insert", tuple: t}, req.TimeoutMS, http.StatusCreated)
}

// handleTupleUpdate replaces the tuple at a logical row handle (tombstone
// the old value, append the new one; the handle follows the new value).
func (s *Server) handleTupleUpdate(w http.ResponseWriter, r *http.Request) {
	es := s.endpoints["tuples"]
	es.Requests.Add(1)
	if s.refuseDraining(w, r) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("serve: bad row index %q", r.PathValue("idx")))
		return
	}
	t, req, ok := s.decodeTuple(w, r, sess)
	if !ok {
		return
	}
	s.runMutation(w, r, sess, &mutation{op: "update", index: idx, tuple: t}, req.TimeoutMS, http.StatusOK)
}

// handleTupleDelete tombstones the tuple at a logical row handle. The
// handle becomes a hole; other handles are unaffected.
func (s *Server) handleTupleDelete(w http.ResponseWriter, r *http.Request) {
	es := s.endpoints["tuples"]
	es.Requests.Add(1)
	if s.refuseDraining(w, r) {
		return
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("serve: no session %q", r.PathValue("id")))
		return
	}
	idx, err := strconv.Atoi(r.PathValue("idx"))
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("serve: bad row index %q", r.PathValue("idx")))
		return
	}
	s.runMutation(w, r, sess, &mutation{op: "delete", index: idx}, 0, http.StatusOK)
}

// runMutation admits one mutation through the session's batcher and waits
// for its answer, sharing handleSave's deadline and error mapping.
func (s *Server) runMutation(w http.ResponseWriter, r *http.Request, sess *Session, m *mutation, timeoutMS, okStatus int) {
	hStart := time.Now()
	tr := obs.TraceFrom(r.Context())
	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()
	sreq := &saveReq{ctx: ctx, mut: m, res: make(chan saveRes, 1), es: s.endpoints["tuples"], ep: "tuples"}
	if err := sess.batcher.admit(sreq); err != nil {
		s.writeAdmitErr(w, r, err)
		return
	}
	tr.Span("admit", hStart)
	select {
	case res := <-sreq.res:
		if res.err != nil {
			status := http.StatusGatewayTimeout
			if errors.Is(res.err, errNoSuchRow) {
				status = http.StatusNotFound
			}
			s.writeErr(w, r, status, res.err)
			return
		}
		rs := time.Now()
		s.writeJSON(w, okStatus, res.mres)
		tr.Span("respond", rs)
	case <-ctx.Done():
		s.writeErr(w, r, http.StatusGatewayTimeout,
			fmt.Errorf("serve: request deadline exceeded: %w", ctx.Err()))
	}
}

// handleHealthz is the legacy combined probe, kept for existing monitors;
// /livez and /readyz are the split it predates.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// Load balancers stop routing to a draining replica.
		status, code = "draining", http.StatusServiceUnavailable
	}
	count, _, _, _ := s.reg.Stats()
	s.writeJSON(w, code, map[string]any{
		"status":   status,
		"sessions": count,
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleLivez answers 200 whenever the process can serve HTTP at all — a
// restart fixes nothing a liveness probe can see here, so it never goes
// unhealthy short of the process dying.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz answers whether the replica should receive traffic: 503
// while the startup snapshot replay is still running and again once a drain
// has begun, 200 in between.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		status, code = "recovering", http.StatusServiceUnavailable
	}
	count, _, _, _ := s.reg.Stats()
	s.writeJSON(w, code, map[string]any{
		"status":   status,
		"sessions": count,
	})
}

// handleVarz exports every counter the server keeps: endpoint admission
// stats, registry capacity state, and the per-session SearchStats and
// PhaseTimings of the DISC pipeline (docs/OBSERVABILITY.md).
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	count, bytes, evicted, expired := s.reg.Stats()
	endpoints := make(map[string]obs.EndpointSnapshot, len(s.endpoints))
	for name, es := range s.endpoints {
		endpoints[name] = es.Snapshot()
	}
	sessions := s.reg.List()
	infos := make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.Info()
	}
	vars := map[string]any{
		"uptime_s":         time.Since(s.start).Seconds(),
		"ready":            s.ready.Load(),
		"draining":         s.draining.Load(),
		"panics_recovered": s.panics.Load(),
		"registry": map[string]any{
			"sessions":     count,
			"bytes":        bytes,
			"max_sessions": s.cfg.MaxSessions,
			"max_bytes":    s.cfg.MaxBytes,
			"evicted":      evicted,
			"expired":      expired,
		},
		"endpoints": endpoints,
		"sessions":  infos,
		// hists is the global half of the per-session/global histogram
		// pair: queue wait, batch size, save latency and nodes, and
		// re-detection footprint across every session this process served.
		"hists":  s.reg.hists.Snapshot(),
		"traces": s.traces.Total(),
	}
	if st := s.reg.store; st != nil {
		vars["store"] = map[string]any{
			"data_dir": st.Dir(),
			"stats":    st.Stats(),
		}
	}
	s.writeJSON(w, http.StatusOK, vars)
}

// --- plumbing ---

// decodeJSON decodes one hardened request body (see DecodeJSON), writing
// the error answer itself; it reports whether the handler should continue.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	status, err := DecodeJSON(w, r, s.cfg.MaxBodyBytes, v)
	if err != nil {
		s.writeErr(w, r, status, fmt.Errorf("serve: %w", err))
	}
	return err == nil
}

// decodeTuple decodes a one-tuple body (save, insert, update) and parses
// its tuple against the session's schema, writing the error answer itself;
// ok reports whether the handler should continue.
func (s *Server) decodeTuple(w http.ResponseWriter, r *http.Request, sess *Session) (t disc.Tuple, req api.TupleRequest, ok bool) {
	if !s.decodeJSON(w, r, &req) {
		return nil, req, false
	}
	t, err := data.TupleFromJSON(sess.schema, req.Tuple)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("serve: %w", err))
		return nil, req, false
	}
	return t, req, true
}

// requestCtx derives the per-request save deadline: the client's timeout_ms
// capped by the server's RequestBudget, on top of the connection context.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	budget := s.cfg.RequestBudget
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < budget {
			budget = d
		}
	}
	return context.WithTimeout(r.Context(), budget)
}

// refuseDraining answers 503 + Retry-After on mutating endpoints once the
// drain has begun; reads stay available until the listener closes.
func (s *Server) refuseDraining(w http.ResponseWriter, r *http.Request) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	s.writeErr(w, r, http.StatusServiceUnavailable, errClosed)
	return true
}

// writeAdmitErr maps admission failures: queue overflow → 429 with a
// Retry-After hinting one batch window, a batch the queue can never hold →
// 413, drain → 503.
func (s *Server) writeAdmitErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errBatchTooLarge):
		s.writeErr(w, r, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, errQueueFull):
		retry := int(math.Ceil(math.Max(s.cfg.BatchWindow.Seconds(), 1)))
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.writeErr(w, r, http.StatusTooManyRequests, err)
	case errors.Is(err, errClosed):
		w.Header().Set("Retry-After", "1")
		s.writeErr(w, r, http.StatusServiceUnavailable, err)
	default:
		s.writeErr(w, r, http.StatusInternalServerError, err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := WriteJSON(w, status, v); err != nil {
		s.log.Warn("serve: encoding response", "err", err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.writeJSON(w, status, api.ErrorJSON{Error: err.Error(), RequestID: requestIDFrom(r.Context())})
}

// adjustmentToJSON shapes one Adjustment for the wire. Cost is emitted only
// for saved tuples — an unsaved adjustment's +Inf cost is not a JSON value.
func adjustmentToJSON(sch *disc.Schema, adj disc.Adjustment) api.Adjustment {
	aj := api.Adjustment{
		Saved:     adj.Saved(),
		Natural:   adj.Natural,
		Exhausted: adj.Exhausted,
		Nodes:     adj.Nodes,
	}
	if adj.Saved() {
		aj.Cost = adj.Cost
		aj.Tuple = data.TupleToJSON(sch, adj.Tuple)
		for _, a := range adj.Adjusted.Attrs(sch.M()) {
			aj.Adjusted = append(aj.Adjusted, sch.Attrs[a].Name)
		}
	}
	return aj
}
