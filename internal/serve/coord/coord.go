// Package coord is discserve's coordinator mode: a thin scatter/gather
// front over a fleet of worker discserve instances. Sessions are placed
// onto workers by consistent hashing (ring.go) with a configurable
// replication factor; uploads fan the raw request body out to every owner,
// detect and repair requests are split into contiguous tuple chunks
// scattered across the owners, and the answers are merged back into the
// single-node response shapes — so the retrying client (and disccli
// -remote) talks to a coordinator exactly as it talks to one worker.
//
// Degradation policy: a chunk fails over through the placement's owner
// list; a chunk is lost only when every owner refuses it. A response with
// at least one surviving chunk is a partial 200 (lost ranges carry
// sentinel entries plus a per-chunk errors list); only when every owner of
// a placement is gone does the coordinator answer 503. Worker failures,
// failovers, lost chunks and degraded placements are all counted in
// obs.CoordStats and exported via /varz and /metrics.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// Config tunes the coordinator. Workers is required; the zero value of
// everything else is usable.
type Config struct {
	// Workers are the base URLs of the worker discserve instances, e.g.
	// "http://127.0.0.1:8081". At least one is required.
	Workers []string
	// Replicas is how many workers own each session (default
	// min(2, len(Workers))). Uploads fan out to all owners; chunked
	// requests scatter across them and fail over between them.
	Replicas int
	// RequestTimeout bounds each worker call attempt (default 10s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps proxied request bodies (default 64 MiB).
	MaxBodyBytes int64
	// HTTPClient overrides the transport the per-worker clients use (tests
	// point this at httptest servers; nil = default transport).
	HTTPClient *http.Client
	// Logger receives structured request and scatter logs (nil = silent).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Workers) {
		c.Replicas = len(c.Workers)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// worker is one fleet member: its URL plus a dedicated retrying client
// whose breaker state and counters are per-worker (a dead worker must not
// open the breaker for its peers).
type worker struct {
	url   string
	cli   *client.Client
	stats *obs.ClientStats
}

// ownerRef records where one replica of a placement lives: the worker and
// the session id that worker assigned (workers mint their own ids; the
// coordinator's public id is the placement key).
type ownerRef struct {
	URL     string `json:"worker"`
	LocalID string `json:"session"`
}

// placement is one coordinator-level session: the public id and the
// owners holding full replicas of it.
type placement struct {
	GID    string     `json:"id"`
	Name   string     `json:"name"`
	Owners []ownerRef `json:"owners"`
}

// Coordinator is the scatter/gather server. Build with New, serve
// Handler(), call Shutdown to drain.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	ring    *ring
	workers map[string]*worker
	handler http.Handler
	start   time.Time

	stats    obs.CoordStats
	draining atomic.Bool
	panics   atomic.Int64

	mu         sync.RWMutex
	placements map[string]*placement
}

// New builds a coordinator over cfg.Workers.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("coord: at least one worker URL is required")
	}
	c := &Coordinator{
		cfg:        cfg,
		log:        obs.Logger(cfg.Logger),
		ring:       newRing(cfg.Workers),
		workers:    make(map[string]*worker, len(cfg.Workers)),
		start:      time.Now(),
		placements: make(map[string]*placement),
	}
	for _, u := range cfg.Workers {
		if _, dup := c.workers[u]; dup {
			return nil, fmt.Errorf("coord: duplicate worker URL %q", u)
		}
		stats := &obs.ClientStats{}
		c.workers[u] = &worker{
			url:   u,
			stats: stats,
			cli: client.New(client.Config{
				BaseURL:        u,
				HTTPClient:     cfg.HTTPClient,
				RequestTimeout: cfg.RequestTimeout,
				// Failover wants fail-fast, not patience: one retry with a
				// short backoff, then move to the next owner. The breaker
				// makes calls to a known-dead worker fail immediately.
				MaxRetries:       1,
				BaseBackoff:      50 * time.Millisecond,
				MaxBackoff:       500 * time.Millisecond,
				BreakerThreshold: 3,
				BreakerCooldown:  5 * time.Second,
				Stats:            stats,
				Logger:           cfg.Logger,
			}),
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", c.handleCreate)
	mux.HandleFunc("GET /v1/datasets", c.handleList)
	mux.HandleFunc("GET /v1/datasets/{id}", c.handleGet)
	mux.HandleFunc("DELETE /v1/datasets/{id}", c.handleDelete)
	mux.HandleFunc("POST /v1/datasets/{id}/detect", c.handleDetect)
	mux.HandleFunc("POST /v1/datasets/{id}/save", c.handleSave)
	mux.HandleFunc("POST /v1/datasets/{id}/repair", c.handleRepair)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /livez", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /varz", c.handleVarz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.handler = c.wrap(mux)
	return c, nil
}

// Handler returns the middleware-wrapped API.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() obs.CoordSnapshot { return c.stats.Snapshot() }

// Shutdown stops admitting mutating requests. The workers own the real
// work queues and drain themselves; the coordinator just stops routing.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	return nil
}

// wrap is the coordinator's middleware: request-ID mint/echo, panic
// recovery, request logging.
func (c *Coordinator) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &serve.StatusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				c.panics.Add(1)
				c.log.Error("coord: panic in handler", "request_id", id,
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if sw.Status == 0 {
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					json.NewEncoder(sw).Encode(serve.ErrorJSON{Error: "internal server error", RequestID: id})
				}
			}
			c.log.Info("coord: request", "request_id", id,
				"method", r.Method, "path", r.URL.Path,
				"status", sw.Status, "dur", time.Since(start).Round(time.Microsecond))
		}()
		next.ServeHTTP(sw, r)
	})
}

// --- placement ---

func (c *Coordinator) placementOf(gid string) (*placement, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.placements[gid]
	return p, ok
}

// sessionInfoJSON is the coordinator's session answer: the merged
// single-node shape (so the plain client decodes it unchanged) plus the
// owner list and a degraded flag.
type sessionInfoJSON struct {
	serve.SessionInfo
	Owners   []ownerRef `json:"owners"`
	Degraded bool       `json:"degraded,omitempty"`
}

// --- handlers ---

// handleCreate fans the raw upload body out to every ring owner of a
// freshly minted placement id. Workers each build a full replica; the
// placement survives as long as one owner does.
func (c *Coordinator) handleCreate(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		c.writeErr(w, r, http.StatusRequestEntityTooLarge, fmt.Errorf("coord: reading upload: %w", err))
		return
	}
	gid := "g-" + obs.NewRequestID()
	owners := c.ring.owners(gid, c.cfg.Replicas)
	contentType := r.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/json"
	}

	type createOut struct {
		ref  ownerRef
		info *serve.SessionInfo
		err  error
	}
	outs := make([]createOut, len(owners))
	var wg sync.WaitGroup
	for i, u := range owners {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			info, err := c.workers[u].cli.CreateDatasetRaw(r.Context(), contentType, r.URL.RawQuery, body)
			if err != nil {
				c.stats.WorkerErrors.Add(1)
				outs[i] = createOut{err: fmt.Errorf("worker %s: %w", u, err)}
				return
			}
			outs[i] = createOut{ref: ownerRef{URL: u, LocalID: info.ID}, info: info}
		}(i, u)
	}
	wg.Wait()

	p := &placement{GID: gid, Owners: make([]ownerRef, 0, len(owners))}
	var first *serve.SessionInfo
	var errs []string
	var failures []error
	for _, o := range outs {
		if o.err != nil {
			errs = append(errs, o.err.Error())
			failures = append(failures, o.err)
			continue
		}
		p.Owners = append(p.Owners, o.ref)
		if first == nil {
			first = o.info
		}
	}
	if first == nil {
		// Every owner refused. A uniform definitive refusal (bad CSV → 400)
		// passes through; anything else is unavailability.
		if status, msg, ok := uniformAPIError(failures); ok {
			c.writeErr(w, r, status, errors.New(msg))
			return
		}
		c.writeErr(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("coord: no owner accepted the upload: %s", strings.Join(errs, "; ")))
		return
	}
	p.Name = first.Name
	c.mu.Lock()
	c.placements[gid] = p
	c.mu.Unlock()
	c.stats.PlacementsCreated.Add(1)
	degraded := len(p.Owners) < len(owners)
	if degraded {
		c.stats.PlacementsDegraded.Add(1)
		c.log.Warn("coord: degraded placement", "id", gid,
			"owners", len(p.Owners), "want", len(owners), "errs", errs)
	}
	info := *first
	info.ID = gid
	c.writeJSON(w, http.StatusCreated, sessionInfoJSON{SessionInfo: info, Owners: p.Owners, Degraded: degraded})
}

// uniformAPIError reports whether every failed create got the same
// definitive (4xx) refusal, which then speaks for the whole fan-out.
func uniformAPIError(failures []error) (int, string, bool) {
	if len(failures) == 0 {
		return 0, "", false
	}
	var want *client.APIError
	if !errors.As(failures[0], &want) {
		return 0, "", false
	}
	for _, err := range failures[1:] {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != want.Status {
			return 0, "", false
		}
	}
	return want.Status, want.Message, true
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	list := make([]*placement, 0, len(c.placements))
	for _, p := range c.placements {
		list = append(list, p)
	}
	c.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].GID < list[j].GID })
	c.writeJSON(w, http.StatusOK, list)
}

// handleGet gathers every owner's session snapshot and merges the
// SearchStats shard-wise: each owner executed a share of the scattered
// work, so the merged counters are the placement's whole story.
func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	p, ok := c.placementOf(r.PathValue("id"))
	if !ok {
		c.writeErr(w, r, http.StatusNotFound, fmt.Errorf("coord: no session %q", r.PathValue("id")))
		return
	}
	infos, live := c.gatherInfos(r.Context(), p)
	if live == 0 {
		c.writeErr(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("coord: all %d owners of %s are unreachable", len(p.Owners), p.GID))
		return
	}
	c.writeJSON(w, http.StatusOK, mergeInfos(p, infos, live))
}

// gatherInfos fetches each owner's SessionInfo concurrently; nil entries
// mark unreachable owners.
func (c *Coordinator) gatherInfos(ctx context.Context, p *placement) ([]*serve.SessionInfo, int) {
	infos := make([]*serve.SessionInfo, len(p.Owners))
	var wg sync.WaitGroup
	for i, o := range p.Owners {
		wg.Add(1)
		go func(i int, o ownerRef) {
			defer wg.Done()
			info, err := c.workers[o.URL].cli.Session(ctx, o.LocalID)
			if err != nil {
				c.stats.WorkerErrors.Add(1)
				return
			}
			infos[i] = info
		}(i, o)
	}
	wg.Wait()
	live := 0
	for _, info := range infos {
		if info != nil {
			live++
		}
	}
	return infos, live
}

// mergeInfos folds owner snapshots into one coordinator-level view: shape
// fields from the first live owner, work counters summed across owners.
func mergeInfos(p *placement, infos []*serve.SessionInfo, live int) sessionInfoJSON {
	var out serve.SessionInfo
	for _, info := range infos {
		if info == nil {
			continue
		}
		if out.ID == "" {
			out = *info
			continue
		}
		out.Stats.Add(&info.Stats)
		out.Saves += info.Saves
		out.Detects += info.Detects
		out.Batches += info.Batches
		out.IndexBuilds += info.IndexBuilds
		out.Bytes += info.Bytes
		out.QueueDepth += info.QueueDepth
	}
	out.ID = p.GID
	return sessionInfoJSON{SessionInfo: out, Owners: p.Owners, Degraded: live < len(p.Owners)}
}

func (c *Coordinator) handleDelete(w http.ResponseWriter, r *http.Request) {
	gid := r.PathValue("id")
	p, ok := c.placementOf(gid)
	if !ok {
		c.writeErr(w, r, http.StatusNotFound, fmt.Errorf("coord: no session %q", gid))
		return
	}
	var wg sync.WaitGroup
	for _, o := range p.Owners {
		wg.Add(1)
		go func(o ownerRef) {
			defer wg.Done()
			if err := c.workers[o.URL].cli.Delete(r.Context(), o.LocalID); err != nil {
				c.stats.WorkerErrors.Add(1)
				c.log.Warn("coord: delete replica", "worker", o.URL, "session", o.LocalID, "err", err)
			}
		}(o)
	}
	wg.Wait()
	c.mu.Lock()
	delete(c.placements, gid)
	c.mu.Unlock()
	c.writeJSON(w, http.StatusOK, map[string]any{"deleted": gid})
}

// --- scatter/gather ---

// chunkError reports one lost chunk in a partial response.
type chunkError struct {
	Chunk int    `json:"chunk"`
	From  int    `json:"from"`
	To    int    `json:"to"` // exclusive
	Error string `json:"error"`
}

// chunkRanges splits n tuples into one contiguous chunk per owner
// (at most n chunks), balanced: chunk k is [k*n/c, (k+1)*n/c).
func chunkRanges(n, owners int) [][2]int {
	chunks := owners
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([][2]int, chunks)
	for k := 0; k < chunks; k++ {
		out[k] = [2]int{k * n / chunks, (k + 1) * n / chunks}
	}
	return out
}

// scatter runs call for each chunk of n tuples across p's owners, with
// per-chunk failover: chunk k tries owner (k+j) mod len(owners) for
// j = 0.., so replicas split the primary load. call returns whether the
// owner answered definitively. A chunk is lost when every owner fails;
// the returned errors describe the lost chunks.
func (c *Coordinator) scatter(ctx context.Context, p *placement, n int,
	call func(chunk int, lo, hi int, o ownerRef) error) []chunkError {
	ranges := chunkRanges(n, len(p.Owners))
	c.stats.Scatters.Add(1)
	c.stats.ScatterChunks.Add(int64(len(ranges)))
	errsCh := make([]chunkError, len(ranges))
	lost := make([]bool, len(ranges))
	var wg sync.WaitGroup
	for k, rg := range ranges {
		wg.Add(1)
		go func(k int, lo, hi int) {
			defer wg.Done()
			// Chaos hook: a killed dispatch loses the whole chunk (as if
			// every owner refused it); a sleeping one delays it.
			if ferr := fault.Inject(fault.ShardDispatch); ferr != nil {
				c.stats.ChunkFailures.Add(1)
				lost[k] = true
				errsCh[k] = chunkError{Chunk: k, From: lo, To: hi, Error: ferr.Error()}
				return
			}
			var lastErr error
			for j := 0; j < len(p.Owners); j++ {
				o := p.Owners[(k+j)%len(p.Owners)]
				err := call(k, lo, hi, o)
				if err == nil {
					if j > 0 {
						c.stats.Failovers.Add(1)
					}
					return
				}
				c.stats.WorkerErrors.Add(1)
				lastErr = fmt.Errorf("worker %s: %w", o.URL, err)
				c.log.Warn("coord: chunk attempt failed", "chunk", k,
					"worker", o.URL, "attempt", j+1, "err", err)
			}
			c.stats.ChunkFailures.Add(1)
			lost[k] = true
			errsCh[k] = chunkError{Chunk: k, From: lo, To: hi, Error: lastErr.Error()}
		}(k, rg[0], rg[1])
	}
	wg.Wait()
	var out []chunkError
	for k := range ranges {
		if lost[k] {
			out = append(out, errsCh[k])
		}
	}
	return out
}

type detectRequest struct {
	Tuples [][]any `json:"tuples"`
	Member bool    `json:"member"`
}

// coordDetectResponse is the single-node detect answer plus the partial
// markers. Lost tuples carry neighbors = -1.
type coordDetectResponse struct {
	Eps     float64               `json:"eps"`
	Eta     int                   `json:"eta"`
	Results []client.DetectResult `json:"results"`
	Partial bool                  `json:"partial,omitempty"`
	Errors  []chunkError          `json:"errors,omitempty"`
}

func (c *Coordinator) handleDetect(w http.ResponseWriter, r *http.Request) {
	p, ok := c.placementOf(r.PathValue("id"))
	if !ok {
		c.writeErr(w, r, http.StatusNotFound, fmt.Errorf("coord: no session %q", r.PathValue("id")))
		return
	}
	var req detectRequest
	if !c.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Tuples) == 0 {
		c.writeErr(w, r, http.StatusBadRequest, errors.New("coord: tuples is required"))
		return
	}
	resp := coordDetectResponse{Results: make([]client.DetectResult, len(req.Tuples))}
	for i := range resp.Results {
		resp.Results[i].Neighbors = -1
	}
	var mu sync.Mutex
	lost := c.scatter(r.Context(), p, len(req.Tuples), func(_ int, lo, hi int, o ownerRef) error {
		dr, err := c.workers[o.URL].cli.Detect(r.Context(), o.LocalID, req.Tuples[lo:hi], req.Member)
		if err != nil {
			return err
		}
		if len(dr.Results) != hi-lo {
			return fmt.Errorf("chunk answer has %d results, want %d", len(dr.Results), hi-lo)
		}
		mu.Lock()
		defer mu.Unlock()
		resp.Eps, resp.Eta = dr.Eps, dr.Eta
		copy(resp.Results[lo:hi], dr.Results)
		return nil
	})
	c.finishScatter(w, r, p, len(lost), len(chunkRanges(len(req.Tuples), len(p.Owners))), func() {
		resp.Partial = len(lost) > 0
		resp.Errors = lost
		c.writeJSON(w, http.StatusOK, resp)
	})
}

type repairRequest struct {
	Tuples    [][]any `json:"tuples"`
	TimeoutMS int     `json:"timeout_ms"`
}

// coordRepairResponse is the single-node repair answer plus the partial
// markers. Lost tuples carry zero-valued adjustments (not saved, not
// natural, not exhausted) and are described in Errors.
type coordRepairResponse struct {
	Adjustments []client.Adjustment `json:"adjustments"`
	Saved       int                 `json:"saved"`
	Natural     int                 `json:"natural"`
	Exhausted   int                 `json:"exhausted"`
	Partial     bool                `json:"partial,omitempty"`
	Errors      []chunkError        `json:"errors,omitempty"`
}

func (c *Coordinator) handleRepair(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w, r) {
		return
	}
	p, ok := c.placementOf(r.PathValue("id"))
	if !ok {
		c.writeErr(w, r, http.StatusNotFound, fmt.Errorf("coord: no session %q", r.PathValue("id")))
		return
	}
	var req repairRequest
	if !c.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Tuples) == 0 {
		c.writeErr(w, r, http.StatusBadRequest, errors.New("coord: tuples is required"))
		return
	}
	resp := coordRepairResponse{Adjustments: make([]client.Adjustment, len(req.Tuples))}
	var mu sync.Mutex
	lost := c.scatter(r.Context(), p, len(req.Tuples), func(_ int, lo, hi int, o ownerRef) error {
		rr, err := c.workers[o.URL].cli.Repair(r.Context(), o.LocalID, req.Tuples[lo:hi], req.TimeoutMS)
		if err != nil {
			return err
		}
		if len(rr.Adjustments) != hi-lo {
			return fmt.Errorf("chunk answer has %d adjustments, want %d", len(rr.Adjustments), hi-lo)
		}
		mu.Lock()
		defer mu.Unlock()
		copy(resp.Adjustments[lo:hi], rr.Adjustments)
		resp.Saved += rr.Saved
		resp.Natural += rr.Natural
		resp.Exhausted += rr.Exhausted
		return nil
	})
	c.finishScatter(w, r, p, len(lost), len(chunkRanges(len(req.Tuples), len(p.Owners))), func() {
		resp.Partial = len(lost) > 0
		resp.Errors = lost
		c.writeJSON(w, http.StatusOK, resp)
	})
}

// finishScatter applies the gather policy: merge-site chaos first, then
// 503 when every chunk was lost, partial 200 when some survived, clean
// 200 otherwise.
func (c *Coordinator) finishScatter(w http.ResponseWriter, r *http.Request, p *placement,
	lostChunks, totalChunks int, ok func()) {
	if ferr := fault.Inject(fault.ShardMerge); ferr != nil {
		c.writeErr(w, r, http.StatusInternalServerError, fmt.Errorf("coord: merging chunk answers: %w", ferr))
		return
	}
	if lostChunks >= totalChunks {
		c.writeErr(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("coord: all %d chunks lost, every owner of %s is unreachable", totalChunks, p.GID))
		return
	}
	if lostChunks > 0 {
		c.stats.PartialResponses.Add(1)
	}
	ok()
}

type saveRequest struct {
	Tuple     []any `json:"tuple"`
	TimeoutMS int   `json:"timeout_ms"`
}

// handleSave proxies the single-tuple save, failing over through the
// owner list; only when every owner is lost does it answer 503.
func (c *Coordinator) handleSave(w http.ResponseWriter, r *http.Request) {
	if c.refuseDraining(w, r) {
		return
	}
	p, ok := c.placementOf(r.PathValue("id"))
	if !ok {
		c.writeErr(w, r, http.StatusNotFound, fmt.Errorf("coord: no session %q", r.PathValue("id")))
		return
	}
	var req saveRequest
	if !c.decodeJSON(w, r, &req) {
		return
	}
	if ferr := fault.Inject(fault.ShardDispatch); ferr != nil {
		c.writeErr(w, r, http.StatusServiceUnavailable, fmt.Errorf("coord: dispatching save: %w", ferr))
		return
	}
	var lastErr error
	for j, o := range p.Owners {
		adj, err := c.workers[o.URL].cli.SaveTuple(r.Context(), o.LocalID, req.Tuple, req.TimeoutMS)
		if err == nil {
			if j > 0 {
				c.stats.Failovers.Add(1)
			}
			c.writeJSON(w, http.StatusOK, adj)
			return
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// Definitive refusal (bad tuple → 400): the worker is alive,
			// pass its answer through instead of failing over.
			c.writeErr(w, r, apiErr.Status, errors.New(apiErr.Message))
			return
		}
		c.stats.WorkerErrors.Add(1)
		lastErr = fmt.Errorf("worker %s: %w", o.URL, err)
	}
	c.writeErr(w, r, http.StatusServiceUnavailable,
		fmt.Errorf("coord: all %d owners of %s are unreachable: %v", len(p.Owners), p.GID, lastErr))
}

// --- health, varz, metrics ---

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if c.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	c.writeJSON(w, code, map[string]any{
		"status":   status,
		"mode":     "coordinator",
		"workers":  len(c.workers),
		"uptime_s": time.Since(c.start).Seconds(),
	})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c.handleHealthz(w, r)
}

// handleVarz reports the coordinator's own counters, the per-worker
// client counters, and every placement with its per-owner (per-shard)
// SearchStats plus their merged sum.
func (c *Coordinator) handleVarz(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	list := make([]*placement, 0, len(c.placements))
	for _, p := range c.placements {
		list = append(list, p)
	}
	c.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].GID < list[j].GID })

	type ownerVarz struct {
		ownerRef
		Live  bool             `json:"live"`
		Stats *obs.SearchStats `json:"stats,omitempty"`
	}
	type placementVarz struct {
		ID       string          `json:"id"`
		Name     string          `json:"name"`
		Owners   []ownerVarz     `json:"owners"`
		Stats    obs.SearchStats `json:"stats"` // merged across owners
		Degraded bool            `json:"degraded"`
	}
	placements := make([]placementVarz, len(list))
	for i, p := range list {
		infos, live := c.gatherInfos(r.Context(), p)
		pv := placementVarz{ID: p.GID, Name: p.Name, Degraded: live < len(p.Owners)}
		for k, o := range p.Owners {
			ov := ownerVarz{ownerRef: o}
			if infos[k] != nil {
				ov.Live = true
				st := infos[k].Stats
				ov.Stats = &st
				pv.Stats.Add(&st)
			}
			pv.Owners = append(pv.Owners, ov)
		}
		placements[i] = pv
	}

	workers := make(map[string]obs.ClientSnapshot, len(c.workers))
	for u, wk := range c.workers {
		workers[u] = wk.stats.Snapshot()
	}
	c.writeJSON(w, http.StatusOK, map[string]any{
		"mode":             "coordinator",
		"uptime_s":         time.Since(c.start).Seconds(),
		"draining":         c.draining.Load(),
		"panics_recovered": c.panics.Load(),
		"replicas":         c.cfg.Replicas,
		"coord":            c.stats.Snapshot(),
		"workers":          workers,
		"placements":       placements,
	})
}

// handleMetrics exports the coordinator plane in Prometheus text format:
// disc_coord_* counters, per-worker client counters labeled by worker,
// and per-placement per-owner SearchStats labeled (session, worker).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	c.writeMetrics(r.Context(), p)
	if err := p.Flush(); err != nil {
		c.log.Warn("coord: writing /metrics", "err", err)
	}
}

func (c *Coordinator) writeMetrics(ctx context.Context, p *obs.PromWriter) {
	c.mu.RLock()
	list := make([]*placement, 0, len(c.placements))
	for _, pl := range c.placements {
		list = append(list, pl)
	}
	c.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].GID < list[j].GID })

	p.Gauge("disc_coord_uptime_seconds", "Seconds since the coordinator started.",
		time.Since(c.start).Seconds())
	p.Gauge("disc_coord_workers", "Workers the coordinator routes to.", float64(len(c.workers)))
	p.Gauge("disc_coord_placements", "Sessions currently placed on the fleet.", float64(len(list)))
	p.Counter("disc_coord_panics_recovered_total", "Handler panics recovered by the middleware.",
		float64(c.panics.Load()))

	// Coordinator scatter/gather counters: one family per CoordSnapshot
	// json tag, reflection-driven like the worker's exporter so the docs
	// drift check covers them.
	for _, cv := range obs.Counters(c.stats.Snapshot()) {
		p.Counter("disc_coord_"+cv.Name+"_total",
			"Coordinator scatter/gather counter (docs/OBSERVABILITY.md).", float64(cv.Value))
	}

	// Per-worker retrying-client counters, labeled by worker URL.
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	snaps := make([]obs.ClientSnapshot, len(urls))
	for i, u := range urls {
		snaps[i] = c.workers[u].stats.Snapshot()
	}
	for ti, tag := range obs.CounterNames(obs.ClientSnapshot{}) {
		for i, u := range urls {
			p.Counter("disc_coord_worker_client_"+tag+"_total",
				"Per-worker retrying-client counter (docs/OBSERVABILITY.md).",
				float64(obs.Counters(snaps[i])[ti].Value), "worker", u)
		}
	}

	// Per-placement per-owner SearchStats: the per-shard view, labeled
	// (session, worker). Gathered live from the owners.
	type ownerStats struct {
		gid, url string
		stats    obs.SearchStats
	}
	var owners []ownerStats
	for _, pl := range list {
		infos, _ := c.gatherInfos(ctx, pl)
		for k, o := range pl.Owners {
			if infos[k] == nil {
				continue
			}
			owners = append(owners, ownerStats{gid: pl.GID, url: o.URL, stats: infos[k].Stats})
		}
	}
	for ti, tag := range obs.CounterNames(obs.SearchStats{}) {
		for _, os := range owners {
			p.Counter("disc_coord_shard_search_"+tag+"_total",
				"Per-placement per-owner DISC search counter (docs/OBSERVABILITY.md).",
				float64(obs.Counters(os.stats)[ti].Value), "session", os.gid, "worker", os.url)
		}
	}
}

// --- plumbing ---

func (c *Coordinator) refuseDraining(w http.ResponseWriter, r *http.Request) bool {
	if !c.draining.Load() {
		return false
	}
	c.writeErr(w, r, http.StatusServiceUnavailable, errors.New("coord: draining"))
	return true
}

// decodeJSON decodes one request body with the worker's hardening (see
// serve.DecodeJSON), writing the error answer itself; it reports whether
// the handler should continue.
func (c *Coordinator) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	status, err := serve.DecodeJSON(w, r, c.cfg.MaxBodyBytes, v)
	if err != nil {
		c.writeErr(w, r, status, fmt.Errorf("coord: %w", err))
	}
	return err == nil
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		c.log.Warn("coord: writing response", "err", err)
	}
}

func (c *Coordinator) writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	id := w.Header().Get("X-Request-ID")
	c.writeJSON(w, status, serve.ErrorJSON{Error: err.Error(), RequestID: id})
}
