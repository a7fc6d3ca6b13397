package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// tracer is the switchable recorder of a served workload: nil while the
// untraced phase runs, set for the traced one. The client and the handler
// wrappers read it per request.
type tracer struct {
	rec atomic.Pointer[Recorder]
	// clientSpan maps a request id to its client span, so a handler
	// wrapper can parent its span on it.
	clientSpan sync.Map
}

type ctxKey struct{}

// parentHeader carries a span id from a coordinator's outgoing worker call
// to the worker's handler wrapper.
const parentHeader = "X-Perfbench-Parent"

// wrapHandler times every request a handler serves as a span named
// prefix + "." + the request's kind, parented on the client span with the
// same X-Request-ID or on the span id in parentHeader. The span id rides
// the request context so outgoing calls can parent on it.
func (t *tracer) wrapHandler(prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get("X-Request-ID")
		parent := 0
		if v, ok := t.clientSpan.Load(req); ok {
			parent = v.(int)
		}
		if p, err := strconv.Atoi(r.Header.Get(parentHeader)); err == nil {
			parent = p
		}
		id := rec.Begin(prefix+"."+requestKind(r), parent, req)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, id)))
		rec.End(id)
	})
}

// requestKind classifies a request for span names: repair, write (tuple
// mutations) or other.
func requestKind(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/repair"):
		return "repair"
	case strings.Contains(r.URL.Path, "/tuples"):
		return "write"
	}
	return "other"
}

// tracingTransport times a coordinator's calls to its workers as spans
// parented on the coordinator handler span found in the request context.
type tracingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := tt.t.rec.Load()
	parent, _ := r.Context().Value(ctxKey{}).(int)
	if rec == nil || parent == 0 {
		return tt.next.RoundTrip(r)
	}
	id := rec.Begin("coord.worker_call."+requestKind(r), parent, r.Header.Get("X-Request-ID"))
	r = r.Clone(r.Context())
	r.Header.Set(parentHeader, strconv.Itoa(id))
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		rec.End(id)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { rec.End(id) }}
	return resp, nil
}

// endOnClose ends a span when the response body is closed, so the span
// covers reading the worker's answer.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// listener serves h on a loopback port until stop is called.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	return l, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (l *listener) stop(ctx context.Context) {
	_ = l.srv.Shutdown(ctx) // a benchmark at its end has no caller to report a slow drain to
	<-l.done
}

// caller is one closed-loop client. It sends its requests through
// internal/serve/client, the client disccli -remote and the coordinator
// use, with a single attempt per request so every failure counts. Each
// caller has a client of its own, so the request id that client's
// OnRequest hook reports belongs to the one request the caller has in
// flight; the hook maps that id to the client span, and the server's
// handler wrapper parents its span on it.
type caller struct {
	cl   *client.Client
	t    *tracer
	span int    // client span of the request in flight (0 untraced)
	req  string // its X-Request-ID
}

func newCaller(t *tracer, base string, hc *http.Client) *caller {
	c := &caller{t: t}
	c.cl = client.New(client.Config{
		BaseURL: base, HTTPClient: hc, MaxRetries: -1,
		OnRequest: func(id, _, _ string) {
			c.req = id
			if c.span != 0 {
				t.clientSpan.Store(id, c.span)
			}
		},
	})
	return c
}

// call runs one request, inside a client span when tracing, and returns
// its outcome.
func (c *caller) call(fn func(*client.Client) error) Outcome {
	rec := c.t.rec.Load()
	c.span, c.req = rec.Begin("client.request", 0, ""), ""
	err := fn(c.cl)
	if c.span != 0 {
		c.t.clientSpan.Delete(c.req)
		rec.SetReq(c.span, c.req)
		rec.End(c.span)
		c.span = 0
	}
	var api *client.APIError
	if errors.As(err, &api) {
		return Outcome{Status: api.Status, Err: err}
	}
	return Outcome{Err: err}
}

// upload creates a session from CSV bytes, as a coordinator forwards an
// upload, and returns its id and the time until the create answered.
func upload(ctx context.Context, c *caller, csv []byte, cons core.Constraints, kappa int) (string, time.Duration, error) {
	query := fmt.Sprintf("eps=%g&eta=%d&kappa=%d", cons.Eps, cons.Eta, kappa)
	var info *serve.SessionInfo
	start := time.Now()
	out := c.call(func(cl *client.Client) (err error) {
		info, err = cl.CreateDatasetRaw(ctx, "text/csv", query, csv)
		return err
	})
	elapsed := time.Since(start)
	if out.Err != nil {
		return "", 0, fmt.Errorf("uploading: %w", out.Err)
	}
	return info.ID, elapsed, nil
}

// op is one request the load generator sent.
type op struct {
	kind       string // "read", "insert" or "delete"
	start, end time.Time
	out        Outcome
	// pool holds the pool positions a read sent, resp its answer.
	pool []int
	resp *client.RepairResponse
}

func (o op) ms() float64 { return float64(o.end.Sub(o.start).Nanoseconds()) / 1e6 }

// loadSpec is a closed-loop traffic mix against one session.
type loadSpec struct {
	perRead int // pool tuples per /repair
	// writesPer10 is how many of every 10 requests mutate: inserts and
	// deletes alternate.
	writesPer10 int
	pool        [][]any // held-out tuples, as JSON values
	session     string  // the session the reads repair against
	// insert and remove perform one mutation (nil when writesPer10 is 0).
	insert func(ctx context.Context, c *caller, rng *rand.Rand) Outcome
	remove func(ctx context.Context, c *caller, rng *rand.Rand) (Outcome, bool)
}

// runLoad drives spec with one closed-loop client per caller for d and
// returns every request they completed. Each client sends its next
// request only after the previous answer arrived. Reads walk the pool in
// order from a shared cursor, so every pool tuple is sent about equally
// often.
func runLoad(ctx context.Context, callers []*caller, spec loadSpec, d time.Duration, seed int64) []op {
	var cursor atomic.Int64
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var ops []op
	var wg sync.WaitGroup
	for k, c := range callers {
		wg.Add(1)
		go func(k int, c *caller) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
			var mine []op
			for n := 0; time.Now().Before(deadline); n++ {
				o := op{start: time.Now()}
				// A fixed schedule, not a coin flip per request: every run
				// sends exactly the stated mix, so runs compare like for like.
				slot := n % 10
				if spec.writesPer10 > 0 && slot < spec.writesPer10 {
					o.kind = "insert"
					if slot%2 == 1 {
						if out, ok := spec.remove(ctx, c, rng); ok {
							o.kind, o.out = "delete", out
						}
					}
					if o.kind == "insert" {
						o.out = spec.insert(ctx, c, rng)
					}
				} else {
					o.kind = "read"
					ord := int(cursor.Add(int64(spec.perRead))) - spec.perRead
					tuples := make([][]any, spec.perRead)
					for j := range tuples {
						p := (ord + j) % len(spec.pool)
						o.pool = append(o.pool, p)
						tuples[j] = spec.pool[p]
					}
					o.resp, o.out = sendRepair(ctx, c, spec.session, tuples)
				}
				o.end = time.Now()
				mine = append(mine, o)
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(k, c)
	}
	wg.Wait()
	return ops
}

// sendRepair sends one /repair. A tuple answered neither saved nor natural
// was lost with its chunk: a coordinator marks a partial answer that way,
// and without node or time budgets every answered tuple is one or the
// other. Such an answer counts as partial.
func sendRepair(ctx context.Context, c *caller, id string, tuples [][]any) (*client.RepairResponse, Outcome) {
	var rr *client.RepairResponse
	out := c.call(func(cl *client.Client) (err error) {
		rr, err = cl.Repair(ctx, id, tuples, 0)
		return err
	})
	if out.Err != nil {
		return nil, out
	}
	if len(rr.Adjustments) != len(tuples) {
		out.Err = fmt.Errorf("%d adjustments for %d tuples", len(rr.Adjustments), len(tuples))
	}
	for _, a := range rr.Adjustments {
		if !a.Saved && !a.Natural {
			out.Partial = true
		}
	}
	return rr, out
}

// latencies returns the latencies, in ms, of the successful ops of the
// given kinds.
func latencies(ops []op, kinds ...string) []float64 {
	var out []float64
	for _, o := range ops {
		for _, k := range kinds {
			if o.kind == k && !o.out.Failed() {
				out = append(out, o.ms())
			}
		}
	}
	return out
}

// loadMetrics fills the client.* and quality.* metrics of a load phase and
// checks its saved repairs.
func loadMetrics(rep *report, ops []op, d time.Duration, pool []data.Tuple, sch *data.Schema, kappa int) {
	reads, writes := latencies(ops, "read"), latencies(ops, "insert", "delete")
	L := rep.layer
	L["client.req_per_s"] = float64(len(ops)) / d.Seconds()
	L["client.read_p50_ms"] = Median(reads)
	if v, ok := TailPercentile(reads, 0.99); ok {
		L["client.read_p99_ms"] = v
	}
	if len(writes) > 0 {
		L["client.write_p50_ms"] = Median(writes)
		if v, ok := TailPercentile(writes, 0.99); ok {
			L["client.write_p99_ms"] = v
		}
	}
	sent, saved, cost := 0, 0, 0.0
	var bad error
	for _, o := range ops {
		if o.kind != "read" || o.out.Failed() {
			continue
		}
		for j, a := range o.resp.Adjustments {
			sent++
			if !a.Saved {
				continue
			}
			saved++
			cost += a.Cost
			if bad != nil {
				continue
			}
			t, err := tupleFromJSON(sch, a.Tuple)
			if err == nil {
				err = checkAdjustment(sch, pool[o.pool[j]], t, a.Cost, kappa)
			}
			if err != nil {
				bad = fmt.Errorf("pool tuple %d: %w", o.pool[j], err)
			}
		}
	}
	rep.check("every saved repair is within κ at its reported cost", bad)
	L["quality.outliers"] = float64(sent)
	if sent > 0 {
		L["quality.saved_frac"] = float64(saved) / float64(sent)
	}
	if saved > 0 {
		L["quality.mean_cost"] = cost / float64(saved)
	}
	L["quality.error_frac"] = rep.tally.Frac()
	rep.note("reads=%d writes=%d (p99 reported only with ≥1000) repair tuples=%d saved=%d saved_frac=%.4f mean_cost=%.4f error_frac=%.4f",
		len(reads), len(writes), sent, saved, L["quality.saved_frac"], L["quality.mean_cost"], rep.tally.Frac())
	for _, o := range ops {
		if o.out.Failed() {
			rep.note("first failed %s: %v (status %d, partial %v)", o.kind, o.out.Err, o.out.Status, o.out.Partial)
			break
		}
	}
}

func tupleToJSON(t data.Tuple, sch *data.Schema) []any {
	out := make([]any, len(t))
	for a := range t {
		if sch.Attrs[a].Kind == data.Text {
			out[a] = t[a].Str
		} else {
			out[a] = t[a].Num
		}
	}
	return out
}

func tupleFromJSON(sch *data.Schema, raw []any) (data.Tuple, error) {
	if len(raw) != sch.M() {
		return nil, fmt.Errorf("tuple has %d values, want %d", len(raw), sch.M())
	}
	t := make(data.Tuple, len(raw))
	for a, v := range raw {
		switch x := v.(type) {
		case float64:
			t[a] = data.Num(x)
		case string:
			t[a] = data.Str(x)
		default:
			return nil, errors.New("tuple value is neither a number nor a string")
		}
	}
	return t, nil
}
