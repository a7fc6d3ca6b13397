package serve

import (
	"bytes"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/api"
)

// TestMetricsEndpoint drives real traffic through the stack, scrapes
// GET /metrics, and validates the output with the shared Prometheus
// parser: the golden-format guarantee the exporter makes to scrapers.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{BatchWindow: -1, Workers: 1})
	// A session name containing every escapable label character: the
	// exporter must round-trip it, not corrupt the exposition format.
	gnarly := `blob "A"\B` + "\nrest"
	w := do(t, s, "POST", "/v1/datasets", api.CreateRequest{
		Name: gnarly, CSV: testCSV(t), BuildParams: api.BuildParams{Eps: 1, Eta: 3, Kappa: 2},
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload: status %d, body %s", w.Code, w.Body.String())
	}
	info := decode[SessionInfo](t, w)
	if w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", api.TupleRequest{Tuple: []any{25.0, 25.0}}); w.Code != http.StatusOK {
		t.Fatalf("save: status %d, body %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/detect", api.DetectRequest{Tuples: [][]any{{0.4, 0.4}}}); w.Code != http.StatusOK {
		t.Fatalf("detect: status %d, body %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/tuples", api.TupleRequest{Tuple: []any{0.2, 0.2}}); w.Code != http.StatusCreated {
		t.Fatalf("insert: status %d, body %s", w.Code, w.Body.String())
	}

	mw := do(t, s, "GET", "/metrics", nil)
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", mw.Code)
	}
	if ct := mw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition format", ct)
	}
	fams, err := obs.ParseProm(bytes.NewReader(mw.Body.Bytes()))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v\n%s", err, mw.Body.String())
	}

	// The save latency histogram must have recorded the save.
	for _, name := range []string{"disc_save_seconds", "disc_save_nodes", "disc_batch_size",
		"disc_queue_wait_seconds", "disc_redetect_touched", "disc_request_seconds",
		"disc_session_save_seconds"} {
		f := fams[name]
		if f == nil || f.Type != "histogram" {
			t.Fatalf("family %s missing or not a histogram", name)
		}
	}
	count := func(name string) float64 {
		var total float64
		for _, smp := range fams[name].Samples {
			if smp.Name == name+"_count" {
				total += smp.Value
			}
		}
		return total
	}
	if c := count("disc_save_seconds"); c < 1 {
		t.Errorf("disc_save_seconds count = %v, want >= 1", c)
	}
	if c := count("disc_redetect_touched"); c < 1 {
		t.Errorf("disc_redetect_touched count = %v, want >= 1 after the insert", c)
	}

	// Endpoint counters: the save endpoint saw at least one request, and
	// every EndpointSnapshot tag became a family.
	for _, tag := range obs.CounterNames(obs.EndpointSnapshot{}) {
		f := fams["disc_endpoint_"+tag+"_total"]
		if f == nil || f.Type != "counter" {
			t.Fatalf("endpoint counter family for tag %q missing", tag)
		}
	}
	var saveReqs float64
	for _, smp := range fams["disc_endpoint_requests_total"].Samples {
		if smp.Labels["endpoint"] == "save" {
			saveReqs = smp.Value
		}
	}
	if saveReqs < 1 {
		t.Errorf("disc_endpoint_requests_total{endpoint=save} = %v, want >= 1", saveReqs)
	}

	// Per-session counters carry the (session, name) labels, with the
	// gnarly name intact after unescaping.
	f := fams["disc_session_saves_total"]
	if f == nil {
		t.Fatal("disc_session_saves_total missing")
	}
	found := false
	for _, smp := range f.Samples {
		if smp.Labels["session"] == info.ID {
			found = true
			if smp.Labels["name"] != gnarly {
				t.Errorf("session name label = %q, want %q", smp.Labels["name"], gnarly)
			}
			if smp.Value < 1 {
				t.Errorf("session saves = %v, want >= 1", smp.Value)
			}
		}
	}
	if !found {
		t.Errorf("no disc_session_saves_total sample for session %s", info.ID)
	}

	// Search counters: one family per SearchStats tag.
	for _, tag := range obs.CounterNames(obs.SearchStats{}) {
		if fams["disc_session_search_"+tag+"_total"] == nil {
			t.Errorf("search counter family for tag %q missing", tag)
		}
	}
	if fams["disc_traces_total"] == nil || fams["disc_traces_total"].Samples[0].Value < 1 {
		t.Errorf("disc_traces_total missing or zero: traced requests were served")
	}
}

// TestSlowRequestEmitsSpans: with a threshold of 1ns every API request is
// slow, and the middleware must log the span breakdown.
func TestSlowRequestEmitsSpans(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := newTestServer(t, Config{BatchWindow: -1, Workers: 1, SlowRequest: time.Nanosecond, Logger: log})
	info := uploadSession(t, s)
	if w := do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", api.TupleRequest{Tuple: []any{25.0, 25.0}}); w.Code != http.StatusOK {
		t.Fatalf("save: status %d, body %s", w.Code, w.Body.String())
	}
	out := buf.String()
	if !strings.Contains(out, "slow request") {
		t.Fatalf("no slow-request log line:\n%s", out)
	}
	// The breakdown must include the full request lifecycle: the handler's
	// admit span, the queue wait, and the save execution.
	for _, span := range []string{"admit=", "queue=", "save=", "dispatch=", "respond="} {
		if !strings.Contains(out, span) {
			t.Errorf("slow-request breakdown missing %q:\n%s", span, out)
		}
	}
	if !strings.Contains(out, "request_id=") {
		t.Errorf("slow-request line has no request id:\n%s", out)
	}

	// The upload's own line breaks the session build into its phases; ε
	// and η were given, so no parameter determination ran.
	upload := slowLine(t, out, "path=/v1/datasets ")
	for _, span := range []string{"parse=", "validate=", "detect_index=", "detect=", "saver_index=", "saver_setup="} {
		if !strings.Contains(upload, span) {
			t.Errorf("upload breakdown missing %q:\n%s", span, upload)
		}
	}
	if strings.Contains(upload, "params=") {
		t.Errorf("upload with ε and η set recorded a params span:\n%s", upload)
	}
	buf.Reset()
	if w := do(t, s, "POST", "/v1/datasets", api.CreateRequest{Name: "auto", CSV: testCSV(t),
		BuildParams: api.BuildParams{Kappa: 2}}); w.Code != http.StatusCreated {
		t.Fatalf("auto-params upload: status %d, body %s", w.Code, w.Body.String())
	}
	if auto := slowLine(t, buf.String(), "path=/v1/datasets "); !strings.Contains(auto, "params=") {
		t.Errorf("upload with automatic ε, η has no params span:\n%s", auto)
	}
}

// slowLine returns the slow-request log line containing marker.
func slowLine(t *testing.T, log, marker string) string {
	t.Helper()
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, "slow request") && strings.Contains(line, marker) {
			return line
		}
	}
	t.Fatalf("no slow-request line for %q:\n%s", marker, log)
	return ""
}

// TestSlowRequestDisabledByDefault: without SlowRequest no per-request
// warning fires even for real work.
func TestSlowRequestDisabledByDefault(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := newTestServer(t, Config{BatchWindow: -1, Workers: 1, Logger: log})
	info := uploadSession(t, s)
	do(t, s, "POST", "/v1/datasets/"+info.ID+"/save", api.TupleRequest{Tuple: []any{25.0, 25.0}})
	if strings.Contains(buf.String(), "slow request") {
		t.Errorf("slow-request warning fired with the threshold disabled:\n%s", buf.String())
	}
}

// TestProbesNotTraced: health and metrics polls must not enter the trace
// ring — a 1s-interval scraper would evict every real request trace.
func TestProbesNotTraced(t *testing.T) {
	s := newTestServer(t, Config{BatchWindow: -1, Workers: 1})
	do(t, s, "GET", "/healthz", nil)
	do(t, s, "GET", "/metrics", nil)
	do(t, s, "GET", "/varz", nil)
	if got := s.traces.Total(); got != 0 {
		t.Errorf("probe endpoints recorded %d traces, want 0", got)
	}
	uploadSession(t, s)
	if got := s.traces.Total(); got < 1 {
		t.Errorf("API request recorded no trace")
	}
}
