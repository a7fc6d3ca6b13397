package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestSendRepairOutcomes feeds sendRepair a whole answer, a coordinator's
// partial answer (the lost chunk's tuple is neither saved nor natural) and
// a refusal, and checks how error_frac counts them.
func TestSendRepairOutcomes(t *testing.T) {
	answers := []struct {
		status int
		body   string
	}{
		{200, `{"adjustments":[{"saved":true,"cost":1,"tuple":[1.5]},{"natural":true}],"saved":1,"natural":1}`},
		{200, `{"adjustments":[{"saved":true,"cost":1,"tuple":[1.5]},{}],"saved":1,"partial":true,"errors":[{"chunk":1}]}`},
		{400, `{"error":"tuple has 1 values, want 16"}`},
	}
	var next atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/datasets/s1/repair" || r.Header.Get("X-Request-ID") == "" {
			t.Errorf("unexpected request %s %s (id %q)", r.Method, r.URL.Path, r.Header.Get("X-Request-ID"))
		}
		a := answers[next.Add(1)-1]
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(a.status)
		w.Write([]byte(a.body))
	}))
	defer srv.Close()

	c := newCaller(&tracer{}, srv.URL, srv.Client())
	var tally ErrorTally
	var outs []Outcome
	for range answers {
		_, out := sendRepair(context.Background(), c, "s1", [][]any{{1.0}, {2.0}})
		tally.Add(out)
		outs = append(outs, out)
	}
	if outs[0].Failed() {
		t.Errorf("whole answer counted as failed: %+v", outs[0])
	}
	if !outs[1].Partial || !outs[1].Failed() {
		t.Errorf("partial answer not counted as a failed partial: %+v", outs[1])
	}
	if outs[2].Status != 400 || !outs[2].Failed() {
		t.Errorf("refusal = %+v, want status 400 and failed", outs[2])
	}
	if tally.Attempted != 3 || tally.Failed != 2 {
		t.Errorf("tally = %+v, want 3 attempted, 2 failed", tally)
	}
}

// TestCallerParentsServerSpans checks that a traced request's client span
// carries the X-Request-ID the server saw, and that the handler wrapper
// parents its span on it.
func TestCallerParentsServerSpans(t *testing.T) {
	tr := &tracer{}
	rec := NewRecorder()
	tr.rec.Store(rec)
	var seen atomic.Value
	h := tr.wrapHandler("serve.handler", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get("X-Request-ID"))
		w.Write([]byte(`{"adjustments":[{"natural":true}]}`))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := newCaller(tr, srv.URL, srv.Client())
	if _, out := sendRepair(context.Background(), c, "s1", [][]any{{1.0}}); out.Failed() {
		t.Fatalf("request failed: %+v", out)
	}
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want a client and a handler span", len(spans))
	}
	client, handler := spans[0], spans[1]
	if client.Name != "client.request" || handler.Name != "serve.handler.repair" {
		t.Fatalf("span names %q, %q", client.Name, handler.Name)
	}
	if handler.Parent != client.ID {
		t.Errorf("handler span parent = %d, want the client span %d", handler.Parent, client.ID)
	}
	if id := seen.Load().(string); client.Req != id || handler.Req != id {
		t.Errorf("request ids: client %q, handler %q, server saw %q", client.Req, handler.Req, id)
	}
}
