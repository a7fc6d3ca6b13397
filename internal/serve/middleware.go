package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
)

// ctxKey keys the values this package stores in request contexts.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// requestIDFrom returns the request ID installed by the middleware, or "".
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// StatusWriter captures the status code for the request log. The worker
// and coordinator middlewares both wrap their ResponseWriter in one.
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.Status == 0 {
		w.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.Status == 0 {
		w.Status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// ErrorJSON is the uniform error body of every error answer, worker and
// coordinator alike.
type ErrorJSON struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// DecodeJSON reads one JSON request body into v with the full hardening
// set: the body is capped at limit bytes (413, not a mid-stream decode
// error), unknown fields are rejected (a typoed "kapa" should fail loudly,
// not silently use the default), and anything but whitespace after the
// value is a 400. On failure it returns the status to answer with and an
// unprefixed error; each server writes them through its own writeErr.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after JSON value")
		}
	}
	if err == nil {
		return 0, nil
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit)
	}
	return http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
}

// endpointOf classifies a request path onto the endpoint-stats key the
// handlers use, "" for paths outside the API surface (health, varz,
// metrics).
func endpointOf(path string) string {
	if !strings.HasPrefix(path, "/v1/datasets") {
		return ""
	}
	switch {
	case strings.HasSuffix(path, "/detect"):
		return "detect"
	case strings.HasSuffix(path, "/save"):
		return "save"
	case strings.HasSuffix(path, "/repair"):
		return "repair"
	case strings.Contains(path, "/tuples"):
		return "tuples"
	default:
		return "datasets"
	}
}

// wrap layers the middleware: request ID assignment, request-scoped trace,
// panic recovery, latency recording and request logging, outermost first.
func (s *Server) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Request ID: honor the client's (proxies and the retrying client
		// propagate one, correlating attempts of the same logical call),
		// mint otherwise, echo it back either way.
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		ctx := context.WithValue(r.Context(), ctxKeyRequestID, id)

		// API requests get a trace; probe and scrape paths do not, so the
		// ring holds real work, not /metrics polls.
		ep := endpointOf(r.URL.Path)
		var tr *obs.Trace
		if ep != "" {
			tr = obs.NewTrace(id)
			ctx = obs.ContextWithTrace(ctx, tr)
		}
		r = r.WithContext(ctx)

		sw := &StatusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.log.Error("serve: panic in handler", "request_id", id,
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if sw.Status == 0 {
					// Headers not sent yet: answer a proper 500. Otherwise
					// the response is already on the wire; just cut it off.
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					json.NewEncoder(sw).Encode(ErrorJSON{
						Error:     "internal server error",
						RequestID: id,
					})
				}
			}
			dur := time.Since(start)
			if ep != "" {
				s.endpoints[ep].Latency.Observe(int64(dur))
			}
			if tr != nil {
				s.traces.Add(tr)
				if thr := s.cfg.SlowRequest; thr > 0 && dur >= thr {
					s.log.Warn("serve: slow request", "request_id", id,
						"method", r.Method, "path", r.URL.Path,
						"status", sw.Status, "dur", dur.Round(time.Microsecond),
						"spans", tr.Breakdown())
				}
			}
			s.log.Info("serve: request", "request_id", id,
				"method", r.Method, "path", r.URL.Path,
				"status", sw.Status, "dur", dur.Round(time.Microsecond))
		}()
		next.ServeHTTP(sw, r)
	})
}
