package serve

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
)

// handleMetrics serves Prometheus text exposition format — the same
// counters as /varz, shaped for a standard scraper, plus the full bucket
// vectors of every histogram (which /varz summarizes to percentiles).
// Dependency-free: the writer lives in internal/obs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	s.writeMetrics(p)
	if err := p.Flush(); err != nil {
		s.log.Warn("serve: writing /metrics", "err", err)
	}
}

// nsScale converts nanosecond histogram observations to the seconds
// Prometheus latency conventions expect.
const nsScale = 1e-9

// boolGauge renders a bool as 0/1.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeMetrics emits every family. The exposition format requires all
// series of one family to form a single group, so iteration is
// metric-major: each family loops over endpoints or sessions, not the
// other way around.
func (s *Server) writeMetrics(p *obs.PromWriter) {
	count, bytes, evicted, expired := s.reg.Stats()
	p.Gauge("disc_uptime_seconds", "Seconds since the server started.",
		time.Since(s.start).Seconds())
	p.Gauge("disc_ready", "1 when the server is serving traffic (snapshot replay done, not draining).",
		boolGauge(s.ready.Load()))
	p.Gauge("disc_draining", "1 once a graceful drain has begun.",
		boolGauge(s.draining.Load()))
	p.Counter("disc_panics_recovered_total", "Handler panics recovered by the middleware.",
		float64(s.panics.Load()))
	p.Counter("disc_traces_total", "API request traces recorded (bounded ring retains the most recent).",
		float64(s.traces.Total()))

	p.Gauge("disc_registry_sessions", "Sessions resident in the registry.", float64(count))
	p.Gauge("disc_registry_bytes", "Approximate resident bytes across sessions.", float64(bytes))
	p.Gauge("disc_registry_max_sessions", "Configured session-count bound.", float64(s.cfg.MaxSessions))
	p.Gauge("disc_registry_max_bytes", "Configured byte bound (0 = unbounded).", float64(s.cfg.MaxBytes))
	p.Counter("disc_registry_evicted_total", "Sessions evicted by the LRU count/byte bounds.", float64(evicted))
	p.Counter("disc_registry_expired_total", "Sessions expired by the idle TTL.", float64(expired))

	// Endpoint admission counters: one family per EndpointSnapshot json
	// tag, one series per endpoint. Reflection keeps this loop and the
	// docs drift check on the same tag universe — a counter added to
	// EndpointStats appears here with no exporter change.
	endpointNames := make([]string, 0, len(s.endpoints))
	for name := range s.endpoints {
		endpointNames = append(endpointNames, name)
	}
	// map order is random; the exposition format does not care about series
	// order within a family, but tests are simpler against sorted output.
	sort.Strings(endpointNames)
	snaps := make([]obs.EndpointSnapshot, len(endpointNames))
	for i, name := range endpointNames {
		snaps[i] = s.endpoints[name].Snapshot()
	}
	for ti, tag := range obs.CounterNames(obs.EndpointSnapshot{}) {
		for i, name := range endpointNames {
			p.Counter("disc_endpoint_"+tag+"_total",
				"Endpoint admission lifecycle counter (docs/OBSERVABILITY.md).",
				float64(obs.Counters(snaps[i])[ti].Value), "endpoint", name)
		}
	}
	for i, name := range endpointNames {
		p.Histogram("disc_request_seconds",
			"End-to-end request latency by endpoint, middleware-measured.",
			snaps[i].Latency, nsScale, "endpoint", name)
	}

	// Global serving histograms: monotone across session eviction, the
	// series an alerting rule should watch.
	gh := s.reg.hists.Snapshot()
	p.Histogram("disc_save_seconds", "Per-save wall time inside the dispatch workers.", gh.Save, nsScale)
	p.Histogram("disc_save_nodes", "Search nodes expanded per save.", gh.SaveNodes, 1)
	p.Histogram("disc_queue_wait_seconds", "Admission-queue wait per request.", gh.QueueWait, nsScale)
	p.Histogram("disc_batch_size", "Requests per batch dispatch.", gh.BatchSize, 1)
	p.Histogram("disc_redetect_touched", "Tuples re-examined per mutation.", gh.Redetect, 1)

	// Per-session series, labeled (session id, human name). Session names
	// are user-supplied — the label escaping is load-bearing here.
	infos := make([]SessionInfo, 0, count)
	for _, sess := range s.reg.List() {
		infos = append(infos, sess.Info())
	}
	labels := func(i int) []string {
		return []string{"session", infos[i].ID, "name", infos[i].Name}
	}
	for ti, tag := range obs.CounterNames(obs.SearchStats{}) {
		for i := range infos {
			p.Counter("disc_session_search_"+tag+"_total",
				"Per-session DISC search/index counter (docs/OBSERVABILITY.md).",
				float64(obs.Counters(infos[i].Stats)[ti].Value), labels(i)...)
		}
	}
	for i := range infos {
		p.Counter("disc_session_saves_total", "Save requests served by the session.",
			float64(infos[i].Saves), labels(i)...)
	}
	for i := range infos {
		p.Counter("disc_session_detects_total", "Tuples screened by /detect against the session.",
			float64(infos[i].Detects), labels(i)...)
	}
	for i := range infos {
		p.Counter("disc_session_batches_total", "Batches dispatched by the session's executor.",
			float64(infos[i].Batches), labels(i)...)
	}
	for i := range infos {
		p.Counter("disc_session_mutations_total", "Tuple mutations applied (insert+update+delete).",
			float64(infos[i].Inserted+infos[i].Updated+infos[i].Deleted), labels(i)...)
	}
	for i := range infos {
		p.Gauge("disc_session_queue_depth", "Requests currently queued for the session.",
			float64(infos[i].QueueDepth), labels(i)...)
	}
	for i := range infos {
		p.Gauge("disc_session_bytes", "Approximate resident bytes of the session.",
			float64(infos[i].Bytes), labels(i)...)
	}
	for i := range infos {
		p.Histogram("disc_session_save_seconds", "Per-save wall time, per session.",
			infos[i].Hists.Save, nsScale, labels(i)...)
	}
	for i := range infos {
		p.Histogram("disc_session_save_nodes", "Search nodes per save, per session.",
			infos[i].Hists.SaveNodes, 1, labels(i)...)
	}
	for i := range infos {
		p.Histogram("disc_session_queue_wait_seconds", "Queue wait per request, per session.",
			infos[i].Hists.QueueWait, nsScale, labels(i)...)
	}
	for i := range infos {
		p.Histogram("disc_session_batch_size", "Batch size per dispatch, per session.",
			infos[i].Hists.BatchSize, 1, labels(i)...)
	}
	for i := range infos {
		p.Histogram("disc_session_redetect_touched", "Tuples re-examined per mutation, per session.",
			infos[i].Hists.Redetect, 1, labels(i)...)
	}

	// Store counters and snapshot-write latency, present only with a data
	// dir.
	if st := s.reg.store; st != nil {
		snap := st.Stats()
		for _, c := range obs.Counters(snap) {
			p.Counter("disc_store_"+c.Name+"_total",
				"Durable session store counter (docs/OBSERVABILITY.md).", float64(c.Value))
		}
		p.Histogram("disc_snapshot_write_seconds", "Durable snapshot write wall time.",
			snap.SnapshotWrite, nsScale)
	}
}
