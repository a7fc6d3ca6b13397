package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// poolSize is how many dirty Letter tuples the served workloads hold out
// of the upload and send to /repair: about half of them, so the pool's mix
// of cheap and costly saves varies little from seed to seed. A multiple of
// every request size.
const poolSize = 1024

// letterCons are the paper's Letter constraints.
var letterCons = core.Constraints{Eps: 3, Eta: 18}

const letterKappa = 2

// heldOut is the Letter dataset split into the uploaded rows and a pool
// of held-out dirty tuples.
type heldOut struct {
	upload *data.Relation
	csv    []byte
	pool   []data.Tuple
	// clean lists upload rows that were never corrupted: the templates of
	// the inserts.
	clean []int
}

func letterHeldOut(seed int64) (*heldOut, error) {
	ds, err := data.Table1("Letter", 1, seed)
	if err != nil {
		return nil, fmt.Errorf("generating Letter: %w", err)
	}
	var dirty []int
	for i, m := range ds.Dirty {
		if m != 0 {
			dirty = append(dirty, i)
		}
	}
	if len(dirty) < poolSize {
		return nil, fmt.Errorf("Letter has %d dirty tuples, the pool needs %d", len(dirty), poolSize)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
	held := make(map[int]bool, poolSize)
	h := &heldOut{upload: data.NewRelation(ds.Rel.Schema)}
	for _, i := range dirty[:poolSize] {
		held[i] = true
		h.pool = append(h.pool, ds.Rel.Tuples[i])
	}
	for i, t := range ds.Rel.Tuples {
		if held[i] {
			continue
		}
		if ds.Dirty[i] == 0 && !ds.Natural[i] {
			h.clean = append(h.clean, h.upload.N())
		}
		h.upload.Append(t)
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, h.upload); err != nil {
		return nil, fmt.Errorf("encoding the upload: %w", err)
	}
	h.csv = buf.Bytes()
	return h, nil
}

func (h *heldOut) poolJSON() [][]any {
	out := make([][]any, len(h.pool))
	for i, t := range h.pool {
		out[i] = tupleToJSON(t, h.upload.Schema)
	}
	return out
}

// mirror tracks the rows of a mutated session by logical handle.
type mirror struct {
	sch      *data.Schema
	mu       sync.Mutex
	rows     map[int]data.Tuple
	inserted []int // live handles the benchmark inserted
}

func runServeChurn(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	h, err := letterHeldOut(cfg.seed)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	srv := serve.New(serve.Config{})
	l, err := listen(tr.wrapHandler("serve.handler", srv.Handler()))
	if err != nil {
		return nil, err
	}
	defer func() {
		l.stop(ctx)
		_ = srv.Shutdown(ctx) // memory-only sessions: nothing to persist
	}()
	hc := loopbackClient()
	defer hc.CloseIdleConnections()
	callers := []*caller{newCaller(tr, l.url, hc), newCaller(tr, l.url, hc)}

	id, setups, err := setupSessions(ctx, callers[0], h.csv)
	if err != nil {
		return nil, err
	}
	sess, ok := srv.Registry().Get(id)
	if !ok {
		return nil, fmt.Errorf("session %s is not in the server's registry", id)
	}
	m := &mirror{sch: h.upload.Schema, rows: make(map[int]data.Tuple, h.upload.N())}
	for i, t := range h.upload.Tuples {
		m.rows[i] = t
	}
	sch := h.upload.Schema
	spec := loadSpec{
		perRead: 4, writesPer10: 2,
		pool: h.poolJSON(), session: id,
		insert: func(ctx context.Context, c *caller, rng *rand.Rand) Outcome {
			t := jitter(sch, h.upload.Tuples[h.clean[rng.Intn(len(h.clean))]], rng)
			var mr *client.MutateResponse
			out := c.call(func(cl *client.Client) (err error) {
				mr, err = cl.InsertTuple(ctx, id, tupleToJSON(t, sch), 0)
				return err
			})
			if out.Err == nil {
				m.mu.Lock()
				m.rows[mr.Index] = t
				m.inserted = append(m.inserted, mr.Index)
				m.mu.Unlock()
			}
			return out
		},
		remove: func(ctx context.Context, c *caller, rng *rand.Rand) (Outcome, bool) {
			m.mu.Lock()
			if len(m.inserted) == 0 {
				m.mu.Unlock()
				return Outcome{}, false
			}
			k := rng.Intn(len(m.inserted))
			idx := m.inserted[k]
			m.inserted[k] = m.inserted[len(m.inserted)-1]
			m.inserted = m.inserted[:len(m.inserted)-1]
			m.mu.Unlock()
			out := c.call(func(cl *client.Client) error {
				_, err := cl.DeleteTuple(ctx, id, idx)
				return err
			})
			if out.Err == nil {
				m.mu.Lock()
				delete(m.rows, idx)
				m.mu.Unlock()
			}
			return out, true
		},
	}

	var untracedRepair float64
	if cfg.traced {
		warm := runLoad(ctx, callers, spec, cfg.seconds/2, cfg.seed+1)
		untracedRepair = Median(latencies(warm, "read"))
		for _, o := range warm {
			rep.tally.Add(o.out)
		}
		rep.rec = NewRecorder()
		tr.rec.Store(rep.rec)
	}
	before := sess.Info()
	var alloc AllocMeter
	alloc.Start()
	phaseStart := time.Now()
	ops := runLoad(ctx, callers, spec, cfg.seconds, cfg.seed)
	phase := time.Since(phaseStart)
	alloc.Stop(len(ops))
	tr.rec.Store(nil)
	for _, o := range ops {
		rep.tally.Add(o.out)
	}
	repairs := latencies(ops, "read")
	after := sess.Info()

	loadMetrics(rep, ops, phase, h.pool, sch, letterKappa)
	rep.note("repair_s (ms) %v", Summarize(repairs))
	rep.note("setup_s %v", Summarize(setups))
	if cfg.traced {
		layerServe(rep, &before, &after, repairs, untracedRepair)
		probeUpload(rep.layer, h.upload)
	} else {
		rep.e2e["setup_s"] = Median(setups)
		rep.e2e["repair_s"] = Median(repairs) / 1e3
		rep.e2e["alloc_per_op_kib"] = alloc.KiBPerOp()
		rep.e2e["peak_rss_mib"] = peakRSSMiB()
	}
	rep.check("the session's final split equals core.Detect over the mirrored rows", checkMirror(&after, m))
	return rep, nil
}

// loopbackClient is the HTTP client the benchmark's callers share: one
// idle connection kept per caller.
func loopbackClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
}

// setupSessions uploads the CSV setupRounds times, deleting each session
// before the next upload, and keeps the last. It returns the kept id and
// the upload times.
func setupSessions(ctx context.Context, c *caller, csv []byte) (string, []float64, error) {
	var times []float64
	id := ""
	for i := 0; i < setupRounds; i++ {
		if id != "" {
			old := id
			if out := c.call(func(cl *client.Client) error { return cl.Delete(ctx, old) }); out.Err != nil {
				return "", nil, fmt.Errorf("deleting a set-up session: %w", out.Err)
			}
		}
		settleHeap()
		var d time.Duration
		var err error
		id, d, err = upload(ctx, c, csv, letterCons, letterKappa)
		if err != nil {
			return "", nil, err
		}
		times = append(times, d.Seconds())
	}
	return id, times, nil
}

// jitter returns a copy of t with every numeric attribute moved by at most
// 0.05, so the insert lands next to its clean template.
func jitter(sch *data.Schema, t data.Tuple, rng *rand.Rand) data.Tuple {
	out := t.Clone()
	for a := range out {
		if sch.Attrs[a].Kind == data.Numeric {
			out[a].Num += (rng.Float64() - 0.5) * 0.1
		}
	}
	return out
}

// layerServe fills the serve.* and core.* per-layer metrics of a served
// workload from the traced spans and the session's counters.
func layerServe(rep *report, before, after *serve.SessionInfo, repairs []float64, untracedRepair float64) {
	L := rep.layer
	spans := rep.rec.Spans()
	handler := func(name string) []float64 {
		d := Durations(spans, name)
		for i := range d {
			d[i] /= 1e6
		}
		return d
	}
	repairH := handler("serve.handler.repair")
	L["serve.handler_repair_p50_ms"] = Median(repairH)
	if v, ok := TailPercentile(repairH, 0.99); ok {
		L["serve.handler_repair_p99_ms"] = v
	}
	if w := handler("serve.handler.write"); len(w) > 0 {
		L["serve.handler_write_p50_ms"] = Median(w)
	}
	L["serve.transport_p50_ms"] = L["client.read_p50_ms"] - L["serve.handler_repair_p50_ms"]
	hq, hb, hs, hr := after.Hists.QueueWait, after.Hists.BatchSize, after.Hists.Save, after.Hists.Redetect
	L["serve.queue_wait_p50_ms"] = hq.Quantile(0.5) / 1e6
	L["serve.batch_size_mean"] = hb.Mean()
	L["serve.save_p50_ms"] = hs.Quantile(0.5) / 1e6
	L["core.save_p50_us"] = hs.Quantile(0.5) / 1e3
	if Supports(int(hs.Count), 0.99) {
		L["core.save_p99_us"] = hs.Quantile(0.99) / 1e3
	}
	L["core.save_s"] = float64(hs.Sum-before.Hists.Save.Sum) / 1e9
	L["serve.redetect_touched_per_write"] = hr.Mean()
	L["serve.delta_merges"] = float64(after.DeltaMerges)
	searchLayers(L, statsDelta(after.Stats, before.Stats))
	L["core.detect_s"] = after.Timings.Detect.Seconds()
	L["core.detect_us_per_tuple"] = after.Timings.Detect.Seconds() * 1e6 / float64(max(1, after.Tuples))
	L["core.saver_index_build_s"] = after.Timings.IndexBuild.Seconds()
	L["core.eta_radius_s"] = after.Timings.EtaRadius.Seconds()
	L["trace.unattributed_frac"] = Budget(spans, "client.request").Unattributed
	if len(repairs) > 0 && untracedRepair > 0 {
		L["trace.overhead_frac"] = Median(repairs)/untracedRepair - 1
	}
	rep.note("queue_wait p50/p99 %.3f/%.3f ms over %d, batch size mean %.2f, save p50 %.3f ms over %d",
		hq.Quantile(0.5)/1e6, hq.Quantile(0.99)/1e6, hq.Count, hb.Mean(), hs.Quantile(0.5)/1e6, hs.Count)
}

// probeUpload times neighbors.Build over the uploaded rows (median of
// setupRounds builds) and the index probes against the last build.
func probeUpload(L map[string]float64, rel *data.Relation) {
	var builds []float64
	var idx neighbors.Index
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		idx = neighbors.Build(rel, letterCons.Eps)
		builds = append(builds, time.Since(t0).Seconds())
	}
	L["neighbors.build_s"] = Median(builds)
	probeIndex(L, idx, rel, batchSpec{cons: letterCons})
}

// checkMirror compares the session's final split with exact detection
// over the benchmark's own copy of the final rows.
func checkMirror(s *serve.SessionInfo, m *mirror) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rel := data.NewRelation(m.sch)
	for _, t := range m.rows {
		rel.Append(t)
	}
	det, err := core.Detect(rel, letterCons, nil)
	if err != nil {
		return fmt.Errorf("detecting over the mirror: %w", err)
	}
	if s.Tuples != rel.N() || s.Inliers != len(det.Inliers) || s.Outliers != len(det.Outliers) {
		return fmt.Errorf("session has %d tuples = %d inliers + %d outliers, the mirror %d = %d + %d",
			s.Tuples, s.Inliers, s.Outliers, rel.N(), len(det.Inliers), len(det.Outliers))
	}
	return nil
}

// statsDelta is the search-counter growth from before to after.
func statsDelta(after, before obs.SearchStats) obs.SearchStats {
	return obs.SearchStats{
		Nodes:            after.Nodes - before.Nodes,
		LBPrunes:         after.LBPrunes - before.LBPrunes,
		CandPrunes:       after.CandPrunes - before.CandPrunes,
		MemoHits:         after.MemoHits - before.MemoHits,
		UBWitnesses:      after.UBWitnesses - before.UBWitnesses,
		KappaPrefiltered: after.KappaPrefiltered - before.KappaPrefiltered,
		Candidates:       after.Candidates - before.Candidates,
		KNNQueries:       after.KNNQueries - before.KNNQueries,
		RangeQueries:     after.RangeQueries - before.RangeQueries,
		DistEvals:        after.DistEvals - before.DistEvals,
		GridFallbacks:    after.GridFallbacks - before.GridFallbacks,
		DistEarlyExits:   after.DistEarlyExits - before.DistEarlyExits,
	}
}
