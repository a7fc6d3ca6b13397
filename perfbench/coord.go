package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/coord"
)

// replaySample is how many coordinator answers the replay check sends
// again, directly to one worker.
const replaySample = 8

func runCoordRepair(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	h, err := letterHeldOut(cfg.seed)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	var urls []string
	var workers []*serve.Server
	for w := 0; w < 2; w++ {
		srv := serve.New(serve.Config{})
		l, err := listen(tr.wrapHandler("serve.handler", srv.Handler()))
		if err != nil {
			return nil, err
		}
		defer func() {
			l.stop(ctx)
			_ = srv.Shutdown(ctx) // memory-only sessions: nothing to persist
		}()
		urls = append(urls, l.url)
		workers = append(workers, srv)
	}
	co, err := coord.New(coord.Config{
		Workers: urls, Replicas: 2,
		HTTPClient: &http.Client{Transport: &tracingTransport{t: tr, next: &http.Transport{MaxIdleConnsPerHost: 8}}},
	})
	if err != nil {
		return nil, fmt.Errorf("starting the coordinator: %w", err)
	}
	cl, err := listen(tr.wrapHandler("coord.handler", co.Handler()))
	if err != nil {
		return nil, err
	}
	defer func() {
		cl.stop(ctx)
		_ = co.Shutdown(ctx) // nothing in flight once the clients returned
	}()
	hc := loopbackClient()
	defer hc.CloseIdleConnections()
	callers := []*caller{newCaller(tr, cl.url, hc), newCaller(tr, cl.url, hc)}

	id, setups, err := setupSessions(ctx, callers[0], h.csv)
	if err != nil {
		return nil, err
	}
	// With replicas=2 over 2 workers each worker owns the one session the
	// coordinator placed; the earlier set-up sessions were deleted on both.
	var owners []*serve.Session
	for k, w := range workers {
		list := w.Registry().List()
		if len(list) != 1 {
			return nil, fmt.Errorf("worker %d holds %d sessions, want 1", k, len(list))
		}
		owners = append(owners, list[0])
	}
	spec := loadSpec{perRead: 16, pool: h.poolJSON(), session: id}

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
	before := co.Stats()
	var ownersBefore []serve.SessionInfo
	for _, s := range owners {
		ownersBefore = append(ownersBefore, s.Info())
	}
	var alloc AllocMeter
	alloc.Start()
	phaseStart := time.Now()
	ops := runLoad(ctx, callers, spec, cfg.seconds, cfg.seed)
	phase := time.Since(phaseStart)
	alloc.Stop(len(ops))
	tr.rec.Store(nil)
	after := co.Stats()
	for _, o := range ops {
		rep.tally.Add(o.out)
	}
	repairs := latencies(ops, "read")

	loadMetrics(rep, ops, phase, h.pool, h.upload.Schema, letterKappa)
	rep.note("repair_s (ms) %v", Summarize(repairs))
	rep.note("setup_s %v", Summarize(setups))
	if cfg.traced {
		// The owners' counters and save time sum; the primary's
		// percentiles and set-up timings stand for both replicas.
		var stats obs.SearchStats
		var saveNS int64
		var primary serve.SessionInfo
		for k, s := range owners {
			info := s.Info()
			d := statsDelta(info.Stats, ownersBefore[k].Stats)
			stats.Add(&d)
			saveNS += info.Hists.Save.Sum - ownersBefore[k].Hists.Save.Sum
			if k == 0 {
				primary = info
			}
		}
		layerServe(rep, &ownersBefore[0], &primary, repairs, untracedRepair)
		searchLayers(rep.layer, stats)
		rep.layer["core.save_s"] = float64(saveNS) / 1e9
		layerCoord(rep, before, after)
		probeUpload(rep.layer, h.upload)
	} else {
		rep.e2e["setup_s"] = Median(setups)
		rep.e2e["repair_s"] = Median(repairs) / 1e3
		rep.e2e["alloc_per_op_kib"] = alloc.KiBPerOp()
		rep.e2e["peak_rss_mib"] = peakRSSMiB()
	}
	lost := 0
	for _, o := range ops {
		if o.out.Partial {
			lost++
		}
	}
	var perr error
	if n := after.PartialResponses - before.PartialResponses; n > 0 || lost > 0 {
		perr = fmt.Errorf("the coordinator counted %d partial answers; %d answers lost tuples", n, lost)
	}
	rep.check("no coordinator answer is partial", perr)
	direct := newCaller(tr, urls[0], hc)
	rep.check("answers replayed directly to one worker are identical",
		checkReplay(ctx, direct, owners[0].Info().ID, ops, spec.pool, cfg.seed))
	return rep, nil
}

// checkReplay sends a seeded sample of the phase's successful repairs
// again, straight to one worker, and requires the same adjustments.
func checkReplay(ctx context.Context, c *caller, id string, ops []op, pool [][]any, seed int64) error {
	var ok []op
	for _, o := range ops {
		if o.kind == "read" && !o.out.Failed() {
			ok = append(ok, o)
		}
	}
	if len(ok) == 0 {
		return fmt.Errorf("no successful repair to replay")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < replaySample; i++ {
		o := ok[rng.Intn(len(ok))]
		tuples := make([][]any, len(o.pool))
		for j, p := range o.pool {
			tuples[j] = pool[p]
		}
		rr, out := sendRepair(ctx, c, id, tuples)
		if out.Failed() {
			return fmt.Errorf("replay failed: %v (status %d)", out.Err, out.Status)
		}
		for j := range tuples {
			if err := sameAdjustment(o.resp.Adjustments[j], rr.Adjustments[j]); err != nil {
				return fmt.Errorf("pool tuple %d: %w", o.pool[j], err)
			}
		}
	}
	return nil
}

func sameAdjustment(a, b client.Adjustment) error {
	if a.Saved != b.Saved || a.Natural != b.Natural || a.Exhausted != b.Exhausted || a.Cost != b.Cost {
		return fmt.Errorf("coordinator answered saved=%v natural=%v cost=%v, the worker saved=%v natural=%v cost=%v",
			a.Saved, a.Natural, a.Cost, b.Saved, b.Natural, b.Cost)
	}
	if len(a.Tuple) != len(b.Tuple) {
		return fmt.Errorf("repaired tuples differ in length")
	}
	for k := range a.Tuple {
		if a.Tuple[k] != b.Tuple[k] {
			return fmt.Errorf("repaired tuples differ at attribute %d", k)
		}
	}
	return nil
}

// layerCoord fills the coord.* per-layer metrics from the coordinator,
// worker-call and worker-handler spans and the coordinator's counters.
func layerCoord(rep *report, before, after obs.CoordSnapshot) {
	L := rep.layer
	spans := rep.rec.Spans()
	ms := func(name string) []float64 {
		d := Durations(spans, name)
		for i := range d {
			d[i] /= 1e6
		}
		return d
	}
	coordH, workerH := ms("coord.handler.repair"), ms("serve.handler.repair")
	L["coord.handler_p50_ms"] = Median(coordH)
	L["coord.worker_handler_p50_ms"] = Median(workerH)
	L["coord.hop_p50_ms"] = L["coord.handler_p50_ms"] - L["coord.worker_handler_p50_ms"]
	if n := after.Scatters - before.Scatters; n > 0 {
		L["coord.chunks_per_req"] = float64(after.ScatterChunks-before.ScatterChunks) / float64(n)
	}
	L["coord.failovers"] = float64(after.Failovers - before.Failovers)
	L["coord.chunk_failures"] = float64(after.ChunkFailures - before.ChunkFailures)
	L["serve.handler_repair_p50_ms"] = L["coord.worker_handler_p50_ms"]
	if v, ok := TailPercentile(workerH, 0.99); ok {
		L["serve.handler_repair_p99_ms"] = v
	}
	L["serve.transport_p50_ms"] = L["client.read_p50_ms"] - L["coord.handler_p50_ms"]
	lb := Budget(spans, "client.request")
	for _, name := range sortedKeys(lb.Self) {
		rep.note("self %-30s %.4f s", name, float64(lb.Self[name])/1e9)
	}
}
