package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	disc "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
)

// batchSpec is an in-process CSV → CSV workload: the path disccli runs
// locally on every invocation.
type batchSpec struct {
	gen   func(seed int64) (*data.Relation, error)
	cons  core.Constraints
	kappa int
}

// setupRounds is how many times a served run uploads its dataset; its
// setup_s is their median.
const setupRounds = 3

// minPasses is the fewest passes an untraced batch run makes, whatever
// --seconds says, so the fastest pass is one of at least three.
const minPasses = 3

// overheadPairs is how many traced and untraced pipeline passes a traced
// batch run alternates; trace.overhead_frac compares their medians.
const overheadPairs = 3

// probeSample is how many seeded tuples the neighbor-index probes time.
const probeSample = 256

func runLetterRepair(ctx context.Context, cfg config) (*report, error) {
	return runBatch(ctx, cfg, batchSpec{
		gen: func(seed int64) (*data.Relation, error) {
			ds, err := data.Table1("Letter", 1, seed)
			if err != nil {
				return nil, err
			}
			return ds.Rel, nil
		},
		cons:  core.Constraints{Eps: 3, Eta: 18},
		kappa: 2,
	})
}

func runLatticeNeighbors(ctx context.Context, cfg config) (*report, error) {
	return runBatch(ctx, cfg, batchSpec{
		gen: func(seed int64) (*data.Relation, error) {
			return data.GenLattice(data.LatticeSpec{Side: 6, PerCell: 64, Dims: 3, Noise: 64, Seed: seed})
		},
		cons:  core.Constraints{Eps: 1, Eta: 20},
		kappa: 2,
	})
}

// batchPass is one CSV → CSV pipeline run and what the checks need of it.
type batchPass struct {
	in      *data.Relation // the parsed input
	out     []byte         // the repaired CSV
	det     *core.Detection
	adjs    []core.Adjustment
	errs    int // outliers not processed
	stats   obs.SearchStats
	elapsed time.Duration
	// setup is the session-build share of the pass as SaveResult.Timings
	// reports it: validation, detection with its index build, and the
	// Saver's inlier index and η-radius precompute.
	setup time.Duration
}

func runBatch(ctx context.Context, cfg config, sp batchSpec) (*report, error) {
	rep := newReport()
	rel, err := sp.gen(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, rel); err != nil {
		return nil, fmt.Errorf("encoding input: %w", err)
	}
	csv := buf.Bytes()

	// Only the first pass's output and the last pass are kept, so a pass
	// does not find its predecessors' data still resident.
	var first []byte
	var last *batchPass
	var times, setups, rss []float64
	var alloc AllocMeter
	sampler, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	defer sampler.close()
	phase := time.Now()
	for len(times) < minPasses || time.Since(phase) < cfg.seconds {
		last = nil
		settleHeap()
		sampler.take()
		alloc.Start()
		p, err := disccliPass(ctx, csv, sp)
		if err != nil {
			return nil, err
		}
		alloc.Stop(1)
		rss = append(rss, sampler.take())
		times = append(times, p.elapsed.Seconds())
		setups = append(setups, p.setup.Seconds())
		rep.tally.Attempted += len(p.adjs)
		rep.tally.Failed += p.errs
		if first == nil {
			first = p.out
		} else {
			rep.check(fmt.Sprintf("pass %d writes the same CSV as pass 1", len(times)), sameBytes(p.out, first))
		}
		last = p
		if cfg.traced {
			break // one disccli pass to compare the traced pipeline's output with
		}
	}
	if rep.tally.Attempted == 0 {
		rep.tally.Attempted = 1 // no outliers: the pass itself is the operation
	}

	if cfg.traced {
		tp, idx, err := tracedRun(ctx, rep, csv, sp, last)
		if err != nil {
			return nil, err
		}
		last = tp
		probeIndex(rep.layer, idx, tp.in, sp)
	} else {
		// Every pass does the same work on the same input, and the host
		// only ever adds time to a pass, so the fastest pass is the
		// estimate least disturbed by it (see README.md, Steadiness).
		rep.e2e["setup_s"] = slices.Min(setups)
		rep.e2e["repair_s"] = slices.Min(times)
		rep.e2e["alloc_per_op_kib"] = alloc.KiBPerOp()
		rep.e2e["peak_rss_mib"] = Median(rss)
		rep.note("repair_s %v", Summarize(times))
		rep.note("setup_s %v", Summarize(setups))
		rep.note("peak_rss_mib per pass %v", Summarize(rss))
	}
	quality(rep, last)
	checkBatch(rep, last, sp, cfg.seed)
	return rep, nil
}

// tracedRun alternates untraced and traced runs of the layer-by-layer
// pipeline, so trace.overhead_frac compares the same code with and
// without its spans. The last traced pass supplies the per-layer metrics
// and the spans written at the end.
func tracedRun(ctx context.Context, rep *report, csv []byte, sp batchSpec, disccli *batchPass) (*batchPass, neighbors.Index, error) {
	var plainTimes, tracedTimes []float64
	var tp *batchPass
	var idx neighbors.Index
	for k := 0; k < overheadPairs; k++ {
		tp, idx = nil, nil
		settleHeap()
		plain, _, err := tracedPass(ctx, csv, sp, nil)
		if err != nil {
			return nil, nil, err
		}
		plainTimes = append(plainTimes, plain.elapsed.Seconds())
		if k == 0 {
			rep.check("the layer-by-layer pipeline writes the same CSV as the disccli path", sameBytes(plain.out, disccli.out))
		}
		plain = nil
		settleHeap()
		rep.rec = NewRecorder()
		tp, idx, err = tracedPass(ctx, csv, sp, rep.rec)
		if err != nil {
			return nil, nil, err
		}
		tracedTimes = append(tracedTimes, tp.elapsed.Seconds())
		if k == 0 {
			rep.check("the traced pipeline writes the same CSV as the disccli path", sameBytes(tp.out, disccli.out))
		}
	}
	layerBatch(rep, tp)
	rep.layer["trace.overhead_frac"] = Median(tracedTimes)/Median(plainTimes) - 1
	rep.note("pipeline pass traced %v", Summarize(tracedTimes))
	rep.note("pipeline pass untraced %v", Summarize(plainTimes))
	rep.note("disccli pass %.3f s", disccli.elapsed.Seconds())
	return tp, idx, nil
}

// disccliPass runs the pipeline exactly as disccli's local path does:
// ReadCSV → ValidateValues → SaveContext → WriteCSV.
func disccliPass(ctx context.Context, csv []byte, sp batchSpec) (*batchPass, error) {
	start := time.Now()
	rel, err := disc.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, fmt.Errorf("reading CSV: %w", err)
	}
	if err := disc.ValidateValues(rel); err != nil {
		return nil, fmt.Errorf("validating input: %w", err)
	}
	res, err := disc.SaveContext(ctx, rel, sp.cons, disc.Options{Kappa: sp.kappa})
	if err != nil {
		return nil, fmt.Errorf("saving: %w", err)
	}
	var out bytes.Buffer
	if err := disc.WriteCSV(&out, res.Repaired); err != nil {
		return nil, fmt.Errorf("writing CSV: %w", err)
	}
	t := res.Timings
	return &batchPass{in: rel, out: out.Bytes(), det: res.Detection, adjs: res.Adjustments,
		errs: res.Failed(), stats: res.Stats, elapsed: time.Since(start),
		setup: t.Validate + t.Detect + t.IndexBuild + t.EtaRadius}, nil
}

// tracedPass runs the same pipeline by calling each layer's public
// functions in order, with a span around each call, so the layers' self
// times add up to the pass. A nil recorder runs the same calls untraced.
func tracedPass(ctx context.Context, csv []byte, sp batchSpec, rec *Recorder) (*batchPass, neighbors.Index, error) {
	const req = "pass"
	start := time.Now()
	root := rec.Begin("pipeline", 0, req)

	s := rec.Begin("data.read_csv", root, req)
	rel, err := data.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, nil, fmt.Errorf("reading CSV: %w", err)
	}
	if err := data.ValidateValues(rel); err != nil {
		return nil, nil, fmt.Errorf("validating input: %w", err)
	}
	rec.End(s)

	s = rec.Begin("neighbors.build", root, req)
	idx := neighbors.Build(rel, sp.cons.Eps)
	rec.End(s)

	s = rec.Begin("core.detect", root, req)
	det, err := core.DetectContext(ctx, rel, sp.cons, idx)
	if err != nil {
		return nil, nil, fmt.Errorf("detecting: %w", err)
	}
	rec.End(s)

	p := &batchPass{in: rel, det: det, adjs: make([]core.Adjustment, len(det.Outliers))}
	p.stats.Add(&det.Stats)
	var saver *core.Saver
	if len(det.Outliers) > 0 && len(det.Inliers) > 0 {
		s = rec.Begin("core.saver", root, req)
		sBegin := time.Now()
		saver, err = core.NewSaverContext(ctx, rel.Subset(det.Inliers), sp.cons, core.Options{Kappa: sp.kappa})
		if err != nil {
			return nil, nil, fmt.Errorf("building saver: %w", err)
		}
		rec.End(s)
		st, ib, er := saver.SetupStats()
		p.stats.Add(&st)
		// The saver builds its index, then precomputes the η-radii; the
		// two child spans take those measured durations in that order.
		rec.Add("core.saver_index_build", s, req, sBegin, sBegin.Add(ib))
		rec.Add("core.eta_radius", s, req, sBegin.Add(ib), sBegin.Add(ib+er))

		s = rec.Begin("core.save", root, req)
		saveAll(ctx, saver, rel, det.Outliers, p.adjs, rec, s)
		rec.End(s)
	} else {
		for k, oi := range det.Outliers {
			p.adjs[k] = core.Adjustment{Index: oi, Natural: true, Cost: math.Inf(1)}
		}
	}
	for k := range p.adjs {
		p.stats.Add(&p.adjs[k].Stats)
	}

	s = rec.Begin("core.apply", root, req)
	repaired := rel.Clone()
	for _, adj := range p.adjs {
		if adj.Saved() {
			repaired.Tuples[adj.Index] = adj.Tuple.Clone()
		}
	}
	rec.End(s)

	s = rec.Begin("data.write_csv", root, req)
	var out bytes.Buffer
	if err := data.WriteCSV(&out, repaired); err != nil {
		return nil, nil, fmt.Errorf("writing CSV: %w", err)
	}
	rec.End(s)
	rec.End(root)
	p.out = out.Bytes()
	p.elapsed = time.Since(start)
	return p, idx, nil
}

// saveAll saves every outlier on GOMAXPROCS goroutines, one
// Saver.SaveContext call and one span per outlier.
func saveAll(ctx context.Context, saver *core.Saver, rel *data.Relation, outliers []int, adjs []core.Adjustment, rec *Recorder, parent int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(outliers) {
					return
				}
				oi := outliers[k]
				t0 := time.Now()
				adj := saver.SaveContext(ctx, rel.Tuples[oi])
				rec.Add("core.save_one", parent, "pass", t0, time.Now())
				adj.Index = oi
				adjs[k] = adj
			}
		}()
	}
	wg.Wait()
}

// layerBatch fills the per-layer metrics of a batch workload from the
// traced pass and its spans.
func layerBatch(rep *report, tp *batchPass) {
	spans := rep.rec.Spans()
	lb := Budget(spans, "pipeline")
	sec := func(name string) float64 { return float64(lb.Self[name]) / 1e9 }
	total := func(name string) float64 {
		sum := 0.0
		for _, d := range Durations(spans, name) {
			sum += d
		}
		return sum / 1e9
	}
	L := rep.layer
	L["data.read_csv_s"] = total("data.read_csv")
	L["data.write_csv_s"] = total("data.write_csv")
	L["neighbors.build_s"] = total("neighbors.build")
	L["core.detect_s"] = total("core.detect")
	L["core.detect_us_per_tuple"] = total("core.detect") * 1e6 / float64(tp.in.N())
	L["core.saver_index_build_s"] = total("core.saver_index_build")
	L["core.eta_radius_s"] = total("core.eta_radius")
	L["core.save_s"] = total("core.save")
	saves := Durations(spans, "core.save_one")
	L["core.save_p50_us"] = Median(saves) / 1e3
	if v, ok := TailPercentile(saves, 0.99); ok {
		L["core.save_p99_us"] = v / 1e3
	}
	rep.note("core.save_one samples=%d (p99 reported only with ≥1000)", len(saves))
	searchLayers(L, tp.stats)
	L["trace.unattributed_frac"] = lb.Unattributed
	for _, name := range sortedKeys(lb.Self) {
		rep.note("self %-26s %.4f s", name, sec(name))
	}
}

// searchLayers maps merged search counters onto the neighbors.* and core.*
// per-layer metrics.
func searchLayers(L map[string]float64, st obs.SearchStats) {
	L["neighbors.range_queries"] = float64(st.RangeQueries)
	L["neighbors.knn_queries"] = float64(st.KNNQueries)
	L["neighbors.dist_evals"] = float64(st.DistEvals)
	L["neighbors.dist_early_exits"] = float64(st.DistEarlyExits)
	L["neighbors.grid_fallbacks"] = float64(st.GridFallbacks)
	if q := st.RangeQueries + st.KNNQueries; q > 0 {
		L["neighbors.evals_per_query"] = float64(st.DistEvals) / float64(q)
	}
	L["core.candidates"] = float64(st.Candidates)
	L["core.kappa_prefiltered"] = float64(st.KappaPrefiltered)
	if st.Candidates > 0 {
		L["core.candidate_useful_frac"] = 1 - float64(st.KappaPrefiltered)/float64(st.Candidates)
	}
	L["core.nodes"] = float64(st.Nodes)
	L["core.lb_prunes"] = float64(st.LBPrunes)
	L["core.cand_prunes"] = float64(st.CandPrunes)
	L["core.memo_hits"] = float64(st.MemoHits)
	L["core.ub_witnesses"] = float64(st.UBWitnesses)
}

// probeIndex times CountWithin(ε) and KNN(η) on a fixed seeded sample of
// the relation's own tuples against a built index.
func probeIndex(L map[string]float64, idx neighbors.Index, rel *data.Relation, sp batchSpec) {
	rng := rand.New(rand.NewSource(int64(rel.N())))
	var cw, knn []float64
	for i := 0; i < probeSample; i++ {
		j := rng.Intn(rel.N())
		t0 := time.Now()
		idx.CountWithin(rel.Tuples[j], sp.cons.Eps, j, 0)
		t1 := time.Now()
		idx.KNN(rel.Tuples[j], sp.cons.Eta, j)
		t2 := time.Now()
		cw = append(cw, float64(t1.Sub(t0).Nanoseconds())/1e3)
		knn = append(knn, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	L["neighbors.count_within_us"] = Median(cw)
	L["neighbors.knn_us"] = Median(knn)
}

// quality records saved_frac, mean_cost and error_frac of a pass as
// notes and quality.* layer metrics.
func quality(rep *report, p *batchPass) {
	saved, cost := 0, 0.0
	for _, a := range p.adjs {
		if a.Saved() {
			saved++
			cost += a.Cost
		}
	}
	n := len(p.adjs)
	frac, mean := 0.0, 0.0
	if n > 0 {
		frac = float64(saved) / float64(n)
	}
	if saved > 0 {
		mean = cost / float64(saved)
	}
	rep.layer["quality.outliers"] = float64(n)
	rep.layer["quality.saved_frac"] = frac
	rep.layer["quality.mean_cost"] = mean
	rep.layer["quality.error_frac"] = rep.tally.Frac()
	rep.note("outliers=%d saved=%d saved_frac=%.4f mean_cost=%.4f error_frac=%.4f",
		n, saved, frac, mean, rep.tally.Frac())
}

func sameBytes(a, b []byte) error {
	if !bytes.Equal(a, b) {
		return fmt.Errorf("outputs differ (%d vs %d bytes)", len(a), len(b))
	}
	return nil
}
