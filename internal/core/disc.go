package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/par"
)

// SaveError records one outlier that was not processed: a recovered panic
// inside its save, or the batch budget/context expiring before its turn.
type SaveError struct {
	// Index is the outlier's tuple position in the input relation.
	Index int
	// Err is what happened (wrapped panic, or the context's error).
	Err error
}

// Error implements error.
func (e SaveError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e SaveError) Unwrap() error { return e.Err }

// SaveResult is the outcome of saving every outlier of a relation.
type SaveResult struct {
	// Repaired is a copy of the input relation with every saved outlier
	// replaced by its adjustment; natural/unsaved outliers keep their
	// original values (§1.2).
	Repaired *data.Relation
	// Detection is the inlier/outlier split the save ran against.
	Detection *Detection
	// Adjustments has one entry per outlier (Index filled with the tuple's
	// position in the input relation), in Detection.Outliers order. An
	// outlier listed in Errs has a zero adjustment (not Saved, not
	// Natural).
	Adjustments []Adjustment
	// Saved and Natural count the repaired and flagged outliers.
	Saved, Natural int
	// Exhausted counts the adjustments whose per-outlier search was cut
	// short by a budget (see Adjustment.Exhausted); they are included in
	// Saved/Natural when they produced an answer.
	Exhausted int
	// Errs lists the outliers that were not processed at all: one entry
	// per recovered panic and per outlier skipped after the batch budget
	// or context expired, sorted by outlier index. Nil when every outlier
	// was processed.
	Errs []SaveError
	// Stats merges the per-outlier search counters with the detection
	// pass and the η-radius precompute: the whole pipeline's nodes,
	// prunes, memo hits and index traffic in one place.
	Stats obs.SearchStats
	// Timings breaks the run into pipeline phases (validate, detect,
	// index build, η-radius precompute, save fan-out).
	Timings obs.PhaseTimings
}

// Failed reports the number of outliers that were not processed (len(Errs)).
func (r *SaveResult) Failed() int { return len(r.Errs) }

// saveAllHook, when non-nil, runs just before each outlier's save, with the
// outlier's position k in Detection.Outliers. It exists so tests can inject
// panics and mid-batch cancellations at deterministic points.
var saveAllHook func(k int)

// SaveAll runs the full DISC pipeline on a relation: detect the violations
// of the distance constraints, split the dataset into inliers r and
// outliers s, and save each outlier against r one by one (§2.2), in
// parallel across outliers. The input relation is not modified.
func SaveAll(rel *data.Relation, cons Constraints, opts Options) (*SaveResult, error) {
	return SaveAllContext(context.Background(), rel, cons, opts)
}

// SaveAllContext is SaveAll under budgets: ctx (plus Options.BatchTimeout,
// when set) bounds the whole batch, Options.MaxNodes/Deadline bound each
// outlier's search. The pipeline degrades instead of aborting — when the
// batch budget expires mid-run, outliers already saved keep their
// adjustments, the in-flight ones return best-so-far answers flagged
// Exhausted, and the never-started ones are recorded in SaveResult.Errs. A
// panic inside one outlier's save is recovered into its Errs entry and the
// remaining outliers are still saved. An error is returned only when
// nothing was produced at all: invalid inputs, or cancellation before the
// detection pass completed.
func SaveAllContext(ctx context.Context, rel *data.Relation, cons Constraints, opts Options) (*SaveResult, error) {
	totalStart := time.Now()
	log := obs.Logger(opts.Logger)
	if opts.BatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.BatchTimeout)
		defer cancel()
	}
	// Reject NaN/±Inf up front: a non-finite outlier would otherwise sail
	// through detection (every NaN comparison is false) and poison the
	// distance aggregates of its own save.
	if err := data.ValidateValues(rel); err != nil {
		return nil, err
	}
	validate := time.Since(totalStart)
	// A supplied Options.Index indexes the input relation, so the detection
	// pass reuses it instead of building its own — the amortization a
	// session-caching caller (or a CLI running detection twice) relies on.
	det, err := DetectContext(ctx, rel, cons, opts.Index)
	if err != nil {
		return nil, err
	}
	log.Info("disc: detection done", "tuples", rel.N(), "inliers", len(det.Inliers),
		"outliers", len(det.Outliers), "duration", det.Elapsed)
	res := &SaveResult{
		Repaired:    rel.Clone(),
		Detection:   det,
		Adjustments: make([]Adjustment, len(det.Outliers)),
	}
	res.Stats.Add(&det.Stats)
	res.Timings.Validate = validate
	res.Timings.Detect = det.Elapsed
	res.Timings.DetectIndexBuild = det.IndexBuild
	reporter := obs.NewReporter(opts.Progress, opts.ProgressInterval)
	// finish seals the result on every return path: total timing, the
	// batch-level log line, and the final (never rate-limited) progress
	// snapshot.
	finish := func() *SaveResult {
		res.Timings.Total = time.Since(totalStart)
		if res.Stats.GridFallbacks > 0 {
			log.Debug("disc: grid queries degraded to brute scans",
				"fallbacks", res.Stats.GridFallbacks)
		}
		log.Info("disc: batch done", "outliers", len(det.Outliers),
			"saved", res.Saved, "natural", res.Natural, "exhausted", res.Exhausted,
			"failed", res.Failed(), "nodes", res.Stats.Nodes,
			"duration", res.Timings.Total)
		reporter.Final(obs.Progress{
			Done:  len(det.Outliers) - res.Failed(),
			Total: len(det.Outliers),
			Saved: res.Saved, Natural: res.Natural,
			Exhausted: res.Exhausted, Failed: res.Failed(),
		})
		return res
	}
	if len(det.Outliers) == 0 {
		return finish(), nil
	}
	if len(det.Inliers) == 0 {
		// Nothing to save against: every outlier stays unchanged.
		for k, oi := range det.Outliers {
			res.Adjustments[k] = Adjustment{Index: oi, Natural: true}
			res.Natural++
		}
		return finish(), nil
	}

	r := rel.Subset(det.Inliers)
	saverOpts := opts
	saverOpts.Index = nil // opts.Index would index rel, not the inlier subset
	saver, err := NewSaverContext(ctx, r, cons, saverOpts)
	if err != nil {
		return nil, err
	}
	setupStats, indexBuild, etaRadius := saver.SetupStats()
	res.Stats.Add(&setupStats)
	res.Timings.IndexBuild = indexBuild
	res.Timings.EtaRadius = etaRadius
	log.Info("disc: saver ready", "index", fmt.Sprintf("%T", saver.idx),
		"index_build", indexBuild, "eta_radius", etaRadius)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(det.Outliers) {
		workers = len(det.Outliers)
	}
	// One search arena per worker: the slabs are reused across every
	// outlier a worker saves, and worker ids are stable for the whole
	// fan-out, so the hot path shares no mutable state and needs no pool.
	// Each arena also carries that worker's counter shard.
	arenas := make([]*saveArena, workers)
	for w := range arenas {
		arenas[w] = new(saveArena)
	}
	// Progress counters are per-outlier (not per-node) events, so atomics
	// here cost nothing measurable against an NP-hard save.
	var done, savedN, naturalN, exhaustedN atomic.Int64
	total := len(det.Outliers)
	saveStart := time.Now()
	errs := par.ForEachWorker(ctx, total, workers, func(w, k int) error {
		if saveAllHook != nil {
			saveAllHook(k)
		}
		oi := det.Outliers[k]
		adj := saver.save(ctx, rel.Tuples[oi], arenas[w])
		adj.Index = oi
		res.Adjustments[k] = adj
		if adj.Exhausted {
			exhaustedN.Add(1)
			log.Debug("disc: per-outlier budget tripped", "outlier", oi,
				"nodes", adj.Nodes, "answer_kept", adj.Saved())
		}
		switch {
		case adj.Saved():
			savedN.Add(1)
		case adj.Natural:
			naturalN.Add(1)
		}
		reporter.Report(obs.Progress{
			Done: int(done.Add(1)), Total: total,
			Saved: int(savedN.Load()), Natural: int(naturalN.Load()),
			Exhausted: int(exhaustedN.Load()),
		})
		return nil
	})
	res.Timings.Save = time.Since(saveStart)
	for _, ie := range errs {
		oi := det.Outliers[ie.Index]
		res.Adjustments[ie.Index] = Adjustment{Index: oi, Cost: math.Inf(1)}
		res.Errs = append(res.Errs, SaveError{Index: oi, Err: ie.Err})
		log.Warn("disc: outlier not processed", "outlier", oi, "err", ie.Err)
	}
	failed := make(map[int]bool, len(errs))
	for _, ie := range errs {
		failed[ie.Index] = true
	}
	for k := range res.Adjustments {
		adj := &res.Adjustments[k]
		res.Stats.Add(&adj.Stats)
		if adj.Exhausted {
			res.Exhausted++
		}
		switch {
		case failed[k]:
			// Not processed: neither saved nor natural.
		case adj.Saved():
			res.Repaired.Tuples[adj.Index] = adj.Tuple.Clone()
			res.Saved++
		case adj.Natural:
			res.Natural++
		}
	}
	return finish(), nil
}
