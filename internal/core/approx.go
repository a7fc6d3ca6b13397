// Approximate detection: sensitivity-sampled neighbor counts with exact
// borderline refinement. The exact pass pays one index query per tuple —
// Ω(n · query) — even though the vast majority of tuples are unambiguous.
// This file classifies each tuple from an ε-probe against a small sampled
// sub-index instead: a two-sided confidence bound either certifies the
// tuple as a clear inlier or clear outlier from the sample alone, or drops
// it into the borderline band, which alone pays today's exact machinery.
// Total cost grows with the band, not with n.
//
// Soundness of the certificates, which the differential test pins:
//
//   - Clear inlier: a without-replacement sample can only undercount, and
//     the Wilson lower bound is conservative for the hypergeometric, so a
//     sample hit count whose lower bound scales to ≥ η implies the true
//     count is ≥ η with the configured confidence. The threshold xClear is
//     precomputed once, and the sampled probe uses it as its CountWithin
//     cap — the probe early-exits the moment certification is reached.
//   - Clear outlier: the grid cube-population bound (neighbors.CubeBound)
//     is a deterministic upper bound costing zero distance evaluations;
//     ub < η proves the tuple violates the constraints. The Wilson upper
//     bound supplies the same certificate statistically when the cube
//     bound is unavailable (non-grid index, wide radius).
//   - Everything else is the borderline band and gets the exact count,
//     capped at η (detection only needs the side of η, so the refinement
//     rides the CountWithin early exit).
//
// Every path stores the Detection.Counts contract, min(|D_ε(t)|, η): a
// clear inlier stores η, a clear outlier its exact count (one η-capped
// count on the full index — cheap, since outliers are the rare side and
// their balls are small), the band its capped count. A mutable session
// can therefore do exact ±1 arithmetic on an approximate detection.
//
// At η well below xClear — every realistic configuration, since xClear ≈
// z² + η·s/n — the inlier certificate cannot misfire even in the worst
// case, so with refinement enabled the detection split is bit-identical to
// DetectContext's for any seed.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
)

// DefaultApproxConfidence is the two-sided confidence of the sampled
// certificates when ApproxOptions.Confidence is zero.
const DefaultApproxConfidence = 0.999

// DefaultApproxMinN is the relation size below which approximate detection
// silently falls back to the exact pass: under a few thousand tuples the
// sample is the relation and the estimator overhead buys nothing.
const DefaultApproxMinN = 2048

// ApproxOptions configure the approximate detection path.
type ApproxOptions struct {
	// Confidence is the two-sided confidence level of the sampled
	// inlier/outlier certificates (0 < Confidence < 1). For
	// Options.ApproxDetect a zero Confidence leaves approximation off;
	// the explicit DetectApprox entry points default it to
	// DefaultApproxConfidence.
	Confidence float64
	// MinN is the relation size below which detection stays exact
	// (≤ 0 selects DefaultApproxMinN).
	MinN int
	// SampleRate overrides the sample size as a fraction of n (0 < rate
	// < 1). Zero selects the default policy: n/8 clamped to
	// [1024, 131072] — large enough that dense inliers certify from the
	// sample, small enough that the probe stays an order of magnitude
	// cheaper than the exact count.
	SampleRate float64
	// Seed drives the sample draw (0 means 1); fixed seed, fixed split.
	Seed int64
	// NoRefine accepts the point estimate (capped at η) for borderline
	// tuples instead of refining them exactly — detection becomes fully
	// sublinear but only statistically correct (the accuracy tests use
	// this).
	NoRefine bool
	// Off disables approximation even when Confidence is set; it exists
	// so a zero-value-is-off toggle can be threaded through config
	// layers that always populate Confidence.
	Off bool
}

// Enabled reports whether these options request the approximate path
// (the Options.ApproxDetect contract: Confidence set and not Off).
func (ap ApproxOptions) Enabled() bool { return ap.Confidence > 0 && !ap.Off }

// withDefaults resolves the zero values of the explicit entry points.
func (ap ApproxOptions) withDefaults() ApproxOptions {
	if ap.Confidence <= 0 || ap.Confidence >= 1 {
		ap.Confidence = DefaultApproxConfidence
	}
	if ap.MinN <= 0 {
		ap.MinN = DefaultApproxMinN
	}
	if ap.Seed == 0 {
		ap.Seed = 1
	}
	return ap
}

// sampleSize resolves the sample size for a relation of n tuples.
func (ap ApproxOptions) sampleSize(n int) int {
	if ap.SampleRate > 0 && ap.SampleRate < 1 {
		return int(math.Ceil(ap.SampleRate * float64(n)))
	}
	s := n / 8
	if s < 1024 {
		s = 1024
	}
	if s > 131072 {
		s = 131072
	}
	return s
}

// DetectApprox is DetectContext's approximate counterpart with a background
// context; see DetectApproxContext.
func DetectApprox(rel *data.Relation, cons Constraints, idx neighbors.Index, ap ApproxOptions) (*Detection, error) {
	return DetectApproxContext(context.Background(), rel, cons, idx, ap)
}

// DetectApproxContext splits rel under the constraints using sampled
// neighbor-count certificates, refining only the borderline band exactly.
// The result is a drop-in *Detection with the same saturated Counts as
// DetectContext, min(|D_ε(t_i)|, η): certified inliers store η and
// certified outliers their exact count (only NoRefine leaves estimates in
// the band). Relations smaller than MinN (or smaller than the sample would
// be) fall back to the exact pass.
func DetectApproxContext(ctx context.Context, rel *data.Relation, cons Constraints, idx neighbors.Index, ap ApproxOptions) (*Detection, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	ap = ap.withDefaults()
	n := rel.N()
	if ap.Off || n < ap.MinN || ap.sampleSize(n) >= n {
		return DetectContext(ctx, rel, cons, idx)
	}
	start := time.Now()
	var indexBuild time.Duration
	if idx == nil {
		idx = neighbors.Build(rel, cons.Eps)
		indexBuild = time.Since(start)
	}
	det := &Detection{Counts: make([]int, n), eta: cons.Eta, IndexBuild: indexBuild}
	p, err := newApproxPlan(rel, cons, idx, ap)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	ws := make([]approxWorker, max(workers, 1))
	for w := range ws {
		ws[w].bind(ctx, p)
	}
	errs := par.ForEachWorker(ctx, n, workers, func(w, i int) error {
		det.Counts[i] = p.classify(&ws[w], i)
		return nil
	})
	p.merge(&det.Stats, ws)
	det.Elapsed = time.Since(start)
	if err := par.FirstErr(errs); err != nil {
		return nil, fmt.Errorf("core: detecting outliers (approx): %w", err)
	}
	for i := 0; i < n; i++ {
		if det.Counts[i] >= cons.Eta {
			det.Inliers = append(det.Inliers, i)
		} else {
			det.Outliers = append(det.Outliers, i)
		}
	}
	return det, nil
}

// approxPlan is the shared read-only state of one approximate pass: the
// sample, its sub-index, and the precomputed certification thresholds.
type approxPlan struct {
	rel  *data.Relation
	cons Constraints
	full neighbors.Index // the full index (shared; workers wrap it)
	samp neighbors.Index // index over the sampled sub-relation
	rows []int           // sorted sampled physical rows
	n    int
	z    float64
	// xClear[d] is the minimum sampled hit count certifying a clear
	// inlier when the probe excludes d ∈ {0, 1} sampled rows (the query
	// tuple itself may be in the sample); it doubles as the probe's
	// CountWithin cap. sEff+1 when no count certifies.
	xClear [2]int
	noRef  bool
}

// newApproxPlan draws the sample, builds the sub-index and precomputes the
// certification thresholds. ap must already have defaults resolved.
func newApproxPlan(rel *data.Relation, cons Constraints, idx neighbors.Index, ap ApproxOptions) (*approxPlan, error) {
	n := rel.N()
	s := ap.sampleSize(n)
	if s >= n || n < 2 {
		return nil, fmt.Errorf("core: approx sample of %d rows needs a larger relation than %d", s, n)
	}
	rows := stats.SampleIndices(n, float64(s)/float64(n), ap.Seed)
	p := &approxPlan{
		rel: rel, cons: cons, full: idx,
		samp: neighbors.Build(rel.Subset(rows), cons.Eps),
		rows: rows, n: n,
		z:     stats.ZForConfidence(ap.Confidence),
		noRef: ap.NoRefine,
	}
	for d := 0; d < 2; d++ {
		p.xClear[d] = clearInlierThreshold(len(rows)-d, n, cons.Eta, p.z)
	}
	return p, nil
}

// clearInlierThreshold returns the minimum x ∈ [1, sEff] whose Wilson lower
// bound, scaled to the n−1 candidate neighbors, reaches η — or sEff+1 when
// no sampled count certifies. The bound is monotone in x, so binary search.
func clearInlierThreshold(sEff, n, eta int, z float64) int {
	if sEff < 1 {
		return 1 // vacuous: callers with no effective sample refine exactly
	}
	x := sort.Search(sEff, func(k int) bool {
		lo, _ := stats.WilsonInterval(k+1, sEff, z)
		return lo*float64(n-1) >= float64(eta)
	}) + 1
	return x
}

// samplePos returns row i's position inside the sampled sub-relation, or
// -1 when i was not sampled.
func (p *approxPlan) samplePos(i int) int {
	j := sort.SearchInts(p.rows, i)
	if j < len(p.rows) && p.rows[j] == i {
		return j
	}
	return -1
}

// estimate scales a sampled hit count to the n−1 candidate neighbors.
func (p *approxPlan) estimate(x, sEff int) int {
	return int(math.Round(float64(x) / float64(sEff) * float64(p.n-1)))
}

// approxWorker is one goroutine's counting views and tallies.
type approxWorker struct {
	fc, sc  neighbors.Counters
	full    neighbors.Index
	samp    neighbors.Index
	sampled int64
	refined int64
}

func (w *approxWorker) bind(ctx context.Context, p *approxPlan) {
	w.full = neighbors.WithContext(ctx, neighbors.Counting(p.full, &w.fc))
	w.samp = neighbors.WithContext(ctx, neighbors.Counting(p.samp, &w.sc))
}

// classify returns tuple i's saturated neighbor count min(|D_ε(t_i)|, η):
// the certificate cascade described in the file comment decides the side
// of η, and the exact η-capped count on the full index supplies the value
// wherever it is below η.
func (p *approxPlan) classify(w *approxWorker, i int) int {
	t := p.rel.Tuples[i]
	eps, eta := p.cons.Eps, p.cons.Eta
	skipPos := p.samplePos(i)
	sEff, xClear := len(p.rows), p.xClear[0]
	if skipPos >= 0 {
		sEff, xClear = sEff-1, p.xClear[1]
	}
	if sEff > 0 {
		probeCap := xClear
		if probeCap > sEff {
			probeCap = sEff // inlier cert unreachable; keep the outlier certs
		}
		x := w.samp.CountWithin(t, eps, skipPos, probeCap)
		if x >= xClear {
			// Clear inlier: even the capped (under-)count certifies.
			w.sampled++
			return eta
		}
		if _, hi := stats.WilsonInterval(x, sEff, p.z); hi*float64(p.n-1) < float64(eta) {
			// Clear outlier, statistically; its exact count is one capped
			// query over a small ball.
			w.sampled++
			return w.full.CountWithin(t, eps, i, eta)
		}
		if ub, ok := neighbors.CubeBound(p.full, t, eps, i); ok && ub < eta {
			// Clear outlier, deterministically: the grid cube population
			// bounds the true count from above at zero distance cost.
			w.sampled++
			return w.full.CountWithin(t, eps, i, eta)
		}
		if p.noRef {
			w.sampled++
			return min(p.estimate(x, sEff), eta)
		}
	}
	// Borderline band: exact machinery, needing only the side of η — the
	// CountWithinAtLeast early exit (cap = η) stops the scan at the η-th
	// hit, so even refinement is cheaper than the full exact pass.
	w.refined++
	return w.full.CountWithin(t, eps, i, eta)
}

// merge folds the per-worker tallies and counter shards into st. The
// sampled probes' distance evaluations land both in the grand DistEvals
// total and in their own ApproxSampleEvals slice.
func (p *approxPlan) merge(st *obs.SearchStats, ws []approxWorker) {
	var fc, sc neighbors.Counters
	for w := range ws {
		fc.Add(ws[w].fc)
		sc.Add(ws[w].sc)
		st.ApproxSampled += ws[w].sampled
		st.ApproxRefined += ws[w].refined
	}
	addCounters(st, fc)
	addCounters(st, sc)
	st.ApproxSampleEvals += sc.DistEvals
}
