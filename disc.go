// Package disc is a Go implementation of DISC — saving outliers by minimal
// value adjustment under DIStance constraints for better Clustering — from
// "On Saving Outliers for Better Clustering over Noisy Data" (Song, Gao,
// Huang, Wang; SIGMOD 2021).
//
// A tuple violates the distance constraints (ε, η) when it has fewer than
// η neighbors within distance ε; DISC repairs such dirty outliers by
// adjusting as few attribute values as possible until they satisfy the
// constraints again, while leaving natural outliers (true abnormal
// behaviour) untouched. The adjusted data clusters better and improves
// downstream classification and record matching.
//
// Quick start:
//
//	rel := disc.NewRelation(disc.NewNumericSchema("x", "y"))
//	// ... append tuples ...
//	params, _ := disc.DetermineParams(rel, disc.ParamOptions{})
//	res, _ := disc.Save(rel, disc.Constraints{Eps: params.Eps, Eta: params.Eta}, disc.Options{Kappa: 2})
//	clusters := disc.DBSCAN(res.Repaired, disc.DBSCANConfig{Eps: params.Eps, MinPts: params.Eta})
//
// The library also ships the paper's complete experimental apparatus: the
// DBSCAN / K-Means / K-Means-- / CCKM / SREM / KMC clustering substrates,
// the DORC / ERACER / Holistic / HoloClean cleaning baselines, the Exact
// enumeration algorithm, SSE outlier explanation, a CART decision tree, a
// rule-based record matcher, synthetic Table 1 datasets, and runners for
// every table and figure of the evaluation (see the repro/internal/exp
// package and cmd/discbench).
package disc

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
	"repro/internal/obs"
)

// Core data model (see internal/data).
type (
	// Schema is an ordered list of attributes plus the Lp aggregation
	// norm (L2 by default, as in the paper).
	Schema = data.Schema
	// Attribute describes one column: numeric or textual, with an
	// optional distance scale and textual distance function.
	Attribute = data.Attribute
	// Kind distinguishes numeric from textual attributes.
	Kind = data.Kind
	// Value is one attribute value.
	Value = data.Value
	// Tuple is one row.
	Tuple = data.Tuple
	// Relation is a set of tuples over a schema.
	Relation = data.Relation
	// AttrMask is a bitset of attribute indexes.
	AttrMask = data.AttrMask
	// Dataset bundles a relation with experiment ground truth.
	Dataset = data.Dataset
)

// Attribute kinds.
const (
	Numeric = data.Numeric
	Text    = data.Text
)

// Norms for multi-attribute distance aggregation.
const (
	L2   = metric.L2
	L1   = metric.L1
	LInf = metric.LInf
)

// Constructors re-exported from the data model.
var (
	// Num wraps a numeric value.
	Num = data.Num
	// Str wraps a textual value.
	Str = data.Str
	// NewRelation returns an empty relation over a schema.
	NewRelation = data.NewRelation
	// NewNumericSchema builds an all-numeric schema.
	NewNumericSchema = data.NewNumericSchema
	// FullMask returns the mask of attributes 0..m-1.
	FullMask = data.FullMask
	// ReadCSV and WriteCSV (de)serialize relations.
	ReadCSV  = data.ReadCSV
	WriteCSV = data.WriteCSV
)

// The DISC contribution (see internal/core).
type (
	// Constraints are the distance constraints (ε, η) of Definition 1.
	Constraints = core.Constraints
	// Options tune Algorithm 1 (κ restriction, pruning, parallelism).
	Options = core.Options
	// Detection is the inlier/outlier split of a relation.
	Detection = core.Detection
	// Adjustment is the result of saving one outlier.
	Adjustment = core.Adjustment
	// SaveResult is the outcome of saving every outlier of a relation.
	SaveResult = core.SaveResult
	// Saver saves outliers against a fixed inlier set.
	Saver = core.Saver
	// ExactSaver is the O(d^m·n) enumeration baseline of §2.3.
	ExactSaver = core.ExactSaver
	// ParamOptions tune the Poisson-based parameter determination.
	ParamOptions = core.ParamOptions
	// ParamChoice is a determined (ε, η) setting.
	ParamChoice = core.ParamChoice
	// SaveError records one outlier a SaveResult could not process.
	SaveError = core.SaveError
)

// Observability (see internal/obs). Wire Options.Progress and
// Options.Logger to receive these; SaveResult carries the merged
// SearchStats and PhaseTimings of the whole pipeline.
type (
	// SearchStats are the Algorithm 1 search counters (nodes expanded,
	// Proposition 3 prunes, memo hits, Proposition 5 witnesses) plus the
	// neighbor-index traffic of a run.
	SearchStats = obs.SearchStats
	// PhaseTimings breaks a Save run into pipeline phases.
	PhaseTimings = obs.PhaseTimings
	// Progress is one snapshot of a running batch, delivered to
	// Options.Progress at a bounded rate.
	Progress = obs.Progress
)

// Detect splits a relation into inliers and outliers under the
// constraints.
func Detect(rel *Relation, cons Constraints) (*Detection, error) {
	return core.Detect(rel, cons, nil)
}

// DetectContext is Detect with cancellation against an index over rel:
// the counting pass stops promptly once ctx is cancelled and the
// cancellation is returned as an error. A nil idx builds one; a supplied
// idx lets a session-caching layer (or any caller running detection more
// than once) reuse one built index, and Detection.IndexBuild stays zero.
func DetectContext(ctx context.Context, rel *Relation, cons Constraints, idx NeighborIndex) (*Detection, error) {
	return core.DetectContext(ctx, rel, cons, idx)
}

// RehydrateDetection reconstructs a Detection from persisted neighbor
// counts and the resolved η, re-deriving the inlier/outlier split without
// re-running the counting pass. It exists for durable session stores that
// checkpoint Detection.Counts: on restart they restore the split from the
// snapshot instead of paying detection again.
func RehydrateDetection(counts []int, eta int) *Detection {
	return core.RehydrateDetection(counts, eta)
}

// Save runs the full DISC pipeline: detect every violation of the distance
// constraints and save each outlier by near-minimal value adjustment
// (Algorithm 1 with the Proposition 3/5 bounds). The input is not
// modified; the repaired copy and the per-outlier adjustments are
// returned.
func Save(rel *Relation, cons Constraints, opts Options) (*SaveResult, error) {
	return core.SaveAll(rel, cons, opts)
}

// SaveContext is Save under budgets: ctx (plus Options.BatchTimeout) bounds
// the whole batch and Options.MaxNodes/Deadline bound each outlier's
// search. Instead of aborting on an expired budget the pipeline degrades:
// completed saves stand, in-flight saves return best-so-far adjustments
// flagged Exhausted, skipped outliers are listed in SaveResult.Errs, and a
// panic inside one outlier's save is recovered into its Errs entry while
// the remaining outliers are still saved.
func SaveContext(ctx context.Context, rel *Relation, cons Constraints, opts Options) (*SaveResult, error) {
	return core.SaveAllContext(ctx, rel, cons, opts)
}

// NewSaver prepares a saver for repeated single-tuple saves against a
// fixed outlier-free relation.
func NewSaver(r *Relation, cons Constraints, opts Options) (*Saver, error) {
	return core.NewSaver(r, cons, opts)
}

// NewSaverContext is NewSaver with cancellation of the η-radius precompute
// pass.
func NewSaverContext(ctx context.Context, r *Relation, cons Constraints, opts Options) (*Saver, error) {
	return core.NewSaverContext(ctx, r, cons, opts)
}

// NewExactSaver prepares the exact value-enumeration baseline; maxDomain
// thins each attribute's candidate domain (0 keeps all observed values).
func NewExactSaver(r *Relation, cons Constraints, maxDomain int) (*ExactSaver, error) {
	return core.NewExactSaver(r, cons, maxDomain)
}

// DetermineParams chooses (ε, η) from the Poisson model of ε-neighbor
// appearance (§2.1.2, Figure 5), optionally from a sample of the data.
func DetermineParams(rel *Relation, opts ParamOptions) (ParamChoice, error) {
	return core.DeterminePoisson(rel, opts)
}

// DetermineParamsContext is DetermineParams under cancellation, degrading
// to the best choice among the ε candidates measured before ctx was
// cancelled (flagged ParamChoice.Exhausted).
func DetermineParamsContext(ctx context.Context, rel *Relation, opts ParamOptions) (ParamChoice, error) {
	return core.DeterminePoissonContext(ctx, rel, opts)
}

// NeighborCounts returns the sampled #ε-neighbor distribution (Figure 5).
func NeighborCounts(rel *Relation, eps, sampleRate float64, seed int64) []int {
	return core.NeighborCounts(rel, eps, sampleRate, seed, nil)
}

// Clustering substrates (see internal/cluster).
type (
	// ClusterResult is a clustering: one label per tuple, -1 = noise.
	ClusterResult = cluster.Result
	// DBSCANConfig parameterizes DBSCAN.
	DBSCANConfig = cluster.DBSCANConfig
	// KMeansConfig parameterizes the K-Means family.
	KMeansConfig = cluster.KMeansConfig
	// SREMConfig parameterizes the EM mixture clustering.
	SREMConfig = cluster.SREMConfig
	// KMCConfig parameterizes coreset K-Means.
	KMCConfig = cluster.KMCConfig
	// OPTICSConfig parameterizes the OPTICS ordering.
	OPTICSConfig = cluster.OPTICSConfig
	// OPTICSResult is the OPTICS ordering plus extracted clustering.
	OPTICSResult = cluster.OPTICSResult
	// AggloConfig parameterizes single-link agglomerative clustering.
	AggloConfig = cluster.AggloConfig
)

// Clustering algorithms of the paper's evaluation (§4.1.1).
var (
	// DBSCAN is density-based clustering over any metric schema.
	DBSCAN = cluster.DBSCAN
	// DBSCANContext, KMeansContext and SREMContext are the cancellable
	// variants: they stop promptly once the context is cancelled and
	// return the partial (DBSCAN) or best-so-far (restarted) clustering
	// alongside the context's error.
	DBSCANContext = cluster.DBSCANContext
	KMeansContext = cluster.KMeansContext
	SREMContext   = cluster.SREMContext
	// KMeans is Lloyd's algorithm with k-means++ seeding and restarts.
	KMeans = cluster.KMeans
	// KMeansMM is K-Means-- (k clusters and l outliers).
	KMeansMM = cluster.KMeansMM
	// CCKM is cardinality-constrained clustering with an outlier cluster.
	CCKM = cluster.CCKM
	// SREM is stability-region EM over Gaussian mixtures.
	SREM = cluster.SREM
	// KMC is coreset K-Means.
	KMC = cluster.KMC
	// OPTICS orders points by density reachability (Ankerst et al.).
	OPTICS = cluster.OPTICS
	// SingleLink is MST-cut agglomerative clustering.
	SingleLink = cluster.SingleLink
)

// NeighborIndex answers ε-range and k-NN queries (see internal/neighbors).
type NeighborIndex = neighbors.Index

// IndexCounters tallies the query traffic of a counting index view: queries
// by kind and the tuple-pair distance evaluations spent answering them. The
// fields are plain int64s — one instance per goroutine, merged only after
// the owner is done.
type IndexCounters = neighbors.Counters

// CountingIndex wraps an index so every query against the view is tallied
// in the supplied counters; the built structure is shared, not copied. It
// is how a serving layer proves its cached index answered a request — query
// counters move while build counters stay put.
var CountingIndex = neighbors.Counting

// BuildIndex picks a neighbor index for the relation (grid for
// low-dimensional numeric data, vantage-point tree otherwise); eps hints
// the grid cell size.
func BuildIndex(rel *Relation, eps float64) NeighborIndex {
	return neighbors.Build(rel, eps)
}

// MutableIndex is a neighbor index supporting single-tuple inserts and
// deletes: the grid absorbs churn natively via its cell map, the other
// index kinds buffer inserts in a delta scanned alongside the frozen
// base and merged on a size threshold; deletes tombstone rows in place.
// See internal/neighbors.Mutable.
type MutableIndex = neighbors.Mutable

// IndexKind selects a concrete index implementation for NewMutableIndex;
// parse wire names with ParseIndexKind.
type IndexKind = neighbors.IndexKind

// Index kinds: automatic selection (Build's policy), brute scan, grid,
// k-d tree, vantage-point tree.
const (
	KindAuto  = neighbors.KindAuto
	KindBrute = neighbors.KindBrute
	KindGrid  = neighbors.KindGrid
	KindKD    = neighbors.KindKD
	KindVP    = neighbors.KindVP
)

// ParseIndexKind maps the wire names ("auto", "brute", "grid", "kd",
// "vp") to an IndexKind.
var ParseIndexKind = neighbors.ParseIndexKind

// NewMutableIndex builds a mutable neighbor index over rel; kind selects
// the concrete base (KindAuto replicates BuildIndex's policy). Grid and
// kd require an all-numeric schema.
func NewMutableIndex(rel *Relation, eps float64, kind IndexKind) (*MutableIndex, error) {
	return neighbors.NewMutable(rel, eps, kind)
}
