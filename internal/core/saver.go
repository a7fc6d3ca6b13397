package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options tune Algorithm 1.
type Options struct {
	// Kappa bounds the number of adjusted attributes: the recursion only
	// considers unadjusted sets X with |X| ≥ m−κ, the O(m^{κ+1}·n)
	// variant of §3.3. κ ≤ 0 means unrestricted (start from X = ∅, which
	// admits the Lemma 4 nearest-inlier fallback). A restricted saver
	// indexes κ+1 attribute blocks at construction and draws each save's
	// candidates from them (docs/ALGORITHM.md §5).
	Kappa int
	// DisablePruning turns off the Proposition 3 lower-bound pruning
	// (ablation only).
	DisablePruning bool
	// DisableMemo turns off the visited-X deduplication (ablation only).
	DisableMemo bool
	// Workers bounds SaveAll's parallelism; ≤ 0 means GOMAXPROCS.
	Workers int
	// Index overrides the automatically built neighbor index. For NewSaver
	// it must index r (the inlier relation); for SaveAll it must index the
	// full input relation and is reused by the detection pass (the saver's
	// inlier index is still built over the inlier subset).
	Index neighbors.Index
	// MaxNodes bounds the search nodes Algorithm 1 expands per outlier
	// (≤ 0: unlimited). When the cap trips mid-search, the best-so-far
	// adjustment is returned with Adjustment.Exhausted set — feasible
	// whenever one was found, since every candidate answer is a Lemma 4 /
	// Proposition 5 witness.
	MaxNodes int
	// Deadline is the wall-clock allowance for saving one outlier
	// (0: none). Like MaxNodes, tripping it degrades to the best-so-far
	// answer instead of aborting.
	Deadline time.Duration
	// BatchTimeout is the wall-clock allowance for a whole SaveAll run,
	// covering detection and every per-outlier save (0: none). When it
	// expires, outliers not yet saved are reported in SaveResult.Errs and
	// the partial result is returned.
	BatchTimeout time.Duration
	// Progress, when non-nil, receives batch snapshots from SaveAll: the
	// first completed save, at most one per ProgressInterval after that,
	// and always a final snapshot. The callback is serialized (never runs
	// concurrently with itself) but may fire from any worker goroutine.
	Progress func(obs.Progress)
	// ProgressInterval bounds the Progress rate; ≤ 0 selects
	// obs.DefaultProgressInterval (200ms).
	ProgressInterval time.Duration
	// Logger, when non-nil, receives structured per-phase and degradation
	// events from SaveAll and NewSaver: detection and precompute done
	// (Info), per-outlier budget trips (Debug), recovered panics and
	// skipped outliers (Warn), grid→brute fallbacks (Debug). The hot
	// search path itself never logs.
	Logger *slog.Logger
}

// Saver saves outliers against a fixed set r of non-outlying tuples.
type Saver struct {
	rel  *data.Relation // r
	cons Constraints
	opts Options
	idx  neighbors.Index
	// kern is the compiled distance kernel over r, shared with idx when
	// the index is kernel-backed so the per-pair text-distance cache is
	// warmed by both; the per-outlier candidate tables read from it.
	kern *data.Kernel
	// etaRadius[i] = δ_η(t_i): distance from t_i to its η-th nearest
	// neighbor within r, or +Inf when that neighbor lies beyond ε. A tuple
	// position with δ_η ≤ ε − d satisfies the constraints for any
	// adjustment within d of it (Proposition 5); every reader compares
	// against ε − d ≤ ε, so clipping at ε changes no decision.
	etaRadius []float64
	m         int
	sqNorm    bool // L2: accumulate squared per-attribute distances
	// arenas recycles saveArena scratch across Save/SaveContext calls;
	// SaveAll bypasses it with explicit per-worker arenas.
	arenas sync.Pool
	// setupStats and setup time the one-off construction work (index
	// builds, η-radius precompute) so SaveAll can report pipeline phases;
	// setupStats holds the index traffic of the precompute pass.
	setupStats obs.SearchStats
	setup      struct{ indexBuild, etaRadius time.Duration }
	// groups are the κ+1 attribute-group indexes a κ-restricted saver
	// draws its candidates from (nil when 0 < κ < m does not hold).
	groups []attrGroup
	// mut is idx's mutable wrapper when the saver was built over one
	// (Options.Index of type *neighbors.Mutable). It unlocks the
	// incremental inlier-set maintenance surface: InsertInlier,
	// RemoveInlier and RefreshRadii. nil for static savers.
	mut *neighbors.Mutable
}

// NewSaver precomputes the η-th-neighbor radii of r. r must be outlier-free
// under cons (use Detect to split first); an empty r cannot save anything
// and is rejected, as is a relation with NaN/±Inf values (distances over
// them are undefined and would silently poison every aggregate).
func NewSaver(r *data.Relation, cons Constraints, opts Options) (*Saver, error) {
	return NewSaverContext(context.Background(), r, cons, opts)
}

// NewSaverContext is NewSaver with cancellation: the η-radius precompute
// pass over r stops promptly once ctx is cancelled and the cancellation is
// returned as an error.
func NewSaverContext(ctx context.Context, r *data.Relation, cons Constraints, opts Options) (*Saver, error) {
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	if err := r.Schema.Validate(); err != nil {
		return nil, err
	}
	if r.N() == 0 {
		return nil, fmt.Errorf("core: cannot save outliers against an empty inlier set")
	}
	if err := data.ValidateValues(r); err != nil {
		return nil, err
	}
	log := obs.Logger(opts.Logger)
	idx := opts.Index
	var indexBuild time.Duration
	if idx == nil {
		start := time.Now()
		idx = neighbors.Build(r, cons.Eps)
		indexBuild = time.Since(start)
		log.Debug("disc: inlier index built", "index", fmt.Sprintf("%T", idx),
			"tuples", r.N(), "duration", indexBuild)
	}
	s := &Saver{
		rel:       r,
		cons:      cons,
		opts:      opts,
		idx:       idx,
		etaRadius: make([]float64, r.N()),
		m:         r.Schema.M(),
		sqNorm:    r.Schema.Norm == metric.L2,
	}
	if m, ok := idx.(*neighbors.Mutable); ok {
		s.mut = m
	}
	s.kern = neighbors.KernelOf(idx)
	if s.kern == nil {
		// Custom Options.Index without a kernel: compile one for the
		// candidate tables (its text cache is simply not shared).
		s.kern = data.CompileKernel(r)
	}
	if s.kappaRestricted() {
		start := time.Now()
		groups, err := buildGroups(r, s.kern, cons.Eps, opts.Kappa, s.mut != nil)
		if err != nil {
			return nil, err
		}
		s.groups = groups
		d := time.Since(start)
		indexBuild += d
		log.Debug("disc: κ attribute-group indexes built", "groups", len(groups),
			"tuples", r.N(), "duration", d)
	}
	s.setup.indexBuild = indexBuild
	s.arenas.New = func() any { return new(saveArena) }
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One counting view (and counter shard) per worker: the precompute
	// fans out over r, and the shards merge into setupStats once the pool
	// joins — plain int64 increments, no atomics.
	if workers > r.N() {
		workers = r.N()
	}
	shards := make([]neighbors.Counters, workers)
	views := make([]neighbors.Index, workers)
	bufs := make([][]neighbors.Neighbor, workers)
	for w := range views {
		views[w] = neighbors.WithContext(ctx, neighbors.Counting(idx, &shards[w]))
	}
	start := time.Now()
	errs := par.ForEachWorker(ctx, r.N(), workers, func(w, i int) error {
		bufs[w] = neighbors.KNNWithin(views[w], bufs[w], r.Tuples[i], cons.Eta, cons.Eps, i)
		s.etaRadius[i] = s.clippedRadius(bufs[w])
		return nil
	})
	s.setup.etaRadius = time.Since(start)
	var merged neighbors.Counters
	for w := range shards {
		merged.Add(shards[w])
	}
	addCounters(&s.setupStats, merged)
	if err := par.FirstErr(errs); err != nil {
		return nil, fmt.Errorf("core: building saver: %w", err)
	}
	log.Debug("disc: η-radius precompute done", "tuples", r.N(),
		"duration", s.setup.etaRadius, "knn_queries", merged.KNNQueries,
		"dist_evals", merged.DistEvals)
	return s, nil
}

// addCounters folds an index-counter shard into a stats shard; obs stays
// import-free of neighbors, so the bridge lives here.
func addCounters(s *obs.SearchStats, c neighbors.Counters) {
	s.KNNQueries += c.KNNQueries
	s.RangeQueries += c.RangeQueries
	s.DistEvals += c.DistEvals
	s.GridFallbacks += c.GridFallbacks
	s.DistEarlyExits += c.DistEarlyExits
	s.TextCacheHits += c.TextCacheHits
	s.TextCacheMisses += c.TextCacheMisses
}

// Rel returns the inlier relation r.
func (s *Saver) Rel() *data.Relation { return s.rel }

// Index returns the neighbor index over r the saver queries. It is the
// structure a session-caching layer amortizes: built once (by NewSaver or
// supplied via Options.Index), it serves every subsequent SaveOne call
// without rebuilding. The index is safe for concurrent readers; wrap it
// with neighbors.Counting to meter per-caller query traffic.
func (s *Saver) Index() neighbors.Index { return s.idx }

// SetupStats returns the index traffic of the saver's construction (the
// η-radius precompute) and the one-off phase durations: index builds (the
// inlier index unless Options.Index was supplied, plus the κ
// attribute-group indexes of a κ-restricted saver) and precompute.
func (s *Saver) SetupStats() (stats obs.SearchStats, indexBuild, etaRadius time.Duration) {
	return s.setupStats, s.setup.indexBuild, s.setup.etaRadius
}

// Constraints returns the saver's (ε, η).
func (s *Saver) Constraints() Constraints { return s.cons }

// saveState is the per-outlier working set of Algorithm 1. Candidates are
// compacted: position c stands for inlier ids[c], so the distance tables
// only cover tuples that can ever matter. All slice fields are backed by a
// saveArena and valid only for the duration of one save.
type saveState struct {
	// ar owns the scratch slabs the recursion draws from.
	ar *saveArena
	// ids maps compact candidate positions to tuple indexes in r.
	ids []int
	// attrD[c*m+a] is the per-attribute distance Δ(t_o[a], t_{ids[c]}[a])
	// — squared under L2 so subset aggregates are additive.
	attrD []float64
	// fullD[c] is the full-space aggregate (squared under L2).
	fullD []float64
	// visited memoizes processed X masks.
	visited map[data.AttrMask]struct{}
	// best solution so far.
	bestCost float64 // actual (non-squared) cost
	bestT2   int     // inlier (tuple index in r) donating the R\X values (-1: none)
	bestX    data.AttrMask
	// bud meters the search against MaxNodes/Deadline/ctx.
	bud budget
	// stats points at the arena's counter shard; plain increments, owned
	// exclusively by this save.
	stats *obs.SearchStats
}

// Save finds the near-optimal adjustment of the outlier tuple to
// (Algorithm 1). The caller is responsible for to actually violating the
// constraints; saving an inlier simply returns a zero-cost adjustment.
func (s *Saver) Save(to data.Tuple) Adjustment {
	return s.SaveContext(context.Background(), to)
}

// SaveContext is Save under a budget: the search stops as soon as ctx is
// cancelled, Options.Deadline elapses, or Options.MaxNodes search nodes have
// been expanded, returning the best-so-far adjustment with Exhausted set.
// Whenever any answer was found before the trip it is feasible — every
// intermediate solution is a Lemma 4 / Proposition 5 witness, so degrading
// never fabricates an infeasible repair.
func (s *Saver) SaveContext(ctx context.Context, to data.Tuple) Adjustment {
	ar := s.arenas.Get().(*saveArena)
	adj := s.save(ctx, to, ar)
	s.arenas.Put(ar)
	return adj
}

// SaveOne is the session-reuse surface of the serving path: one save of to
// against the prepared inlier set, under the same per-save budgets as
// SaveContext. The saver's index, η-radius table and arena pool are all
// reused across calls — repeated SaveOne calls on a warm saver rebuild
// nothing and stay ~1 alloc/op — and concurrent calls are safe: each draws
// its own arena from the pool and the shared structures are read-only.
func (s *Saver) SaveOne(ctx context.Context, to data.Tuple) Adjustment {
	return s.SaveContext(ctx, to)
}

// kappaRestricted reports whether Options.Kappa restricts the search
// (0 < κ < m); otherwise every X down to ∅ is admissible.
func (s *Saver) kappaRestricted() bool { return s.opts.Kappa > 0 && s.opts.Kappa < s.m }

// save runs one Algorithm 1 search with its scratch memory drawn from ar.
// The arena must not be shared with a concurrent save.
func (s *Saver) save(ctx context.Context, to data.Tuple, ar *saveArena) Adjustment {
	st := s.begin(ctx, ar)
	if s.kappaRestricted() {
		// Under the κ restriction the nearest inlier is not an admissible
		// answer (it adjusts every attribute), so there is no Lemma 4 seed
		// to truncate by. The pigeonhole union takes its place: a donor
		// within ε on some m−κ attributes is within ε on a whole group.
		st.ids = s.pigeonholeCandidates(ar, to)
		return s.search(st, to)
	}
	// Initialization (§3.3.2, Lemma 4): the nearest inlier satisfying the
	// constraints is itself a feasible adjustment, adjusting all
	// attributes (X = ∅ upper bound). It also bounds which inliers can
	// ever improve the solution: a candidate of any node must be within ε
	// on X, so a donor with Δ(t_o, t) > ε + bestCost can never yield a
	// cheaper composite.
	if nn, cost := s.initialBound(ar.cidx, to); nn >= 0 {
		st.bestT2 = nn
		st.bestX = 0
		st.bestCost = cost
		ball := ar.cidx.Within(to, s.cons.Eps+cost, -1)
		st.ids = grow(ar.ids, len(ball))
		for c, nb := range ball {
			st.ids[c] = nb.Idx
		}
		ar.ids = st.ids
	} else {
		// All-rows fallback, unrestricted saves only: with no feasible
		// whole-tuple substitution nothing truncates the candidates, so
		// every live inlier is one.
		st.ids = s.allRows(ar)
	}
	return s.search(st, to)
}

// begin resets ar for one save and returns its working set with no
// candidates and no solution yet.
func (s *Saver) begin(ctx context.Context, ar *saveArena) *saveState {
	ar.reset(s.m)
	// The counting view of the index is cached on the arena (one per
	// worker), so instrumentation adds no steady-state allocations; its
	// counters are the arena's shard, zeroed by reset above.
	if ar.cidx == nil || ar.cidxBase != s.idx {
		ar.cidxBase = s.idx
		ar.cidx = neighbors.Counting(s.idx, &ar.nc)
	}
	st := &ar.st
	*st = saveState{
		ar:       ar,
		visited:  ar.visited,
		bestCost: math.Inf(1),
		bestT2:   -1,
		bud:      makeBudget(ctx, s.opts),
		stats:    &ar.stats,
	}
	return st
}

// allRows lists every live row of r, ascending, in ar.ids. Tombstoned
// rows of a mutable inlier set are invisible to the index but still
// occupy physical slots, so they are skipped here too.
func (s *Saver) allRows(ar *saveArena) []int {
	ids := grow(ar.ids, s.rel.N())[:0]
	for i, n := 0, s.rel.N(); i < n; i++ {
		if s.mut != nil && !s.mut.Alive(i) {
			continue
		}
		ids = append(ids, i)
	}
	ar.ids = ids
	return ids
}

// search fills the compact candidate tables for st.ids, runs the
// recursion (from every |X| = m−κ under the κ restriction, from X = ∅
// otherwise) and seals the answer.
func (s *Saver) search(st *saveState, to data.Tuple) Adjustment {
	ar := st.ar
	st.stats.Candidates = int64(len(st.ids))
	c := len(st.ids)
	s.fillTables(st, to)

	// Root candidate set: X = ∅ admits every candidate. The root
	// lists live in the depth-0 slabs; recurse builds each child's list in
	// the slab one depth down.
	cand := ar.intsAt(0, c)[:c]
	subD := ar.floatsAt(0, c)[:c] // d_X aggregate per candidate (squared under L2)
	for ci := range cand {
		cand[ci] = ci
		subD[ci] = 0
	}

	if s.kappaRestricted() {
		s.forEachStartMask(st, cand, subD)
	} else {
		s.recurse(st, 0, cand, subD)
	}
	return s.seal(st, to)
}

// fillTables computes the per-attribute and full-space distance tables of
// st.ids in arena storage, through the compiled kernel: the outlier binds
// once, per-attribute distances read flat columns, and repeated text
// values hit the pair cache / query memo instead of re-running
// Levenshtein.
func (s *Saver) fillTables(st *saveState, to data.Tuple) {
	ar := st.ar
	c := len(st.ids)
	st.attrD = grow(ar.attrD, c*s.m)
	ar.attrD = st.attrD
	st.fullD = grow(ar.fullD, c)
	ar.fullD = st.fullD
	kq := s.kern.Bind(to)
	for ci, i := range st.ids {
		acc := 0.0
		for a := 0; a < s.m; a++ {
			d := kq.AttrDist(a, i)
			if s.sqNorm {
				d = d * d
			}
			st.attrD[ci*s.m+a] = d
			acc = s.accumulate(acc, d)
		}
		st.fullD[ci] = acc
	}
	st.stats.TextCacheHits += kq.TextCacheHits
	st.stats.TextCacheMisses += kq.TextCacheMisses
	kq.Release()
}

// seal closes this save's counter shard — node and trip counts from the
// budget, index traffic from the counting views — and turns the best
// solution into an Adjustment.
func (s *Saver) seal(st *saveState, to data.Tuple) Adjustment {
	st.stats.Nodes = int64(st.bud.nodes)
	if st.bud.exhausted {
		st.stats.BudgetTrips = 1
	}
	addCounters(st.stats, st.ar.nc)

	if st.bestT2 < 0 {
		// Natural is only a sound classification when the search ran to
		// completion: an exhausted budget means "no adjustment found in
		// time", not "no feasible adjustment exists" (§1.2).
		return Adjustment{
			Index:     -1,
			Cost:      math.Inf(1),
			Natural:   !st.bud.exhausted,
			Nodes:     st.bud.nodes,
			Exhausted: st.bud.exhausted,
			Stats:     *st.stats,
		}
	}
	adj := data.Compose(to, s.rel.Tuples[st.bestT2], st.bestX)
	return Adjustment{
		Index:     -1,
		Tuple:     adj,
		Cost:      st.bestCost,
		Adjusted:  data.DiffMask(s.rel.Schema, to, adj),
		Nodes:     st.bud.nodes,
		Exhausted: st.bud.exhausted,
		Stats:     *st.stats,
	}
}

// Mutable returns the mutable wrapper behind the saver's index, or nil
// when the saver was built over a static index.
func (s *Saver) Mutable() *neighbors.Mutable { return s.mut }

// InsertInlier appends t to the inlier relation through the mutable
// index, extending the η-radius table with a +Inf placeholder, and
// returns the new physical row index. The attribute-group indexes of a
// κ-restricted saver take the row at the same physical index. The caller
// must follow up with RefreshRadii(t) — the placeholder makes the new row
// temporarily useless as a Proposition 5 donor, never unsound. Panics on
// a static saver. Like all the mutation surface, the call must be
// serialized against concurrent saves by the caller (the serving layer
// holds a session-wide write lock).
func (s *Saver) InsertInlier(t data.Tuple) int {
	i := s.mut.Insert(t)
	s.insertGroups(t, i)
	for len(s.etaRadius) <= i {
		s.etaRadius = append(s.etaRadius, math.Inf(1))
	}
	return i
}

// RemoveInlier tombstones inlier row i in the index and in every
// attribute-group index. Its η-radius entry goes stale in place; no index
// reports tombstoned rows and the unrestricted all-rows fallback skips
// them, so the stale value is unreachable.
func (s *Saver) RemoveInlier(i int) {
	s.mut.Delete(i)
	for _, g := range s.groups {
		g.mut.Delete(i)
	}
}

// RefreshRadii recomputes the η-th-neighbor radius, clipped at ε like the
// precompute's, of every live inlier within ε of center (the locality
// bound: a membership change at distance > ε from a tuple cannot move its
// δ_η across the only threshold the saver tests, δ_η ≤ ε − d with d ≥ 0,
// so radii outside the ball may drift above ε without ever changing a
// feasibility answer). Call it once per mutated value — old value, new
// value, and each tuple whose inlier/outlier status flipped — after all
// membership changes of the mutation have been applied. Returns the
// number of rows refreshed.
func (s *Saver) RefreshRadii(center data.Tuple) int {
	if s.mut == nil {
		return 0
	}
	ball := s.idx.Within(center, s.cons.Eps, -1)
	var nn []neighbors.Neighbor
	for _, nb := range ball {
		i := nb.Idx
		nn = neighbors.KNNWithin(s.idx, nn, s.rel.Tuples[i], s.cons.Eta, s.cons.Eps, i)
		s.etaRadius[i] = s.clippedRadius(nn)
	}
	return len(ball)
}

// clippedRadius turns a bounded η-NN answer into the stored δ_η: the η-th
// distance, or +Inf when fewer than η neighbors lie within ε.
func (s *Saver) clippedRadius(nn []neighbors.Neighbor) float64 {
	if len(nn) < s.cons.Eta {
		return math.Inf(1)
	}
	return nn[s.cons.Eta-1].Dist
}

// initialBound finds the nearest inlier whose η-th-neighbor radius fits
// inside ε (a feasible whole-tuple substitution, Lemma 4) and returns its
// tuple index in r and its distance to to; (-1, +Inf) when r has no
// feasible position at all. idx is the calling save's (counting) index
// view.
func (s *Saver) initialBound(idx neighbors.Index, to data.Tuple) (int, float64) {
	// Grow k geometrically: the nearest feasible inlier is almost always
	// among the first few nearest neighbors. Each round resumes where the
	// previous one stopped — KNN(k) is a prefix of KNN(4k) because every
	// index breaks distance ties deterministically by tuple index — so the
	// η-radius check never re-scans positions already rejected.
	checked := 0
	for k := 4; ; k *= 4 {
		nn := idx.KNN(to, k, -1)
		for _, nb := range nn[min(checked, len(nn)):] {
			if s.etaRadius[nb.Idx] <= s.cons.Eps {
				return nb.Idx, nb.Dist
			}
		}
		if len(nn) < k { // exhausted r
			return -1, math.Inf(1)
		}
		checked = len(nn)
	}
}

// accumulate folds one per-attribute distance (already squared under L2)
// into the norm accumulator.
func (s *Saver) accumulate(acc, d float64) float64 {
	if s.sqNorm {
		return acc + d
	}
	return s.rel.Schema.Norm.Accumulate(acc, d)
}

// finish converts an accumulator into an actual distance.
func (s *Saver) finish(acc float64) float64 {
	if s.sqNorm {
		return math.Sqrt(acc)
	}
	return s.rel.Schema.Norm.Finish(acc)
}

// threshold converts ε into accumulator units for comparisons.
func (s *Saver) threshold(eps float64) float64 {
	if eps < 0 {
		return -1 // no candidate can have a negative aggregate
	}
	if s.sqNorm {
		return eps * eps
	}
	return eps
}

// recurse processes the unadjusted set x with its candidate list
// cand = r_ε(t_o[X]) and per-candidate subspace aggregates subD (aligned
// with cand).
func (s *Saver) recurse(st *saveState, x data.AttrMask, cand []int, subD []float64) {
	if !s.opts.DisableMemo {
		if _, seen := st.visited[x]; seen {
			st.stats.MemoHits++
			return
		}
		st.visited[x] = struct{}{}
	}
	if st.bud.stopped() {
		return
	}

	// Proposition 3: fewer than η candidates on X means no feasible
	// adjustment keeps t_o[X]; prune the whole branch (children's
	// candidate sets only shrink).
	if len(cand) < s.cons.Eta {
		st.stats.CandPrunes++
		return
	}

	// Lower bound: Δ(t_o, t_1) − ε with t_1 the η-th nearest candidate by
	// full-space distance.
	if !s.opts.DisablePruning {
		kth := quickselectKth(st, cand, s.cons.Eta)
		if s.finish(kth)-s.cons.Eps >= st.bestCost {
			st.stats.LBPrunes++
			return
		}
	}

	// The mask survived the prune gates, so it is now expanded — the
	// candidate scan and child construction below are the O(m·|cand|) work
	// the O(m^{κ+1}·n) analysis counts — and only expansions spend from the
	// node budget. Pruned visits cost one quickselect and are bounded by
	// m × the expansion count, so MaxNodes still caps total work.
	if st.bud.spend() {
		return
	}

	// Upper bound (Proposition 5): t_2 ∈ r_ε(t_o[X]) with
	// δ_η(t_2) ≤ ε − Δ(t_o[X], t_2[X]); the composite t_o[X] ⊕ t_2[R\X]
	// is feasible and costs Δ(t_o[R\X], t_2[R\X]).
	for li, c := range cand {
		dx := s.finish(subD[li])
		if s.etaRadius[st.ids[c]] > s.cons.Eps-dx {
			continue
		}
		st.stats.UBWitnesses++
		cost := s.finish(s.residual(st, subD[li], c, x))
		if cost < st.bestCost {
			st.stats.BestUpdates++
			st.bestCost = cost
			st.bestT2 = st.ids[c]
			st.bestX = x
		}
	}

	// Recurse on X ∪ {A} for each adjustable attribute A. Each child list
	// is built in the slab for depth |X|+1: the previous child at that
	// depth has fully unwound by the time the next one is filtered, so the
	// slab is free for reuse and the whole descent allocates nothing.
	epsAcc := s.threshold(s.cons.Eps)
	depth := x.Count()
	for a := 0; a < s.m; a++ {
		if st.bud.exhausted {
			return // unwind without building more child candidate sets
		}
		if x.Has(a) {
			continue
		}
		child := x.With(a)
		if !s.opts.DisableMemo {
			if _, seen := st.visited[child]; seen {
				st.stats.MemoHits++
				continue
			}
		}
		childCand := st.ar.intsAt(depth+1, len(cand))
		childSub := st.ar.floatsAt(depth+1, len(cand))
		for li, c := range cand {
			nd := s.accumulate(subD[li], st.attrD[c*s.m+a])
			if nd <= epsAcc {
				childCand = append(childCand, c)
				childSub = append(childSub, nd)
			}
		}
		s.recurse(st, child, childCand, childSub)
	}
}

// residual returns the aggregate of per-attribute distances over R\X for
// candidate i, in accumulator units. L2 (squared) and L1 aggregates
// subtract; L∞ does not decompose, so it is recomputed over R\X.
func (s *Saver) residual(st *saveState, sub float64, i int, x data.AttrMask) float64 {
	if s.sqNorm || s.rel.Schema.Norm == metric.L1 {
		r := st.fullD[i] - sub
		if r < 0 {
			return 0
		}
		return r
	}
	acc := 0.0
	for a := 0; a < s.m; a++ {
		if x.Has(a) {
			continue
		}
		acc = s.rel.Schema.Norm.Accumulate(acc, st.attrD[i*s.m+a])
	}
	return acc
}

// forEachStartMask enumerates every X with |X| = m−κ and runs the
// recursion from each, sharing the memo table so overlapping supersets are
// processed once (the O(m^{κ+1}·n) bound of §3.3). Enumeration iterates
// over the κ-sized complements C = R\X: under the decomposable norms the
// subspace aggregate is fullD minus the ≤ κ complement terms, an O(κ)
// step per candidate instead of O(m−κ).
func (s *Saver) forEachStartMask(st *saveState, rootCand []int, rootSub []float64) {
	m := s.m
	kappa := s.opts.Kappa
	compl := make([]int, kappa)
	for i := range compl {
		compl[i] = i
	}
	epsAcc := s.threshold(s.cons.Eps)
	decomposable := s.sqNorm || s.rel.Schema.Norm == metric.L1
	if decomposable {
		// A candidate can appear in some r_ε(t_o[X]) with |X| = m−κ only
		// if dropping its κ most expensive attributes brings the
		// aggregate under ε; filter the root set once instead of per
		// mask (most distant tuples fail for every complement). The
		// filter compacts rootCand in place — it only ever writes behind
		// its read cursor.
		before := len(rootCand)
		filtered := rootCand[:0]
		for _, c := range rootCand {
			if s.bestCaseSub(st, c, kappa) <= epsAcc {
				filtered = append(filtered, c)
			}
		}
		st.stats.KappaPrefiltered += int64(before - len(filtered))
		rootCand = filtered
	}
	// Per-mask lists live in the slab for depth m−κ (the start masks'
	// |X|), reused across the C(m, κ) masks; recurse only reads them and
	// filters what it keeps into deeper slabs.
	var cand []int
	var sub []float64
	for {
		if st.bud.stopped() {
			return
		}
		x := data.FullMask(m)
		for _, a := range compl {
			x = x.Without(a)
		}
		// Filter the root candidates down to r_ε(t_o[X]).
		cand = st.ar.intsAt(m-kappa, len(rootCand))
		sub = st.ar.floatsAt(m-kappa, len(rootCand))
		for _, c := range rootCand {
			var acc float64
			if decomposable {
				acc = st.fullD[c]
				for _, a := range compl {
					acc -= st.attrD[c*m+a]
				}
				if acc < 0 {
					acc = 0 // guard float cancellation
				}
			} else {
				for a := 0; a < m; a++ {
					if x.Has(a) {
						acc = s.accumulate(acc, st.attrD[c*m+a])
					}
				}
			}
			if acc <= epsAcc {
				cand = append(cand, c)
				sub = append(sub, acc)
			}
		}
		st.stats.KappaMasks++
		s.recurse(st, x, cand, sub)

		// Next complement combination (lexicographic).
		j := kappa - 1
		for j >= 0 && compl[j] == m-kappa+j {
			j--
		}
		if j < 0 {
			return
		}
		compl[j]++
		for l := j + 1; l < kappa; l++ {
			compl[l] = compl[l-1] + 1
		}
	}
}

// bestCaseSub returns the smallest achievable subspace aggregate for
// candidate c over any X with |X| = m−κ: the full aggregate minus the κ
// largest per-attribute terms (valid for the decomposable norms).
func (s *Saver) bestCaseSub(st *saveState, c, kappa int) float64 {
	// Track the κ largest attribute terms (κ is small: 1–3 typically).
	top := grow(st.ar.top, kappa)
	st.ar.top = top
	for i := range top {
		top[i] = 0
	}
	for a := 0; a < s.m; a++ {
		d := st.attrD[c*s.m+a]
		// Insert into the running top-κ (insertion into a tiny array).
		for k := 0; k < kappa; k++ {
			if d > top[k] {
				d, top[k] = top[k], d
			}
		}
	}
	acc := st.fullD[c]
	for _, d := range top {
		acc -= d
	}
	if acc < 0 {
		acc = 0
	}
	return acc
}

// quickselectKth returns the k-th smallest (1-based) full-space aggregate
// among the candidates, without fully sorting. The value scratch is arena
// scratch: quickselect finishes before the recursion continues, so one
// buffer serves every node.
func quickselectKth(st *saveState, cand []int, k int) float64 {
	vals := grow(st.ar.qsel, len(cand))
	st.ar.qsel = vals
	for ci, i := range cand {
		vals[ci] = st.fullD[i]
	}
	return quickselect(vals, k-1)
}

// quickselect returns the element with rank k (0-based) in ascending order,
// partially reordering vals in place.
func quickselect(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		p := partition(vals, lo, hi)
		switch {
		case k == p:
			return vals[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return vals[k]
}

func partition(vals []float64, lo, hi int) int {
	// Median-of-three pivot defends against sorted inputs.
	mid := (lo + hi) / 2
	if vals[mid] < vals[lo] {
		vals[mid], vals[lo] = vals[lo], vals[mid]
	}
	if vals[hi] < vals[lo] {
		vals[hi], vals[lo] = vals[lo], vals[hi]
	}
	if vals[hi] < vals[mid] {
		vals[hi], vals[mid] = vals[mid], vals[hi]
	}
	pivot := vals[mid]
	vals[mid], vals[hi] = vals[hi], vals[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if vals[j] < pivot {
			vals[i], vals[j] = vals[j], vals[i]
			i++
		}
	}
	vals[i], vals[hi] = vals[hi], vals[i]
	return i
}
