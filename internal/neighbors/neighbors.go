// Package neighbors provides ε-neighbor and k-nearest-neighbor search over
// relations (Formula 4 of the paper): a brute-force scan that works for any
// schema, a grid index for low-dimensional numeric data (the GPS/Flight
// style datasets), and a vantage-point tree that exploits the triangle
// inequality of the distance functions (§2.1.1) for any metric schema,
// including textual edit distances.
package neighbors

import (
	"math"
	"slices"

	"repro/internal/data"
)

// Neighbor is one search result: a tuple index in the indexed relation and
// its distance to the query.
type Neighbor struct {
	Idx  int
	Dist float64
}

// Index answers ε-range and k-NN queries against a fixed relation.
// The skip argument excludes one tuple index from the results (pass -1 to
// keep all); the paper's |r_ε(t)| never counts t itself.
type Index interface {
	// Within returns all tuples with Δ(q, t) ≤ eps, in arbitrary order.
	Within(q data.Tuple, eps float64, skip int) []Neighbor
	// CountWithin counts tuples with Δ(q, t) ≤ eps, stopping early once
	// the count reaches cap (cap ≤ 0 disables the early exit).
	CountWithin(q data.Tuple, eps float64, skip, cap int) int
	// KNN returns the k nearest tuples sorted by ascending distance
	// (fewer if the relation is smaller).
	KNN(q data.Tuple, k, skip int) []Neighbor
	// Rel returns the indexed relation.
	Rel() *data.Relation
}

// CountWithinAtLeast reports whether q has at least k ε-neighbors in idx
// (excluding skip). Callers that only need the boolean — "count ≥ η" —
// ride CountWithin's cap early-exit: the scan stops at the k-th hit
// instead of counting the whole ball. k ≤ 0 is vacuously true.
func CountWithinAtLeast(idx Index, q data.Tuple, eps float64, skip, k int) bool {
	if k <= 0 {
		return true
	}
	return idx.CountWithin(q, eps, skip, k) >= k
}

// WithinAppender is the optional extension of Index for allocation-
// sensitive callers: WithinAppend appends the ε-neighbors to dst (which
// may be nil or a reused buffer truncated by the caller) instead of
// allocating a fresh result slice per query. All four concrete indexes
// and the counting/context views implement it; DBSCAN's seed expansion
// depends on it for its near-zero steady-state allocation budget.
type WithinAppender interface {
	WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor
}

// WithinBuf routes a range query through WithinAppend when the index
// supports it, falling back to Within plus a copy into dst otherwise.
// The result always starts at dst[:0], so callers can reuse one scratch
// buffer across queries.
func WithinBuf(idx Index, dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	return withinAppend(idx, dst[:0], q, eps, skip)
}

// withinAppend appends idx's ε-neighbors to dst, using the index's own
// WithinAppend when available (the counting/context views forward
// through here so buffers survive the wrapping).
func withinAppend(idx Index, dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	if wa, ok := idx.(WithinAppender); ok {
		return wa.WithinAppend(dst, q, eps, skip)
	}
	return append(dst, idx.Within(q, eps, skip)...)
}

// KNNWithinAppender is the optional extension of Index for bounded k-NN:
// KNNWithinAppend appends to dst the k nearest tuples among those within
// eps of q, sorted by (distance, index) — exactly KNN(q, k, skip)
// truncated at eps, fewer than k when the ε-ball is smaller. Callers that
// only need "the k-th neighbor, if it is within ε" (the saver's δ_η pass)
// get an answer that never looks past ε. The grid and brute scan
// implement it natively; the counting and context views forward it.
type KNNWithinAppender interface {
	KNNWithinAppend(dst []Neighbor, q data.Tuple, k int, eps float64, skip int) []Neighbor
}

// KNNWithin routes a bounded k-NN query through KNNWithinAppend when the
// index supports it, falling back to KNN clipped at eps otherwise. The
// result always starts at dst[:0], so callers can reuse one scratch
// buffer across queries.
func KNNWithin(idx Index, dst []Neighbor, q data.Tuple, k int, eps float64, skip int) []Neighbor {
	return knnWithinAppend(idx, dst[:0], q, k, eps, skip)
}

// knnWithinAppend appends idx's bounded k-NN answer to dst (the views
// forward through here so buffers survive the wrapping).
func knnWithinAppend(idx Index, dst []Neighbor, q data.Tuple, k int, eps float64, skip int) []Neighbor {
	if b, ok := idx.(KNNWithinAppender); ok {
		return b.KNNWithinAppend(dst, q, k, eps, skip)
	}
	for _, nb := range idx.KNN(q, k, skip) {
		if !(nb.Dist <= eps) {
			break
		}
		dst = append(dst, nb)
	}
	return dst
}

// Kerneled is implemented by indexes backed by a compiled distance
// kernel (see data.Kernel). KernelOf unwraps views to reach it.
type Kerneled interface {
	Kernel() *data.Kernel
}

// KernelOf returns the compiled kernel behind idx, looking through the
// counting and context views, or nil when the index is not
// kernel-backed. Callers like the saver's bound computations use it to
// share one kernel — and its text-distance cache — with the index built
// over the same relation.
func KernelOf(idx Index) *data.Kernel {
	for {
		switch t := idx.(type) {
		case Kerneled:
			return t.Kernel()
		case *counting:
			idx = t.idx
		case *ctxIndex:
			idx = t.idx
		default:
			return nil
		}
	}
}

// Build picks an index for the relation: a grid when the schema is fully
// numeric with at most six attributes (range queries touch 3^m cells), a
// VP-tree otherwise. eps hints the grid cell size; it must be > 0 for the
// grid path. The grid serves every supported norm, not only the L2
// default: each per-attribute (scaled) distance is bounded by the L1, L2
// and L∞ aggregates alike, so the grid's cell-cube reach bound stays valid
// for any of them.
func Build(r *data.Relation, eps float64) Index {
	numeric := true
	for _, a := range r.Schema.Attrs {
		if a.Kind != data.Numeric {
			numeric = false
			break
		}
	}
	if numeric && r.Schema.M() <= 6 && eps > 0 {
		return NewGrid(r, eps)
	}
	if r.N() >= 64 {
		return NewVPTree(r, 1)
	}
	return NewBrute(r)
}

// Brute is the exhaustive-scan index; it is the correctness reference for
// the other implementations. Scans run over the compiled distance kernel:
// queries bind once, rows are read from flat columns, and range scans
// abandon a pair as soon as its partial aggregate exceeds ε.
type Brute struct {
	r    *data.Relation
	kern *data.Kernel
	// n freezes the scanned row count at build time: under the mutable-
	// session discipline the relation grows append-only, and rows past n
	// belong to the Mutable wrapper's delta buffer until a merge (the
	// grid's native inserts extend n instead, see Grid.insert).
	n int
	// dead, when non-nil, is the shared tombstone table of a Mutable
	// wrapper; tombstoned rows are skipped mid-scan so counts, ranges
	// and k-NN results never see deleted tuples.
	dead *deadSet
	// evals, when non-nil, counts distance evaluations (see Counting):
	// one per pair considered, whether or not the pair early-exited.
	evals *int64
	ks    kernHooks
}

// NewBrute indexes r, compiling a distance kernel over it.
func NewBrute(r *data.Relation) *Brute { return newBruteKernel(r, data.CompileKernel(r)) }

// newBruteKernel indexes r reusing an already-compiled kernel (the grid
// shares one kernel between its cells and its brute fallback; the
// Mutable wrapper shares one kernel across merges).
func newBruteKernel(r *data.Relation, k *data.Kernel) *Brute {
	return &Brute{r: r, kern: k, n: r.N()}
}

// Rel returns the indexed relation.
func (b *Brute) Rel() *data.Relation { return b.r }

// Kernel implements Kerneled.
func (b *Brute) Kernel() *data.Kernel { return b.kern }

// Within implements Index.
func (b *Brute) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return b.WithinAppend(nil, q, eps, skip)
}

// WithinAppend implements WithinAppender.
func (b *Brute) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	kq := b.kern.Bind(q)
	defer b.ks.flush(kq)
	bound := b.kern.LEBound(eps)
	for i := 0; i < b.n; i++ {
		if i == skip || b.dead.has(i) {
			continue
		}
		count(b.evals)
		if d, within := kq.DistToLE(i, bound); within {
			dst = append(dst, Neighbor{Idx: i, Dist: d})
		}
	}
	return dst
}

// CountWithin implements Index.
func (b *Brute) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	kq := b.kern.Bind(q)
	defer b.ks.flush(kq)
	bound := b.kern.LEBound(eps)
	c := 0
	for i := 0; i < b.n; i++ {
		if i == skip || b.dead.has(i) {
			continue
		}
		count(b.evals)
		if _, within := kq.DistToLE(i, bound); within {
			c++
			if cap > 0 && c >= cap {
				return c
			}
		}
	}
	return c
}

// KNN implements Index. Once the heap is full, its (distance, index)
// bound doubles as an early-exit radius: a pair whose partial aggregate
// exceeds the current k-th distance cannot enter the heap, so the scan
// abandons it. The inclusive DistToLE test keeps exact ties, which the
// heap then resolves by the index tie-break.
func (b *Brute) KNN(q data.Tuple, k, skip int) []Neighbor {
	if k <= 0 {
		return nil
	}
	return b.KNNWithinAppend(make([]Neighbor, 0, k), q, k, math.Inf(1), skip)
}

// KNNWithinAppend implements KNNWithinAppender: the KNN scan with eps as
// its initial early-exit radius.
func (b *Brute) KNNWithinAppend(dst []Neighbor, q data.Tuple, k int, eps float64, skip int) []Neighbor {
	if k <= 0 {
		return dst
	}
	kq := b.kern.Bind(q)
	defer b.ks.flush(kq)
	h := maxHeap{k: k, ns: dst[len(dst):len(dst)]}
	bound, leb := eps, b.kern.LEBound(eps)
	for i := 0; i < b.n; i++ {
		if i == skip || b.dead.has(i) {
			continue
		}
		count(b.evals)
		d, within := kq.DistToLE(i, leb)
		if !within {
			continue
		}
		h.offer(Neighbor{Idx: i, Dist: d})
		if bd, full := h.bound(); full && bd != bound {
			bound = bd
			leb = b.kern.LEBound(bound)
		}
	}
	return h.appendSorted(dst)
}

// maxHeap keeps the k smallest neighbors seen so far under the total
// (distance, index) order, with the current worst at the root.
//
// The index tie-break is a correctness contract, not cosmetics: when
// several tuples sit exactly at the k-th distance, a heap ordered by
// distance alone keeps whichever it happened to see first, so KNN results
// would depend on scan order and differ between Brute, Grid, VP-tree and
// k-d tree. Under the total order every index returns the identical
// neighbor list — the lowest-indexed tuples among the tied — which also
// makes KNN(k) a strict prefix of KNN(k') for k' > k.
type maxHeap struct {
	k  int
	ns []Neighbor
}

func newMaxHeap(k int) *maxHeap { return &maxHeap{k: k, ns: make([]Neighbor, 0, k)} }

// worse reports whether a ranks strictly after b in the (distance, index)
// total order — i.e. a is a worse neighbor than b.
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Idx > b.Idx
}

// bound returns the current k-th distance, or +Inf semantics via ok=false
// when fewer than k neighbors are held. Tree descents prune with
// non-strict comparisons against the bound, so equal-distance subtrees
// are still visited and can win the index tie-break.
func (h *maxHeap) bound() (float64, bool) {
	if len(h.ns) < h.k {
		return 0, false
	}
	return h.ns[0].Dist, true
}

func (h *maxHeap) offer(n Neighbor) {
	if len(h.ns) < h.k {
		h.ns = append(h.ns, n)
		h.up(len(h.ns) - 1)
		return
	}
	if !worse(h.ns[0], n) {
		return
	}
	h.ns[0] = n
	h.down(0)
}

func (h *maxHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.ns[i], h.ns[p]) {
			break
		}
		h.ns[p], h.ns[i] = h.ns[i], h.ns[p]
		i = p
	}
}

func (h *maxHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.ns) && worse(h.ns[l], h.ns[big]) {
			big = l
		}
		if r < len(h.ns) && worse(h.ns[r], h.ns[big]) {
			big = r
		}
		if big == i {
			return
		}
		h.ns[i], h.ns[big] = h.ns[big], h.ns[i]
		i = big
	}
}

func (h *maxHeap) sorted() []Neighbor {
	return h.appendSorted(nil)
}

// appendSorted sorts the heap's contents by (distance, index) in place
// and appends them to dst. A heap whose storage was carved from dst's
// spare capacity (ns = dst[len(dst):len(dst)]) is sorted where it lies,
// so the append copies nothing and allocates nothing.
func (h *maxHeap) appendSorted(dst []Neighbor) []Neighbor {
	slices.SortFunc(h.ns, func(a, b Neighbor) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	return append(dst, h.ns...)
}
