package neighbors

import (
	"math"
	"sort"

	"repro/internal/data"
)

// KDTree is a balanced k-d tree over numeric attributes — the classic
// low-to-mid-dimensional index complementing the grid (fixed cell size)
// and the VP-tree (general metric). Splitting cycles through the widest-
// spread attribute at each level; leaves hold small buckets.
//
// Build reads coordinates from the compiled kernel's flat columns; leaf
// scans bind the query once and abandon a pair as soon as its partial
// aggregate exceeds the query radius (or the current k-th distance).
type KDTree struct {
	r      *data.Relation
	kern   *data.Kernel
	m      int
	scales []float64
	// cols aliases the kernel's raw numeric columns (read-only).
	cols  [][]float64
	nodes []kdNode
	// points holds tuple indexes, partitioned in place during the build
	// so every node owns a contiguous range.
	points []int
	root   int
	// dead, when non-nil, is the shared tombstone table of a Mutable
	// wrapper; tombstoned rows stay in the tree until the next merge and
	// are skipped mid-scan.
	dead *deadSet
	// evals, when non-nil, counts query-time distance evaluations (see
	// Counting).
	evals *int64
	ks    kernHooks
}

type kdNode struct {
	// attr < 0 marks a leaf holding points[lo:hi].
	attr        int
	split       float64
	left, right int
	lo, hi      int
}

const kdLeafSize = 16

// NewKDTree builds the tree; it panics on non-numeric schemas (route
// those to the VP-tree), matching the grid's contract.
func NewKDTree(r *data.Relation) *KDTree {
	return NewKDTreeKernel(r, data.CompileKernel(r))
}

// NewKDTreeKernel is NewKDTree reusing kern, an already-compiled kernel
// of r (the Mutable wrapper keeps one kernel alive across delta merges;
// the saver's attribute-block indexes use data.Kernel.Project views).
func NewKDTreeKernel(r *data.Relation, kern *data.Kernel) *KDTree {
	for _, a := range r.Schema.Attrs {
		if a.Kind != data.Numeric {
			panic("neighbors: kd-tree requires an all-numeric schema")
		}
	}
	m := r.Schema.M()
	t := &KDTree{r: r, kern: kern, m: m, scales: make([]float64, m), root: -1}
	t.cols = make([][]float64, m)
	for a := 0; a < m; a++ {
		if s := r.Schema.Attrs[a].Scale; s > 0 {
			t.scales[a] = 1 / s
		} else {
			t.scales[a] = 1
		}
		t.cols[a] = t.kern.NumColumn(a)
	}
	if r.N() == 0 {
		return t
	}
	t.points = make([]int, r.N())
	for i := range t.points {
		t.points[i] = i
	}
	t.root = t.build(0, r.N())
	return t
}

func (t *KDTree) coord(i, a int) float64 {
	return t.cols[a][i] * t.scales[a]
}

func (t *KDTree) build(lo, hi int) int {
	id := len(t.nodes)
	if hi-lo <= kdLeafSize {
		t.nodes = append(t.nodes, kdNode{attr: -1, lo: lo, hi: hi, left: -1, right: -1})
		return id
	}
	// Split on the widest-spread attribute.
	best, bestSpread := 0, -1.0
	for a := 0; a < t.m; a++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, i := range t.points[lo:hi] {
			v := t.coord(i, a)
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if s := mx - mn; s > bestSpread {
			best, bestSpread = a, s
		}
	}
	if bestSpread == 0 {
		// All points identical on every attribute: keep as a leaf.
		t.nodes = append(t.nodes, kdNode{attr: -1, lo: lo, hi: hi, left: -1, right: -1})
		return id
	}
	seg := t.points[lo:hi]
	sort.Slice(seg, func(x, y int) bool { return t.coord(seg[x], best) < t.coord(seg[y], best) })
	mid := lo + (hi-lo)/2
	// Keep equal keys on one side so the split value truly separates.
	for mid > lo+1 && t.coord(t.points[mid], best) == t.coord(t.points[mid-1], best) {
		mid--
	}
	split := t.coord(t.points[mid], best)
	t.nodes = append(t.nodes, kdNode{attr: best})
	l := t.build(lo, mid)
	r := t.build(mid, hi)
	n := &t.nodes[id]
	n.split = split
	n.left = l
	n.right = r
	return id
}

// Rel returns the indexed relation.
func (t *KDTree) Rel() *data.Relation { return t.r }

// Kernel implements Kerneled.
func (t *KDTree) Kernel() *data.Kernel { return t.kern }

// Within implements Index.
func (t *KDTree) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return t.WithinAppend(nil, q, eps, skip)
}

// WithinAppend implements WithinAppender; the closure-free recursion keeps
// a caller-reused dst allocation-free.
func (t *KDTree) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	if t.root < 0 {
		return dst
	}
	kq := t.kern.Bind(q)
	defer t.ks.flush(kq)
	return t.rangeAppend(t.root, kq, q, eps, t.kern.LEBound(eps), skip, dst)
}

// CountWithin implements Index.
func (t *KDTree) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	if t.root < 0 {
		return 0
	}
	kq := t.kern.Bind(q)
	defer t.ks.flush(kq)
	c, _ := t.rangeCount(t.root, kq, q, eps, t.kern.LEBound(eps), skip, cap, 0)
	return c
}

// rangeAppend appends every tuple within eps of the bound query to dst;
// leb is the precomputed accumulator bound for the ε early exit.
func (t *KDTree) rangeAppend(id int, kq *data.KernelQuery, q data.Tuple, eps, leb float64, skip int, dst []Neighbor) []Neighbor {
	n := &t.nodes[id]
	if n.attr < 0 {
		for _, i := range t.points[n.lo:n.hi] {
			if i == skip || t.dead.has(i) {
				continue
			}
			count(t.evals)
			if d, within := kq.DistToLE(i, leb); within {
				dst = append(dst, Neighbor{Idx: i, Dist: d})
			}
		}
		return dst
	}
	qa := q[n.attr].Num * t.scales[n.attr]
	// The search ball can only reach across the split plane within eps
	// (L2/L1 per-attribute distances are bounded below by the coordinate
	// gap; L∞ likewise).
	if qa-eps < n.split {
		dst = t.rangeAppend(n.left, kq, q, eps, leb, skip, dst)
	}
	if qa+eps >= n.split {
		dst = t.rangeAppend(n.right, kq, q, eps, leb, skip, dst)
	}
	return dst
}

// rangeCount counts tuples within eps of the bound query, aborting once
// the running count c reaches cap (cap ≤ 0 disables the early exit);
// more=false propagates the abort.
func (t *KDTree) rangeCount(id int, kq *data.KernelQuery, q data.Tuple, eps, leb float64, skip, cap, c int) (int, bool) {
	n := &t.nodes[id]
	if n.attr < 0 {
		for _, i := range t.points[n.lo:n.hi] {
			if i == skip || t.dead.has(i) {
				continue
			}
			count(t.evals)
			if _, within := kq.DistToLE(i, leb); within {
				c++
				if cap > 0 && c >= cap {
					return c, false
				}
			}
		}
		return c, true
	}
	qa := q[n.attr].Num * t.scales[n.attr]
	more := true
	if qa-eps < n.split {
		if c, more = t.rangeCount(n.left, kq, q, eps, leb, skip, cap, c); !more {
			return c, false
		}
	}
	if qa+eps >= n.split {
		if c, more = t.rangeCount(n.right, kq, q, eps, leb, skip, cap, c); !more {
			return c, false
		}
	}
	return c, true
}

// KNN implements Index.
func (t *KDTree) KNN(q data.Tuple, k, skip int) []Neighbor {
	if k <= 0 || t.root < 0 {
		return nil
	}
	kq := t.kern.Bind(q)
	defer t.ks.flush(kq)
	h := newMaxHeap(k)
	s := kdKNN{kq: kq, h: h, bound: math.Inf(1), leb: math.Inf(1)}
	t.knnSearch(t.root, q, skip, &s)
	return h.sorted()
}

// kdKNN carries the heap and its cached early-exit bound through the k-NN
// descent; leb is recomputed only when the k-th distance changes.
type kdKNN struct {
	kq         *data.KernelQuery
	h          *maxHeap
	bound, leb float64
}

func (t *KDTree) knnSearch(id int, q data.Tuple, skip int, s *kdKNN) {
	n := &t.nodes[id]
	if n.attr < 0 {
		for _, i := range t.points[n.lo:n.hi] {
			if i == skip || t.dead.has(i) {
				continue
			}
			count(t.evals)
			d, within := s.kq.DistToLE(i, s.leb)
			if !within {
				continue
			}
			s.h.offer(Neighbor{Idx: i, Dist: d})
			if bd, full := s.h.bound(); full && bd != s.bound {
				s.bound = bd
				s.leb = t.kern.LEBound(bd)
			}
		}
		return
	}
	qa := q[n.attr].Num * t.scales[n.attr]
	near, far := n.left, n.right
	if qa >= n.split {
		near, far = n.right, n.left
	}
	t.knnSearch(near, q, skip, s)
	bound, full := s.h.bound()
	if !full || math.Abs(qa-n.split) <= bound {
		t.knnSearch(far, q, skip, s)
	}
}
