package neighbors

import (
	"math"

	"repro/internal/data"
)

// Grid is a uniform hash grid over numeric attributes with cell size equal
// to the query radius hint. A range query with radius ≤ cell visits at
// most the 3^m surrounding cells — the walk skips every cell whose box
// lies farther from the query than the radius (see visit) — so the grid
// suits m ≤ 6 (GPS and Flight have m = 3). Radii larger than the cell
// size widen the visited cube accordingly, so correctness never depends
// on the hint. The cube bound is
// valid for every supported norm: each per-attribute (scaled) distance is
// bounded by the L1/L2/L∞ aggregate, so a tuple within ε in aggregate is
// within ε on every axis.
//
// Cell keys are packed into a single uint64 when they fit: each
// dimension's coordinate, offset to its build-time minimum, occupies a
// fixed bit field sized to the build-time coordinate range. The packing
// is bijective over in-range coordinates — probes outside a dimension's
// range address cells that were empty at build time and are skipped
// before key construction, so two distinct cells can never alias one
// key (TestGridPackedKeyCollisionSafety pins this). Relations whose
// ranges do not fit in 64 bits, or with m > gridStackDims, keep the
// fixed-width string-key fallback.
type Grid struct {
	r    *data.Relation
	kern *data.Kernel
	// key owns the cell-keying layout (coordinates, packed bit fields,
	// string fallback, reach); cell/m/packed are hot-path copies of its
	// fields.
	key      *CellKeyer
	cell     float64
	m        int
	packed   bool
	cells    map[uint64][]int
	cellsStr map[string][]int
	// brute is the pre-built fallback for queries whose cell cube would
	// cost more than a scan; hoisted here so fallbacks allocate nothing.
	// It shares the grid's compiled kernel (and text caches).
	brute *Brute
	// dead, when non-nil, is the shared tombstone table of a Mutable
	// wrapper (also wired into brute); tombstoned rows stay in their
	// cells until the next merge and are skipped mid-scan.
	dead *deadSet
	// evals and fallbacks, when non-nil, count distance evaluations and
	// brute-scan degradations (see Counting).
	evals     *int64
	fallbacks *int64
	ks        kernHooks
}

// gridStackDims bounds the dimensionality for which a query walks the cell
// cube with stack-resident coordinate and key buffers; wider (unusual)
// grids fall back to per-query heap buffers and string keys.
const gridStackDims = 8

// NewGrid indexes the relation with the given cell size (clamped to a small
// positive value). It panics on non-numeric schemas, which would be a
// programming error — Build routes those to the VP-tree.
func NewGrid(r *data.Relation, cell float64) *Grid {
	for _, a := range r.Schema.Attrs {
		if a.Kind != data.Numeric {
			panic("neighbors: grid index requires an all-numeric schema")
		}
	}
	return newGridKernel(r, data.CompileKernel(r), cell)
}

// newGridKernel builds the grid reusing an already-compiled kernel (the
// Mutable wrapper keeps one kernel — and its text caches — alive across
// delta merges).
func newGridKernel(r *data.Relation, kern *data.Kernel, cell float64) *Grid {
	// The keyer's sizing pass doubles as the insertion pass's coordinate
	// source, so building through it costs no extra scan.
	key, coords := newCellKeyer(r, cell)
	g := &Grid{
		r: r, kern: kern, key: key,
		cell: key.cell, m: key.m, packed: key.packed,
		brute: newBruteKernel(r, kern),
	}
	n := r.N()
	if g.packed {
		g.cells = make(map[uint64][]int)
		for i := 0; i < n; i++ {
			key, _ := g.packKey(coords[i*g.m : (i+1)*g.m])
			g.cells[key] = append(g.cells[key], i)
		}
	} else {
		g.cellsStr = make(map[string][]int)
		kb := make([]byte, 0, g.m*8)
		for i := 0; i < n; i++ {
			kb = g.key.StringKey(kb[:0], coords[i*g.m:(i+1)*g.m])
			k := string(kb) // insertion must materialize the key string
			g.cellsStr[k] = append(g.cellsStr[k], i)
		}
	}
	return g
}

// packKey packs in-range cell coordinates into the bijective uint64 key.
// ok is false when any coordinate falls outside its build-time range —
// such a cell held no tuples at build time, so probes skip it (this
// range guard is what makes the packing collision-free).
func (g *Grid) packKey(c []int) (key uint64, ok bool) {
	return g.key.PackKey(c)
}

// insert adds physical row i — already appended to the relation and the
// kernel — directly to its cell, the grid's native absorption of
// single-tuple churn. It reports false when the row's coordinates fall
// outside the packed key's build-time ranges (such a cell cannot be
// addressed without re-laying the bit fields); the caller then parks the
// row in its delta buffer instead. On success the brute fallback's scan
// bound is extended so degraded queries cover the row too.
//
// Only rows contiguous with the fallback's scan bound are accepted: once
// any row has been refused (i > brute.n would leave a gap owned by the
// delta buffer), subsequent rows are refused as well, otherwise a
// fallback scan and the delta scan would both report the gap rows.
func (g *Grid) insert(i int) bool {
	if i != g.brute.n {
		return false
	}
	t := g.r.Tuples[i]
	if g.packed {
		var cA [gridStackDims]int
		c := cA[:g.m]
		for a := 0; a < g.m; a++ {
			c[a] = g.coord(t, a)
		}
		key, ok := g.packKey(c)
		if !ok {
			return false
		}
		g.cells[key] = append(g.cells[key], i)
	} else {
		c := make([]int, g.m)
		for a := 0; a < g.m; a++ {
			c[a] = g.coord(t, a)
		}
		kb := g.key.StringKey(make([]byte, 0, g.m*8), c)
		g.cellsStr[string(kb)] = append(g.cellsStr[string(kb)], i)
	}
	g.brute.n = i + 1
	return true
}

// Rel returns the indexed relation.
func (g *Grid) Rel() *data.Relation { return g.r }

// Kernel implements Kerneled.
func (g *Grid) Kernel() *data.Kernel { return g.kern }

// coord returns the scaled grid coordinate of attribute a of tuple t; the
// grid must bucket by the same scaled units the distance uses.
func (g *Grid) coord(t data.Tuple, a int) int { return g.key.Coord(t, a) }

// gapSlack is the relative slack of the cell-gap lower bound (see
// visit): 2^-40, four thousand times the unit roundoff, so it covers the
// few roundings in v/scale, v/cell, c·cell and the kernel's own
// per-attribute distance with a wide margin while giving up almost
// nothing of the pruning.
const gapSlack = 0x1p-40

// axisGap returns a lower bound, in scaled units, on the distance along
// one axis from a query at scaled value x (in cell c) to any tuple stored
// in cell c+off. The exact gap is the distance from x to the facing cell
// face; slack absorbs the rounding of the bucketing (it must grow with
// |x|/cell, not only with ε: far from the origin a tuple can land one
// cell over by an ulp of its coordinate), and the final shrink absorbs
// the rounding of the kernel's distance and of the aggregate.
func (g *Grid) axisGap(x float64, c, off int, slack float64) float64 {
	var gap float64
	switch {
	case off > 0:
		gap = float64(c+off)*g.cell - x
	case off < 0:
		gap = x - float64(c+off+1)*g.cell
	default:
		return 0
	}
	gap = (gap - slack) * (1 - gapSlack)
	if !(gap > 0) { // also NaN coordinates: no pruning
		return 0
	}
	return gap
}

// visit walks the cells within reach cells of q's cell in each dimension
// and calls fn with the tuple indexes stored there. fn returns false to
// stop early.
//
// When bound is non-nil, *bound is an accumulator-unit radius (a
// data.LEBound) and the walk skips every cell whose box lies farther from
// q than it: per-axis gaps from q's position inside its own cell,
// aggregated with the schema norm, bound the distance from q to anything
// in the cell from below. Each axis's offset range is first shrunk to the
// offsets whose gap alone fits, then every remaining cell is checked
// against the aggregate. *bound is re-read per cell, so a k-NN walk can
// tighten it as its heap fills. Skipped cells hold no tuple within the
// bound, and the surviving cells are visited in the unpruned odometer
// order, so range results come out the same slice in the same order.
// With selfFirst, q's own cell is visited before the odometer (which then
// skips it): counts and k-NN answers do not depend on visit order, and
// the densest cell first lets a capped count or a k-heap settle early.
//
// The coordinate odometer and the key buffers live on the stack (for
// m ≤ gridStackDims) and are reused across cells, so the walk itself
// performs zero heap allocations: packed probes are a single uint64 map
// lookup, string-fallback probes use the alloc-free string(b) lookup
// form.
func (g *Grid) visit(q data.Tuple, reach int, bound *float64, selfFirst bool, fn func(idx []int) bool) {
	var baseA, offA, cellA, loA, hiA [gridStackDims]int
	var xA, slackA [gridStackDims]float64
	var keyA [gridStackDims * 8]byte
	var base, off, cc, lo, hi []int
	var x, slack []float64
	var kb []byte
	if g.m <= gridStackDims {
		base, off, cc, lo, hi, kb = baseA[:g.m], offA[:g.m], cellA[:g.m], loA[:g.m], hiA[:g.m], keyA[:0]
		x, slack = xA[:g.m], slackA[:g.m]
	} else {
		base, off, cc, lo, hi = make([]int, g.m), make([]int, g.m), make([]int, g.m), make([]int, g.m), make([]int, g.m)
		x, slack = make([]float64, g.m), make([]float64, g.m)
		kb = make([]byte, 0, g.m*8)
	}
	norm := g.kern.Norm()
	for a := 0; a < g.m; a++ {
		x[a] = g.key.scaled(q, a)
		base[a] = g.coord(q, a)
		lo[a], hi[a] = -reach, reach
		if bound != nil {
			c := base[a]
			if c < 0 {
				c = -c
			}
			slack[a] = gapSlack * (math.Abs(x[a]) + float64(c+reach+1)*g.cell)
			for lo[a] < 0 && norm.Accumulate(0, g.axisGap(x[a], base[a], lo[a], slack[a])) > *bound {
				lo[a]++
			}
			for hi[a] > 0 && norm.Accumulate(0, g.axisGap(x[a], base[a], hi[a], slack[a])) > *bound {
				hi[a]--
			}
		}
		off[a] = lo[a]
	}
	if selfFirst {
		if idx, ok := g.cellAt(base, kb); ok && !fn(idx) {
			return
		}
	}
	for {
		probe := true
		if selfFirst {
			probe = false
			for a := 0; a < g.m; a++ {
				if off[a] != 0 {
					probe = true
					break
				}
			}
		}
		if probe && bound != nil {
			acc := 0.0
			for a := 0; a < g.m; a++ {
				acc = norm.Accumulate(acc, g.axisGap(x[a], base[a], off[a], slack[a]))
			}
			probe = !(acc > *bound)
		}
		if probe {
			for a := 0; a < g.m; a++ {
				cc[a] = base[a] + off[a]
			}
			if idx, ok := g.cellAt(cc, kb); ok && !fn(idx) {
				return
			}
		}
		// Odometer increment over off ∈ [lo, hi]^m.
		a := 0
		for ; a < g.m; a++ {
			off[a]++
			if off[a] <= hi[a] {
				break
			}
			off[a] = lo[a]
		}
		if a == g.m {
			return
		}
	}
}

// cellAt returns the tuple indexes stored in the cell at coordinates c;
// kb is scratch for the string-fallback key.
func (g *Grid) cellAt(c []int, kb []byte) ([]int, bool) {
	if g.packed {
		key, ok := g.packKey(c)
		if !ok {
			return nil, false
		}
		idx, ok := g.cells[key]
		return idx, ok
	}
	idx, ok := g.cellsStr[string(g.key.StringKey(kb[:0], c))]
	return idx, ok
}

// reach converts a query radius into the cell reach of the visited cube.
func (g *Grid) reach(eps float64) int { return g.key.Reach(eps) }

// tooWide reports whether a query radius spans so many cells that the
// odometer walk would visit more cells than a brute scan costs.
func (g *Grid) tooWide(reach int) bool {
	cells := 1.0
	for a := 0; a < g.m; a++ {
		cells *= float64(2*reach + 1)
		if cells > float64(g.r.N())+1 {
			return true
		}
	}
	return false
}

// Within implements Index.
func (g *Grid) Within(q data.Tuple, eps float64, skip int) []Neighbor {
	return g.WithinAppend(nil, q, eps, skip)
}

// WithinAppend implements WithinAppender.
func (g *Grid) WithinAppend(dst []Neighbor, q data.Tuple, eps float64, skip int) []Neighbor {
	if g.tooWide(g.reach(eps)) {
		count(g.fallbacks)
		return g.brute.WithinAppend(dst, q, eps, skip)
	}
	kq := g.kern.Bind(q)
	defer g.ks.flush(kq)
	bound := g.kern.LEBound(eps)
	g.visit(q, g.reach(eps), &bound, false, func(idx []int) bool {
		for _, i := range idx {
			if i == skip || g.dead.has(i) {
				continue
			}
			count(g.evals)
			if d, within := kq.DistToLE(i, bound); within {
				dst = append(dst, Neighbor{Idx: i, Dist: d})
			}
		}
		return true
	})
	return dst
}

// CountWithin implements Index.
func (g *Grid) CountWithin(q data.Tuple, eps float64, skip, cap int) int {
	if g.tooWide(g.reach(eps)) {
		count(g.fallbacks)
		return g.brute.CountWithin(q, eps, skip, cap)
	}
	kq := g.kern.Bind(q)
	defer g.ks.flush(kq)
	bound := g.kern.LEBound(eps)
	c := 0
	g.visit(q, g.reach(eps), &bound, cap > 0, func(idx []int) bool {
		for _, i := range idx {
			if i == skip || g.dead.has(i) {
				continue
			}
			count(g.evals)
			if _, within := kq.DistToLE(i, bound); within {
				c++
				if cap > 0 && c >= cap {
					return false
				}
			}
		}
		return true
	})
	return c
}

// KNNWithinAppend implements KNNWithinAppender with one gap-pruned walk
// of the ε cube: q's own cell first, then the rest, each cell skipped
// once its gap lower bound exceeds the current k-th distance. The heap's
// root tightens the DistToLE bound as it fills, exactly like the brute
// k-NN scan, and the heap lives in dst's spare capacity.
func (g *Grid) KNNWithinAppend(dst []Neighbor, q data.Tuple, k int, eps float64, skip int) []Neighbor {
	if k <= 0 {
		return dst
	}
	reach := g.reach(eps)
	if g.tooWide(reach) {
		count(g.fallbacks)
		return g.brute.KNNWithinAppend(dst, q, k, eps, skip)
	}
	kq := g.kern.Bind(q)
	defer g.ks.flush(kq)
	h := maxHeap{k: k, ns: dst[len(dst):len(dst)]}
	radius, bound := eps, g.kern.LEBound(eps)
	g.visit(q, reach, &bound, true, func(idx []int) bool {
		for _, i := range idx {
			if i == skip || g.dead.has(i) {
				continue
			}
			count(g.evals)
			d, within := kq.DistToLE(i, bound)
			if !within {
				continue
			}
			h.offer(Neighbor{Idx: i, Dist: d})
			if bd, full := h.bound(); full && bd != radius {
				radius = bd
				bound = g.kern.LEBound(bd)
			}
		}
		return true
	})
	return h.appendSorted(dst)
}

// KNN implements Index by expanding the search radius geometrically until k
// results fit inside it, which keeps the visited cube small for clustered
// data; each round is one bounded k-NN walk (KNNWithinAppend). The rounds are capped by the tooWide cell-count bound: once the
// cube would visit more cells than the relation has tuples — after at most
// O(log n / m) doublings even on pathological distributions — the query
// degrades to the pre-built Brute scan instead of widening further.
func (g *Grid) KNN(q data.Tuple, k, skip int) []Neighbor {
	if k <= 0 {
		return nil
	}
	n := g.r.N()
	if skip >= 0 && skip < n {
		n--
	}
	if k > n {
		k = n
	}
	if k == 0 {
		return nil
	}
	nn := make([]Neighbor, 0, k)
	for radius := g.cell; ; radius *= 2 {
		if g.tooWide(g.reach(radius)) {
			count(g.fallbacks)
			return g.brute.KNN(q, k, skip)
		}
		// Once k tuples lie within the radius, they are the k nearest
		// overall: every tuple outside is farther, and every tie at the
		// k-th distance is inside the radius too.
		if nn = g.KNNWithinAppend(nn[:0], q, k, radius, skip); len(nn) >= k {
			return nn
		}
	}
}
