package neighbors

import (
	"math"
	"math/bits"

	"repro/internal/data"
)

// CellKeyer is the grid's cell-keying kernel: the scaled coordinate
// function, the bijective uint64 key packing with its build-time range
// guard, and the fixed-width string fallback for relations the packed
// layout cannot address. The grid buckets at build time and probes at
// query time through this one path, so the two can never disagree on
// which cell a tuple lands in.
//
// A CellKeyer is immutable after construction and safe for concurrent use.
type CellKeyer struct {
	rel  *data.Relation
	cell float64
	m    int
	// packed selects the uint64-key layout; minC/maxC/shift describe the
	// per-dimension bit fields sized to the build-time coordinate ranges.
	packed bool
	minC   []int
	maxC   []int
	shift  []uint
}

// newCellKeyer sizes the key layout in one pass over the coordinates and
// returns that per-row coordinate buffer (row i's coordinates occupy
// coords[i*m : (i+1)*m]) so the grid's constructor can reuse it for
// insertion instead of paying a second pass. The caller must have verified
// the schema is all-numeric.
func newCellKeyer(r *data.Relation, cell float64) (*CellKeyer, []int) {
	if cell <= 0 {
		cell = 1
	}
	k := &CellKeyer{rel: r, cell: cell, m: r.Schema.M()}
	n := r.N()
	coords := make([]int, n*k.m)
	k.minC, k.maxC = make([]int, k.m), make([]int, k.m)
	for a := 0; a < k.m; a++ {
		k.minC[a], k.maxC[a] = 0, -1 // empty range until a tuple lands
	}
	for i, t := range r.Tuples {
		for a := 0; a < k.m; a++ {
			c := k.Coord(t, a)
			coords[i*k.m+a] = c
			if i == 0 || c < k.minC[a] {
				k.minC[a] = c
			}
			if i == 0 || c > k.maxC[a] {
				k.maxC[a] = c
			}
		}
	}
	k.packed = k.m <= gridStackDims
	if k.packed {
		k.shift = make([]uint, k.m)
		total := uint(0)
		for a := 0; a < k.m && k.packed; a++ {
			k.shift[a] = total
			span := uint64(0)
			if n > 0 {
				span = uint64(k.maxC[a] - k.minC[a])
			}
			total += uint(bits.Len64(span))
			if total > 64 {
				k.packed = false
			}
		}
	}
	return k, coords
}

// Coord returns the scaled grid coordinate of attribute a of tuple t; cells
// must bucket by the same scaled units the distance kernel uses.
func (k *CellKeyer) Coord(t data.Tuple, a int) int {
	return int(math.Floor(k.scaled(t, a) / k.cell))
}

// scaled returns attribute a of t in the scaled units the distance kernel
// divides by, before bucketing.
func (k *CellKeyer) scaled(t data.Tuple, a int) float64 {
	v := t[a].Num
	if s := k.rel.Schema.Attrs[a].Scale; s > 0 {
		v /= s
	}
	return v
}

// PackKey packs in-range cell coordinates into the bijective uint64 key.
// ok is false when any coordinate falls outside its build-time range (or
// the layout is not packed) — such a cell held no tuples at build time, so
// index probes skip it; this range guard is what makes the packing
// collision-free.
func (k *CellKeyer) PackKey(c []int) (key uint64, ok bool) {
	if !k.packed {
		return 0, false
	}
	for a := 0; a < k.m; a++ {
		if c[a] < k.minC[a] || c[a] > k.maxC[a] {
			return 0, false
		}
		key |= uint64(c[a]-k.minC[a]) << k.shift[a]
	}
	return key, true
}

// StringKey appends the fixed-width string encoding of the cell coordinates
// to b and returns it — the fallback keying for layouts the packed form
// cannot address. It is total: every coordinate vector has a string key.
func (k *CellKeyer) StringKey(b []byte, c []int) []byte {
	for a := 0; a < k.m; a++ {
		b = appendCoord(b, c[a])
	}
	return b
}

// appendCoord appends the fixed-width little-endian encoding of one grid
// coordinate; fixed-width string keys make cheap map keys without a 64-bit
// hash collision analysis (the fallback layout for grids the packed keys
// cannot address).
func appendCoord(b []byte, c int) []byte {
	u := uint64(int64(c))
	for s := 0; s < 64; s += 8 {
		b = append(b, byte(u>>uint(s)))
	}
	return b
}

// Reach converts a query radius into the per-dimension cell reach of the
// cube that covers every tuple within eps of a cell's tuples: any pair of
// tuples within eps in aggregate is within eps per scaled attribute, hence
// within ceil(eps/cell)+1 cells per dimension.
func (k *CellKeyer) Reach(eps float64) int {
	return int(math.Ceil(eps/k.cell)) + 1
}
