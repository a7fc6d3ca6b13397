package core

import (
	"repro/internal/data"
	"repro/internal/neighbors"
	"repro/internal/obs"
)

// saveArena is the reusable scratch memory of one Algorithm 1 search. Every
// slice the hot path needs — the compact candidate tables, the κ group
// query buffers, one candidate slab per recursion depth, the quickselect
// scratch, the κ-prefilter top-k buffer and the visited-X memo — lives here and is recycled across nodes
// and across outliers, so the steady-state recursion allocates nothing.
//
// Ownership is strictly single-threaded: SaveAll hands each worker its own
// arena (no sync needed), and the public Save/SaveContext path draws one
// from a per-Saver sync.Pool. The depth-indexed slabs exploit the shape of
// the recursion: at any moment at most one node per depth |X| is on the
// stack, so the child candidate list for depth d+1 can always be built in
// slab d+1 without clobbering a live list.
type saveArena struct {
	st saveState // the per-outlier working set itself, reused

	ids   []int     // compact candidate ids
	attrD []float64 // per-attribute distance table
	fullD []float64 // full-space aggregates

	// cand[d]/sub[d] back the candidate list and subspace aggregates of
	// the node with |X| = d currently on the recursion stack.
	cand [][]int
	sub  [][]float64

	qsel []float64 // quickselectKth scratch
	top  []float64 // bestCaseSub top-κ scratch

	visited map[data.AttrMask]struct{}

	// stats is this worker's counter shard: plain increments owned by the
	// save in flight, zeroed per save and copied into Adjustment.Stats at
	// the end — no atomics anywhere near the recursion.
	stats obs.SearchStats
	// nc receives the index-query counts of cidx, the counting view of
	// the saver's index. The view is built once per (arena, saver) pair —
	// cidxBase remembers which base index it covers — so the steady state
	// allocates nothing.
	nc       neighbors.Counters
	cidx     neighbors.Index
	cidxBase neighbors.Index

	// κ-restricted saves: gviews are counting views (on nc) of the
	// attribute-group indexes of groupsOf, built once per (arena, saver)
	// pair; nbuf holds the range-query results, and stamp/epoch
	// de-duplicate the union without a map.
	groupsOf *Saver
	gviews   []neighbors.Index
	nbuf     []neighbors.Neighbor
	stamp    []uint32
	epoch    uint32
}

// reset prepares the arena for one save over a schema of m attributes.
func (ar *saveArena) reset(m int) {
	ar.stats = obs.SearchStats{}
	ar.nc.Reset()
	if len(ar.cand) < m+1 {
		ar.cand = append(ar.cand, make([][]int, m+1-len(ar.cand))...)
		ar.sub = append(ar.sub, make([][]float64, m+1-len(ar.sub))...)
	}
	if ar.visited == nil {
		ar.visited = make(map[data.AttrMask]struct{})
	} else {
		clear(ar.visited)
	}
}

// intsAt returns the empty depth-d int slab with capacity ≥ n.
func (ar *saveArena) intsAt(d, n int) []int {
	if cap(ar.cand[d]) < n {
		ar.cand[d] = make([]int, 0, n)
	}
	return ar.cand[d][:0]
}

// floatsAt returns the empty depth-d float slab with capacity ≥ n.
func (ar *saveArena) floatsAt(d, n int) []float64 {
	if cap(ar.sub[d]) < n {
		ar.sub[d] = make([]float64, 0, n)
	}
	return ar.sub[d][:0]
}

// grow returns buf resized to length n, reallocating only when the capacity
// is insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
