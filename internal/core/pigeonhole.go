package core

import (
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// groupSlack widens the group range queries by a relative 1e-9. The κ
// prefilter and the per-mask filter decide admissibility by subtraction
// (fullD minus the complement terms), while a group query sums its
// attributes directly; at the ε boundary the two can disagree in the last
// ulps. The widened query keeps the union a superset of every tuple the
// exact filters accept, and those filters still make the decision.
const groupSlack = 1e-9

// attrGroup is one pigeonhole group of a κ-restricted saver: the
// attribute block [lo, hi) and an index over r projected onto it. The
// projected rows keep the physical row ids of r.
type attrGroup struct {
	lo, hi int
	idx    neighbors.Index
	// mut is idx as a mutable index when the saver's own index is one;
	// InsertInlier and RemoveInlier keep it in step with r.
	mut *neighbors.Mutable
}

// buildGroups splits the m attributes of r into κ+1 contiguous blocks and
// indexes r projected onto each: a k-d tree for all-numeric blocks, a
// VP-tree for blocks with a text attribute. An admissible donor agrees
// with the outlier within ε on some m−κ attributes; the κ others can touch
// at most κ blocks, so at least one whole block lies within ε, and the
// union of the blocks' ε-range queries holds every donor a κ-restricted
// save can use (see docs/ALGORITHM.md §5). Blocks rather than strided
// groups make a projection free: a projected tuple is a sub-slice of its
// row, and each block's kernel is a view of kern, the saver's kernel over
// r, so no column, mirror or text cache is copied. mutable selects
// neighbors.Mutable group indexes, which append through those views.
func buildGroups(r *data.Relation, kern *data.Kernel, eps float64, kappa int, mutable bool) ([]attrGroup, error) {
	m := r.Schema.M()
	groups := make([]attrGroup, kappa+1)
	for gi := range groups {
		g := &groups[gi]
		g.lo, g.hi = gi*m/(kappa+1), (gi+1)*m/(kappa+1)
		sch := &data.Schema{Attrs: r.Schema.Attrs[g.lo:g.hi:g.hi], Norm: r.Schema.Norm}
		proj := &data.Relation{Schema: sch, Tuples: make([]data.Tuple, r.N())}
		for i, t := range r.Tuples {
			proj.Tuples[i] = t[g.lo:g.hi:g.hi]
		}
		view := kern.Project(proj, g.lo, g.hi)
		kind := neighbors.KindKD
		for _, at := range sch.Attrs {
			if at.Kind != data.Numeric {
				kind = neighbors.KindVP
			}
		}
		switch {
		case mutable:
			mut, err := neighbors.NewMutableKernel(proj, view, eps, kind)
			if err != nil {
				return nil, fmt.Errorf("core: indexing attribute group %d: %w", gi, err)
			}
			g.idx, g.mut = mut, mut
		case kind == neighbors.KindKD:
			g.idx = neighbors.NewKDTreeKernel(proj, view)
		default:
			g.idx = neighbors.NewVPTreeKernel(proj, view, 1)
		}
	}
	return groups, nil
}

// insertGroups appends t's projections to the mutable group indexes.
// Their rows must land at physical id i, the row t took in r.
func (s *Saver) insertGroups(t data.Tuple, i int) {
	for gi, g := range s.groups {
		if gj := g.mut.Insert(t[g.lo:g.hi:g.hi]); gj != i {
			panic(fmt.Sprintf("core: attribute group %d inserted row %d, inlier row is %d", gi, gj, i))
		}
	}
}

// pigeonholeCandidates returns, ascending, the rows of r within ε (plus
// groupSlack) of to on at least one attribute group: the candidate set of
// a κ-restricted save. The queries run through counting views on ar's
// counters; the range buffer and the de-duplication stamps are arena
// scratch and the result is built in ar.ids, so a warm arena allocates
// nothing here.
func (s *Saver) pigeonholeCandidates(ar *saveArena, to data.Tuple) []int {
	if ar.groupsOf != s {
		ar.groupsOf = s
		ar.gviews = ar.gviews[:0]
		for _, g := range s.groups {
			ar.gviews = append(ar.gviews, neighbors.Counting(g.idx, &ar.nc))
		}
	}
	n := s.rel.N()
	if len(ar.stamp) < n {
		ar.stamp = make([]uint32, n+n/8)
		ar.epoch = 0
	}
	ar.epoch++
	if ar.epoch == 0 { // wrapped: stale stamps could collide
		clear(ar.stamp)
		ar.epoch = 1
	}
	radius := s.cons.Eps * (1 + groupSlack)
	ids := ar.ids[:0]
	for gi, g := range s.groups {
		ar.nbuf = neighbors.WithinBuf(ar.gviews[gi], ar.nbuf, to[g.lo:g.hi], radius, -1)
		for _, nb := range ar.nbuf {
			if ar.stamp[nb.Idx] != ar.epoch {
				ar.stamp[nb.Idx] = ar.epoch
				ids = append(ids, nb.Idx)
			}
		}
	}
	slices.Sort(ids)
	ar.ids = ids
	return ids
}
