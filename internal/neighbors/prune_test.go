package neighbors

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
)

// The grid pruning tests run a fixed set of seeds; -grid.seed=N runs seed
// N alone, which is how a failure printed by them is replayed:
//
//	go test ./internal/neighbors -run GridPruning -grid.seed=N
var gridSeed = flag.Int64("grid.seed", 0, "run the grid pruning tests on this seed only (0: the fixed seeds)")

func gridSeeds() []int64 {
	if *gridSeed != 0 {
		return []int64{*gridSeed}
	}
	return []int64{1, 2, 3}
}

// pruneCase is one grid geometry of the pruning differential: the
// dimensionality, norm, whether odd attributes carry a scale, the
// coordinate offset (negative, or near 1e9 where an ulp is a large share
// of a small cell) and the cell size in scaled units.
type pruneCase struct {
	m      int
	norm   metric.Norm
	scaled bool
	offset float64
	cell   float64
}

func (c pruneCase) String() string {
	return fmt.Sprintf("m=%d/%v/scaled=%v/offset=%g/cell=%g", c.m, c.norm, c.scaled, c.offset, c.cell)
}

// pruneRelation draws points on a half-cell lattice around c.offset, so
// many sit exactly on cell faces and many pairs tie, and returns it with
// the scale of each attribute. Above m = 3 the relation is large enough
// that a radius-cell query walks the cube instead of falling back to the
// brute scan (the cube has 5^m cells).
func pruneRelation(rng *rand.Rand, c pruneCase) *data.Relation {
	names := make([]string, c.m)
	for a := range names {
		names[a] = string(rune('a' + a))
	}
	s := data.NewNumericSchema(names...)
	s.Norm = c.norm
	if c.scaled {
		for a := 1; a < c.m; a += 2 {
			s.Attrs[a].Scale = 0.1 + float64(a)*3.7
		}
	}
	n := 240
	if n <= pow5(c.m) {
		n = pow5(c.m) + 64
	}
	r := data.NewRelation(s)
	for i := 0; i < n; i++ {
		t := make(data.Tuple, c.m)
		for a := range t {
			v := c.offset + float64(rng.Intn(12))*c.cell/2
			if rng.Intn(4) == 0 {
				v += rng.Float64() * c.cell // off the lattice too
			}
			if sc := s.Attrs[a].Scale; sc > 0 {
				v *= sc
			}
			t[a] = data.Num(v)
		}
		r.Append(t)
	}
	return r
}

func pow5(m int) int {
	p := 1
	for ; m > 0; m-- {
		p *= 5
	}
	return p
}

// pruneQueries returns (query, radius, skip) triples: random points,
// stored tuples, and stored tuples at radii exactly equal to the distance
// of another tuple and one ulp either side of it.
type pruneQuery struct {
	q    data.Tuple
	eps  float64
	skip int
}

func pruneQueries(rng *rand.Rand, r *data.Relation, c pruneCase, brute *Brute) []pruneQuery {
	var qs []pruneQuery
	for k := 0; k < 24; k++ {
		i := rng.Intn(r.N())
		q := r.Tuples[i]
		skip := i
		if k%3 == 0 {
			q = make(data.Tuple, c.m)
			for a := range q {
				v := c.offset + rng.Float64()*6*c.cell
				if sc := r.Schema.Attrs[a].Scale; sc > 0 {
					v *= sc
				}
				q[a] = data.Num(v)
			}
			skip = -1
		}
		eps := c.cell * (0.25 + rng.Float64()*1.5)
		qs = append(qs, pruneQuery{q, eps, skip})
		if skip >= 0 {
			// A radius equal to the distance of a stored tuple, and one
			// ulp either side: the inclusive boundary must survive pruning.
			d := brute.kern.Dist(i, rng.Intn(r.N()))
			if d > 0 && d < 2*c.cell {
				for _, e := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
					qs = append(qs, pruneQuery{q, e, skip})
				}
			}
		}
	}
	return qs
}

// unprunedWithin is the reference range walk: the full odometer cube with
// no gap pruning, in the order the grid visits cells.
func unprunedWithin(g *Grid, q data.Tuple, eps float64, skip int) []Neighbor {
	if g.tooWide(g.reach(eps)) {
		return g.brute.Within(q, eps, skip)
	}
	kq := g.kern.Bind(q)
	defer kq.Release()
	bound := g.kern.LEBound(eps)
	var out []Neighbor
	g.visit(q, g.reach(eps), nil, false, func(idx []int) bool {
		for _, i := range idx {
			if i == skip {
				continue
			}
			if d, ok := kq.DistToLE(i, bound); ok {
				out = append(out, Neighbor{Idx: i, Dist: d})
			}
		}
		return true
	})
	return out
}

// truncateAt returns the prefix of a sorted neighbor list within eps.
func truncateAt(nn []Neighbor, eps float64) []Neighbor {
	for i, nb := range nn {
		if !(nb.Dist <= eps) {
			return nn[:i]
		}
	}
	return nn
}

// checkGridQueries compares every grid query against the reference
// answers for one (query, radius, skip): Within as the same slice in the
// same order as the unpruned walk (and the same set as Brute),
// CountWithin capped and uncapped, KNN, and the bounded k-NN. It returns
// a description of the first mismatch, or "".
func checkGridQueries(g *Grid, brute *Brute, pq pruneQuery, k int) string {
	q, eps, skip := pq.q, pq.eps, pq.skip
	want := brute.Within(q, eps, skip)
	got := g.Within(q, eps, skip)
	if ref := unprunedWithin(g, q, eps, skip); !slices.Equal(got, ref) {
		return fmt.Sprintf("Within(eps=%v) = %v, unpruned walk %v", eps, got, ref)
	}
	if !sameSet(got, want) {
		return fmt.Sprintf("Within(eps=%v) = %v, brute %v", eps, got, want)
	}
	if c := g.CountWithin(q, eps, skip, 0); c != len(want) {
		return fmt.Sprintf("CountWithin(eps=%v) = %d, want %d", eps, c, len(want))
	}
	for _, capN := range []int{1, len(want) / 2, len(want), len(want) + 1} {
		if capN <= 0 {
			continue
		}
		if c := g.CountWithin(q, eps, skip, capN); c != min(capN, len(want)) {
			return fmt.Sprintf("CountWithin(eps=%v, cap=%d) = %d, want %d", eps, capN, c, min(capN, len(want)))
		}
	}
	wantK := brute.KNN(q, k, skip)
	if gotK := g.KNN(q, k, skip); !slices.Equal(gotK, wantK) {
		return fmt.Sprintf("KNN(k=%d) = %v, want %v", k, gotK, wantK)
	}
	wantB := truncateAt(wantK, eps)
	if gotB := KNNWithin(g, nil, q, k, eps, skip); !slices.Equal(gotB, wantB) {
		return fmt.Sprintf("KNNWithin(k=%d, eps=%v) = %v, want %v", k, eps, gotB, wantB)
	}
	return ""
}

func sameSet(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := slices.Clone(a), slices.Clone(b)
	cmp := func(x, y Neighbor) int { return x.Idx - y.Idx }
	slices.SortFunc(as, cmp)
	slices.SortFunc(bs, cmp)
	return slices.Equal(as, bs)
}

// TestGridPruningDifferential pins the gap-pruned grid to the brute scan
// and to its own unpruned walk across norms, m = 1…6, scaled attributes,
// negative coordinates and coordinates near 1e9 with small cells, with
// points on cell faces and radii at a stored distance and one ulp either
// side.
func TestGridPruningDifferential(t *testing.T) {
	var cases []pruneCase
	for m := 1; m <= 6; m++ {
		for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
			cases = append(cases,
				pruneCase{m: m, norm: norm, scaled: m > 1, offset: 0, cell: 1},
				pruneCase{m: m, norm: norm, scaled: false, offset: -37.5, cell: 0.75},
			)
			if m <= 3 {
				cases = append(cases, pruneCase{m: m, norm: norm, scaled: m > 1, offset: 1e9, cell: 1e-3})
			}
		}
	}
	for _, seed := range gridSeeds() {
		for ci, c := range cases {
			rng := rand.New(rand.NewSource(seed*1000 + int64(ci)))
			r := pruneRelation(rng, c)
			g, brute := NewGrid(r, c.cell), NewBrute(r)
			for _, pq := range pruneQueries(rng, r, c, brute) {
				if msg := checkGridQueries(g, brute, pq, 1+rng.Intn(24)); msg != "" {
					t.Fatalf("seed %d, case %v, q=%v skip=%d: %s (replay with -grid.seed=%d)",
						seed, c, pq.q, pq.skip, msg, seed)
				}
			}
		}
	}
}

// TestGridPruningSkipsCells checks that the pruning actually prunes: an
// ε = cell query in 3-D reaches a 5×5×5 cube, but only the cells whose
// box comes within ε of the query can hold a match, at most 3×3×3.
func TestGridPruningSkipsCells(t *testing.T) {
	r := diffRelation(400, 3, metric.L2, 5, false)
	g := NewGrid(r, 1.5)
	q := r.Tuples[7]
	reach := g.reach(1.5)
	all, pruned := 0, 0
	g.visit(q, reach, nil, false, func([]int) bool { all++; return true })
	bound := g.kern.LEBound(1.5)
	g.visit(q, reach, &bound, false, func([]int) bool { pruned++; return true })
	if pruned > 27 || pruned >= all {
		t.Fatalf("pruned walk visited %d non-empty cells of %d, want ≤ 27", pruned, all)
	}
}

// FuzzGridQueries drives the grid with arbitrary small relations: the
// first bytes pick m, the norm, the cell size and a coordinate offset,
// the rest are coordinates; every query must match the brute scan and
// the unpruned walk.
func FuzzGridQueries(f *testing.F) {
	f.Add([]byte{2, 0, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 13})
	f.Add([]byte{3, 1, 1, 1, 0, 0, 0, 255, 255, 255, 128, 128, 128, 4, 4, 4})
	f.Add([]byte{1, 2, 9, 2, 10, 20, 30, 40, 50, 60, 70, 80})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 8 {
			return
		}
		m := 1 + int(b[0])%3
		norm := []metric.Norm{metric.L2, metric.L1, metric.LInf}[int(b[1])%3]
		cell := []float64{0.25, 0.5, 1, 1.5, 1e-3}[int(b[2])%5]
		offset := []float64{0, -100, 1e9, -7.25}[int(b[3])%4]
		b = b[4:]
		names := make([]string, m)
		for a := range names {
			names[a] = string(rune('a' + a))
		}
		s := data.NewNumericSchema(names...)
		s.Norm = norm
		if m > 1 && len(b)%2 == 0 {
			s.Attrs[1].Scale = 2.5
		}
		r := data.NewRelation(s)
		for len(b) >= m && r.N() < 64 {
			tp := make(data.Tuple, m)
			for a := range tp {
				v := offset + float64(int8(b[a]))*cell/4
				if sc := s.Attrs[a].Scale; sc > 0 {
					v *= sc
				}
				tp[a] = data.Num(v)
			}
			r.Append(tp)
			b = b[m:]
		}
		if r.N() == 0 {
			return
		}
		g, brute := NewGrid(r, cell), NewBrute(r)
		var h [8]byte
		copy(h[:], b)
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:]))))
		c := pruneCase{m: m, norm: norm, offset: offset, cell: cell}
		for _, pq := range pruneQueries(rng, r, c, brute) {
			if msg := checkGridQueries(g, brute, pq, 1+rng.Intn(8)); msg != "" {
				t.Fatalf("case %v, q=%v skip=%d: %s", c, pq.q, pq.skip, msg)
			}
		}
	})
}
