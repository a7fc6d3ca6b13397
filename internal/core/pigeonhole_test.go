package core

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// The pigeonhole tests run a fixed set of seeds; -pigeonhole.seed=N runs
// seed N alone, which is how a failure printed by them is replayed:
//
//	go test ./internal/core -run Pigeonhole -pigeonhole.seed=N
var pigeonholeSeed = flag.Int64("pigeonhole.seed", 0, "run the pigeonhole tests on this seed only (0: the fixed seeds)")

func pigeonholeSeeds() []int64 {
	if *pigeonholeSeed != 0 {
		return []int64{*pigeonholeSeed}
	}
	return []int64{1, 2, 3}
}

// saveAllRows is the oracle for κ-restricted saves: the candidate loop the
// attribute-group indexes replaced, which puts every live row of r into
// the tables, followed by the same search.
func saveAllRows(s *Saver, to data.Tuple) Adjustment {
	ar := new(saveArena)
	st := s.begin(context.Background(), ar)
	st.ids = s.allRows(ar)
	return s.search(st, to)
}

// kappaSurvivors returns the rows of r that the all-rows κ filters keep
// for to: under L1 and L2 the survivors of the best-case prefilter, under
// L∞ (which has no prefilter) the rows within ε on some m−κ attributes,
// exactly what the per-mask filter admits there.
func kappaSurvivors(s *Saver, to data.Tuple) []int {
	ar := new(saveArena)
	st := s.begin(context.Background(), ar)
	st.ids = s.allRows(ar)
	s.fillTables(st, to)
	m, kappa := s.m, s.opts.Kappa
	epsAcc := s.threshold(s.cons.Eps)
	var out []int
	d := make([]float64, m)
	for c, i := range st.ids {
		var keep bool
		if s.rel.Schema.Norm == metric.LInf {
			copy(d, st.attrD[c*m:(c+1)*m])
			slices.Sort(d)
			keep = d[m-kappa-1] <= s.cons.Eps
		} else {
			keep = s.bestCaseSub(st, c, kappa) <= epsAcc
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// unionOf returns a copy of the pigeonhole candidate set of to.
func unionOf(s *Saver, to data.Tuple) []int {
	return slices.Clone(s.pigeonholeCandidates(new(saveArena), to))
}

// adjustmentDiff names the first observable field on which got and want
// differ, or returns "" when they agree.
func adjustmentDiff(got, want Adjustment) string {
	switch {
	case got.Natural != want.Natural:
		return fmt.Sprintf("Natural %v, want %v", got.Natural, want.Natural)
	case got.Exhausted != want.Exhausted:
		return fmt.Sprintf("Exhausted %v, want %v", got.Exhausted, want.Exhausted)
	case got.Nodes != want.Nodes:
		return fmt.Sprintf("Nodes %d, want %d", got.Nodes, want.Nodes)
	case got.Adjusted != want.Adjusted:
		return fmt.Sprintf("Adjusted %b, want %b", got.Adjusted, want.Adjusted)
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Sprintf("Cost %v, want %v", got.Cost, want.Cost)
	case !slices.Equal(got.Tuple, want.Tuple):
		return fmt.Sprintf("Tuple %v, want %v", got.Tuple, want.Tuple)
	}
	return ""
}

// missing returns the elements of sub that sorted does not contain.
func missing(sub, sorted []int) []int {
	var out []int
	for _, i := range sub {
		if _, ok := slices.BinarySearch(sorted, i); !ok {
			out = append(out, i)
		}
	}
	return out
}

// pigeonholeSchema returns one of the test schemas over five attributes:
// "numeric" (unit scales), "scaled" (mixed scales) or "text" (numeric
// with two Levenshtein columns at positions 1 and 3).
func pigeonholeSchema(kind string, norm metric.Norm) *data.Schema {
	sch := data.NewNumericSchema("a", "b", "c", "d", "e")
	sch.Norm = norm
	switch kind {
	case "scaled":
		for a, sc := range []float64{1, 2.5, 0.5, 4, 1} {
			sch.Attrs[a].Scale = sc
		}
	case "text":
		sch.Attrs[1].Kind = data.Text
		sch.Attrs[3].Kind = data.Text
	}
	return sch
}

var pigeonholeWords = []string{"alpha", "bravo", "charlie", "delta"}

// pigeonholeInstance builds an inlier relation of three noisy clusters,
// plus, around the all-zero outlier to0, families of η+1 identical donors
// that each differ from to0 on one numeric attribute by exactly ε, one
// ulp less or one ulp more, and on κ other attributes by far more than ε.
// The copies give each donor δ_η = 0, so whether its subspace aggregate
// lands on or just past ε decides both the κ filters and Proposition 5.
// It returns r and the outliers to save.
func pigeonholeInstance(rng *rand.Rand, sch *data.Schema, eps float64, eta, kappa int) (*data.Relation, []data.Tuple) {
	m := sch.M()
	scale := func(a int) float64 {
		if s := sch.Attrs[a].Scale; s > 0 {
			return s
		}
		return 1
	}
	r := data.NewRelation(sch)
	var rows []data.Tuple
	for c := 0; c < 3; c++ {
		center := make(data.Tuple, m)
		for a := range center {
			if sch.Attrs[a].Kind == data.Text {
				center[a] = data.Str(pigeonholeWords[c])
			} else {
				center[a] = data.Num((2 + 6*rng.Float64()) * scale(a))
			}
		}
		for k := 0; k < 40; k++ {
			t := center.Clone()
			for a := range t {
				if sch.Attrs[a].Kind == data.Text {
					if rng.Intn(3) == 0 {
						b := []byte(t[a].Str)
						b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
						t[a] = data.Str(string(b))
					}
				} else {
					t[a] = data.Num(t[a].Num + 0.35*eps*rng.NormFloat64()*scale(a))
				}
			}
			r.Append(t)
			rows = append(rows, t)
		}
	}

	to0 := make(data.Tuple, m)
	for a := range to0 {
		if sch.Attrs[a].Kind == data.Text {
			to0[a] = data.Str("kilo")
		} else {
			to0[a] = data.Num(0)
		}
	}
	for a0 := 0; a0 < m; a0++ {
		if sch.Attrs[a0].Kind == data.Text {
			continue
		}
		for _, delta := range []float64{math.Nextafter(eps, 0), eps, math.Nextafter(eps, math.Inf(1))} {
			donor := to0.Clone()
			donor[a0] = data.Num(delta * scale(a0))
			far := 0
			for _, a := range rng.Perm(m) {
				if a == a0 || far == kappa {
					continue
				}
				far++
				if sch.Attrs[a].Kind == data.Text {
					donor[a] = data.Str("xxxxxxxxxxxx")
				} else {
					donor[a] = data.Num(40 * eps * scale(a))
				}
			}
			for k := 0; k <= eta; k++ {
				r.Append(donor.Clone())
			}
		}
	}

	outliers := []data.Tuple{to0}
	for k := 0; k < 6; k++ {
		t := rows[rng.Intn(len(rows))].Clone()
		for _, a := range rng.Perm(m)[:1+rng.Intn(kappa+1)] {
			if sch.Attrs[a].Kind == data.Text {
				t[a] = data.Str(pigeonholeWords[rng.Intn(len(pigeonholeWords))] + "zz")
			} else {
				t[a] = data.Num(t[a].Num + 5*eps*scale(a))
			}
		}
		outliers = append(outliers, t)
	}
	return r, outliers
}

// pigeonholeIndexes returns the saver index kinds a schema admits, as
// Options.Index values over r: grid and k-d tree need all-numeric rows.
func pigeonholeIndexes(r *data.Relation, eps float64, numeric bool) map[string]neighbors.Index {
	idx := map[string]neighbors.Index{
		"brute": neighbors.NewBrute(r),
		"vp":    neighbors.NewVPTree(r, 1),
	}
	if numeric {
		idx["grid"] = neighbors.NewGrid(r, eps)
		idx["kd"] = neighbors.NewKDTree(r)
	}
	return idx
}

// TestPigeonholeMatchesAllRows is the differential proof of the
// κ-restricted candidate index. Over the four saver index kinds, the three
// norms, numeric, scaled and text schemas, κ ∈ {1, 2, m−1} and several
// seeds it checks that every row the all-rows κ filters keep is in the
// attribute-group union, and that Save returns exactly the adjustment of
// the all-rows oracle. The ε ± 1 ulp donor families pin the group query's
// float slack.
func TestPigeonholeMatchesAllRows(t *testing.T) {
	epsOf := map[metric.Norm]float64{metric.L2: 1.2, metric.L1: 2, metric.LInf: 0.8}
	for _, seed := range pigeonholeSeeds() {
		for _, schema := range []string{"numeric", "scaled", "text"} {
			for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
				sch := pigeonholeSchema(schema, norm)
				m := sch.M()
				for _, kappa := range []int{1, 2, m - 1} {
					rng := rand.New(rand.NewSource(seed))
					cons := Constraints{Eps: epsOf[norm], Eta: 3}
					r, outliers := pigeonholeInstance(rng, sch, cons.Eps, cons.Eta, kappa)
					for kind, idx := range pigeonholeIndexes(r, cons.Eps, schema != "text") {
						s, err := NewSaver(r, cons, Options{Kappa: kappa, Index: idx})
						if err != nil {
							t.Fatal(err)
						}
						for k, to := range outliers {
							where := fmt.Sprintf("seed %d (rerun with -pigeonhole.seed=%d), %s schema, %v, κ=%d, %s index, outlier %d",
								seed, seed, schema, norm, kappa, kind, k)
							union := unionOf(s, to)
							if lost := missing(kappaSurvivors(s, to), union); len(lost) > 0 {
								t.Fatalf("%s: rows %v survive the all-rows κ filters but are not in the group union", where, lost)
							}
							if d := adjustmentDiff(s.Save(to), saveAllRows(s, to)); d != "" {
								t.Fatalf("%s: Save differs from the all-rows oracle: %s", where, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestPigeonholeMutableMatchesRebuild runs random InsertInlier,
// RemoveInlier and Merge sequences on a mutable κ-restricted saver, over
// each of the four mutable index kinds. After every step the group union
// (as live-row positions) and every adjustment must equal those of a saver
// built from scratch over the live rows.
func TestPigeonholeMutableMatchesRebuild(t *testing.T) {
	const kappa, steps = 2, 80
	cons := Constraints{Eps: 1.2, Eta: 3}
	sch := pigeonholeSchema("scaled", metric.L2)
	for _, seed := range pigeonholeSeeds() {
		for _, kind := range []neighbors.IndexKind{neighbors.KindBrute, neighbors.KindGrid, neighbors.KindKD, neighbors.KindVP} {
			rng := rand.New(rand.NewSource(seed))
			r, outliers := pigeonholeInstance(rng, sch, cons.Eps, cons.Eta, kappa)
			pool := slices.Clone(r.Tuples)
			mut, err := neighbors.NewMutable(r, cons.Eps, kind)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSaver(mut.Rel(), cons, Options{Kappa: kappa, Index: mut})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < steps; step++ {
				var op string
				switch p := rng.Float64(); {
				case p < 0.55:
					tp := pool[rng.Intn(len(pool))].Clone()
					a := rng.Intn(len(tp))
					tp[a] = data.Num(tp[a].Num + 0.5*rng.NormFloat64())
					op = fmt.Sprintf("insert row %d", s.InsertInlier(tp))
					s.RefreshRadii(tp)
				case p < 0.9:
					i := rng.Intn(s.rel.N())
					for !mut.Alive(i) {
						i = (i + 1) % s.rel.N()
					}
					s.RemoveInlier(i)
					s.RefreshRadii(s.rel.Tuples[i])
					op = fmt.Sprintf("remove row %d", i)
				default:
					mut.Merge()
					op = "merge"
				}
				var live []int
				for i := 0; i < s.rel.N(); i++ {
					if mut.Alive(i) {
						live = append(live, i)
					}
				}
				fresh, err := NewSaver(s.rel.Subset(live), cons, Options{Kappa: kappa})
				if err != nil {
					t.Fatal(err)
				}
				for k, to := range outliers {
					where := fmt.Sprintf("seed %d (rerun with -pigeonhole.seed=%d), %v index, step %d (%s), outlier %d",
						seed, seed, kind, step, op, k)
					union := unionOf(s, to)
					for c, i := range union {
						union[c], _ = slices.BinarySearch(live, i)
					}
					if want := unionOf(fresh, to); !slices.Equal(union, want) {
						t.Fatalf("%s: group union %v, rebuilt saver's %v", where, union, want)
					}
					if d := adjustmentDiff(s.Save(to), fresh.Save(to)); d != "" {
						t.Fatalf("%s: Save differs from the rebuilt saver: %s", where, d)
					}
				}
			}
			if s.groups[0].mut.Merges() == 0 {
				t.Errorf("seed %d, %v index: %d steps never merged a group index's delta buffer", seed, kind, steps)
			}
		}
	}
}
