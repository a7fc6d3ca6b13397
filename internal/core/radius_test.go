package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/neighbors"
)

// TestEtaRadiusClippedAtEps checks the stored δ_η against its definition
// on a static saver: the η-th neighbor distance when it is within ε, +Inf
// otherwise, for every index kind the saver can run over.
func TestEtaRadiusClippedAtEps(t *testing.T) {
	cons := Constraints{Eps: 1, Eta: 4}
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		r := radiusRelation(rand.New(rand.NewSource(int64(norm)+3)), 300, norm)
		brute := neighbors.NewBrute(r)
		for _, idx := range []neighbors.Index{nil, brute, neighbors.NewVPTree(r, 1), neighbors.NewKDTree(r)} {
			s, err := NewSaver(r, cons, Options{Index: idx})
			if err != nil {
				t.Fatal(err)
			}
			clipped := 0
			for i := range r.Tuples {
				want := math.Inf(1)
				if nn := brute.KNN(r.Tuples[i], cons.Eta, i); len(nn) == cons.Eta && nn[cons.Eta-1].Dist <= cons.Eps {
					want = nn[cons.Eta-1].Dist
				} else {
					clipped++
				}
				if s.etaRadius[i] != want {
					t.Fatalf("norm %v, %T: δ_η[%d] = %v, want %v", norm, s.Index(), i, s.etaRadius[i], want)
				}
			}
			if clipped == 0 || clipped == r.N() {
				t.Fatalf("norm %v: %d of %d radii beyond ε; the relation should mix both", norm, clipped, r.N())
			}
		}
	}
}

// TestRefreshRadiiMatchesRebuild drives a mutable saver of every index
// kind through random insert, update and delete sequences, refreshing
// radii the way the serving layer does, and requires every live row's
// stored δ_η to equal a freshly built saver's — the exact radius when it
// is within ε, +Inf beyond.
func TestRefreshRadiiMatchesRebuild(t *testing.T) {
	cons := Constraints{Eps: 1, Eta: 4}
	for _, seed := range []int64{1, 2, 3} {
		for _, kind := range []neighbors.IndexKind{neighbors.KindGrid, neighbors.KindBrute, neighbors.KindKD, neighbors.KindVP} {
			rng := rand.New(rand.NewSource(seed))
			r := radiusRelation(rng, 200, metric.L2)
			mut, err := neighbors.NewMutable(r, cons.Eps, kind)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSaver(mut.Rel(), cons, Options{Index: mut})
			if err != nil {
				t.Fatal(err)
			}
			liveRow := func() int {
				i := rng.Intn(s.rel.N())
				for !mut.Alive(i) {
					i = (i + 1) % s.rel.N()
				}
				return i
			}
			for step := 0; step < 60; step++ {
				var op string
				switch p := rng.Float64(); {
				case p < 0.45:
					tp := radiusTuple(rng)
					op = fmt.Sprintf("insert row %d", s.InsertInlier(tp))
					s.RefreshRadii(tp)
				case p < 0.8:
					i := liveRow()
					s.RemoveInlier(i)
					s.RefreshRadii(s.rel.Tuples[i])
					op = fmt.Sprintf("delete row %d", i)
				default:
					i := liveRow()
					s.RemoveInlier(i)
					tp := radiusTuple(rng)
					j := s.InsertInlier(tp)
					s.RefreshRadii(s.rel.Tuples[i])
					s.RefreshRadii(tp)
					op = fmt.Sprintf("update row %d to %d", i, j)
				}
				var live []int
				for i := 0; i < s.rel.N(); i++ {
					if mut.Alive(i) {
						live = append(live, i)
					}
				}
				fresh, err := NewSaver(s.rel.Subset(live), cons, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for li, i := range live {
					if got, want := s.etaRadius[i], fresh.etaRadius[li]; got != want {
						t.Fatalf("seed %d, %v index, step %d (%s): δ_η of row %d = %v, rebuilt saver's %v",
							seed, kind, step, op, i, got, want)
					}
				}
			}
		}
	}
}

// radiusRelation draws n 2-D points, a dense blob and a sparse fringe, so
// δ_η falls on both sides of ε = 1.
func radiusRelation(rng *rand.Rand, n int, norm metric.Norm) *data.Relation {
	s := data.NewNumericSchema("x", "y")
	s.Norm = norm
	r := data.NewRelation(s)
	for i := 0; i < n; i++ {
		r.Append(radiusTuple(rng))
	}
	return r
}

func radiusTuple(rng *rand.Rand) data.Tuple {
	spread := 1.5
	if rng.Intn(4) == 0 {
		spread = 12
	}
	return data.Tuple{data.Num(rng.NormFloat64() * spread), data.Num(rng.NormFloat64() * spread)}
}
