package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/neighbors"
)

// FuzzSave drives Algorithm 1 over randomized small relations, constraint
// settings, and budgets. Whatever the input, Save must not panic, and every
// answer must be classifiable: a feasible adjustment (Proposition 5 — each
// intermediate answer is a real repair), a Natural flag from a search that
// ran to completion, or a best-so-far answer flagged Exhausted. Without a
// node budget, a κ-restricted save must also match the all-rows oracle
// exactly, so random ε and κ probe the attribute-group union's boundary
// slack.
func FuzzSave(f *testing.F) {
	f.Add(int64(1), uint8(20), 1.0, uint8(3), uint8(0), uint8(0))
	f.Add(int64(2), uint8(8), 0.4, uint8(2), uint8(1), uint8(3))
	f.Add(int64(99), uint8(30), 2.5, uint8(5), uint8(2), uint8(1))
	f.Add(int64(-7), uint8(3), 0.05, uint8(9), uint8(4), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64, eta, kappa, maxNodes uint8) {
		size := 2 + int(n)%39 // 2..40 tuples
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 0.5
		}
		eps = math.Abs(math.Mod(eps, 4))
		if eps == 0 {
			eps = 0.5
		}
		m := 2 + size%3 // 2..4 attributes
		names := []string{"a", "b", "c", "d"}
		rng := rand.New(rand.NewSource(seed))
		rel := data.NewRelation(data.NewNumericSchema(names[:m]...))
		for i := 0; i < size; i++ {
			tp := make(data.Tuple, m)
			for a := range tp {
				tp[a] = data.Num(rng.Float64() * 2)
			}
			rel.Append(tp)
		}
		cons := Constraints{Eps: eps, Eta: 1 + int(eta)%size}
		opts := Options{Kappa: int(kappa) % (m + 1), MaxNodes: int(maxNodes)}
		s, err := NewSaver(rel, cons, opts)
		if err != nil {
			t.Skip()
		}
		outlier := make(data.Tuple, m)
		for a := range outlier {
			outlier[a] = data.Num(rng.Float64()*6 - 1)
		}
		adj := s.Save(outlier)
		if opts.MaxNodes == 0 && s.kappaRestricted() {
			ref := saveAllRows(s, outlier)
			if adj.Natural != ref.Natural || math.Float64bits(adj.Cost) != math.Float64bits(ref.Cost) || !slices.Equal(adj.Tuple, ref.Tuple) {
				t.Fatalf("κ=%d eps=%v: Save gives (%v, %v, natural=%v), the all-rows oracle (%v, %v, natural=%v)",
					opts.Kappa, eps, adj.Tuple, adj.Cost, adj.Natural, ref.Tuple, ref.Cost, ref.Natural)
			}
		}
		switch {
		case adj.Saved():
			if len(adj.Tuple) != m {
				t.Fatalf("adjustment has %d attributes, schema has %d", len(adj.Tuple), m)
			}
			if math.IsNaN(adj.Cost) || adj.Cost < 0 {
				t.Fatalf("adjustment cost %v", adj.Cost)
			}
			idx := neighbors.NewBrute(rel)
			if got := idx.CountWithin(adj.Tuple, cons.Eps, -1, 0); got < cons.Eta {
				t.Fatalf("adjustment has %d ε-neighbors, want ≥ %d (eps=%v eta=%d kappa=%d maxNodes=%d)",
					got, cons.Eta, eps, cons.Eta, opts.Kappa, opts.MaxNodes)
			}
		case adj.Natural:
			if adj.Exhausted {
				t.Fatal("Natural set on an exhausted (incomplete) search")
			}
		case adj.Exhausted:
			// Budget tripped before any feasible position was found: allowed.
		default:
			t.Fatalf("unclassifiable answer: %+v", adj)
		}
	})
}
