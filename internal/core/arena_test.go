package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
)

// arenaWorkload builds a mid-size numeric instance whose unrestricted
// search expands enough nodes that per-node allocations would dominate the
// measurement: with memoization the unrestricted recursion can visit up to
// 2^m masks, so m = 10 admits ~1k nodes.
func arenaWorkload(tb testing.TB) (*Saver, data.Tuple) { return arenaWorkloadKappa(tb, 0) }

// arenaWorkloadKappa is arenaWorkload with Options.Kappa = kappa.
func arenaWorkloadKappa(tb testing.TB, kappa int) (*Saver, data.Tuple) {
	tb.Helper()
	names := make([]string, 10)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	r := data.NewRelation(data.NewNumericSchema(names...))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		t := make(data.Tuple, len(names))
		for a := range t {
			t[a] = data.Num(rng.NormFloat64())
		}
		r.Append(t)
	}
	cons := Constraints{Eps: 4.0, Eta: 4}
	// Pruning off keeps the search wide, which is exactly what the
	// per-node allocation guard needs to be sensitive.
	s, err := NewSaver(r, cons, Options{DisablePruning: true, Kappa: kappa})
	if err != nil {
		tb.Fatal(err)
	}
	to := make(data.Tuple, len(names))
	for a := range to {
		to[a] = data.Num(rng.NormFloat64())
	}
	to[2] = data.Num(30) // one corrupted attribute pushes it outside every ball
	return s, to
}

// TestSaveSteadyStateAllocs pins the arena contract: once a worker's arena
// is warm, a whole save — thousands of recursion nodes — performs only the
// per-save allocations that escape by design (the Within ball of the
// truncation pass, the k-NN lists of the Lemma 4 bound, the composed
// adjustment tuple). Per recursion node the steady state allocates zero.
// The κ=2 case draws its candidates from the attribute-group union, so it
// also proves the group query buffers and de-duplication stamps are arena
// scratch; with m = 10 its search has at most C(10,2)+10+1 = 56 masks, and
// an outlier close to the data on every attribute expands most of them.
func TestSaveSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name            string
		kappa, minNodes int
	}{
		{"unrestricted", 0, 100},
		{"kappa=2", 2, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, to := arenaWorkloadKappa(t, tc.kappa)
			if tc.kappa > 0 {
				to[2] = data.Num(0)
			}
			ar := new(saveArena)
			ctx := context.Background()
			adj := s.save(ctx, to, ar) // warm the slabs
			if adj.Nodes < tc.minNodes {
				t.Fatalf("workload expanded only %d nodes; too small to expose per-node allocations", adj.Nodes)
			}
			allocs := testing.AllocsPerRun(20, func() {
				s.save(ctx, to, ar)
			})
			// The per-save fixed costs are a handful of allocations; per
			// node the budget is zero, so the total must not scale with
			// Nodes. The race detector's sync.Pool drops ~25% of released
			// kernel queries, so each save re-allocates a few of its
			// handful of query binds; the wider budget still fails on
			// anything that scales with Nodes.
			budget := 16.0
			if raceDetector {
				budget = 64
			}
			if allocs > budget {
				t.Errorf("steady-state save allocates %.1f times (budget %.0f) over %d nodes; want a small node-independent constant",
					allocs, budget, adj.Nodes)
			}
		})
	}
}

// TestArenaReuseDoesNotLeakState saves two different outliers alternately
// through one arena and checks each answer is identical to a fresh-arena
// save: no candidate table, memo entry or slab length may survive one save
// and distort the next.
func TestArenaReuseDoesNotLeakState(t *testing.T) {
	s, to := arenaWorkload(t)
	other := to.Clone()
	other[0] = data.Num(other[0].Num + 0.5)
	other[3] = data.Num(other[3].Num - 4)

	ctx := context.Background()
	shared := new(saveArena)
	for round := 0; round < 3; round++ {
		for _, q := range []data.Tuple{to, other} {
			got := s.save(ctx, q, shared)
			want := s.save(ctx, q, new(saveArena))
			if got.Cost != want.Cost || got.bestEqual(want) == false {
				t.Fatalf("round %d: shared-arena save differs: got %+v, want %+v", round, got, want)
			}
		}
	}
}

// bestEqual compares the observable answer of two adjustments.
func (a Adjustment) bestEqual(b Adjustment) bool {
	if a.Natural != b.Natural || a.Adjusted != b.Adjusted || a.Nodes != b.Nodes {
		return false
	}
	if (a.Tuple == nil) != (b.Tuple == nil) {
		return false
	}
	for i := range a.Tuple {
		if a.Tuple[i] != b.Tuple[i] {
			return false
		}
	}
	return true
}

// TestSaveAllWorkerArenaEquivalence runs the same batch sequentially and
// with parallel per-worker arenas and requires identical adjustments —
// any cross-worker arena sharing or stale slab reuse would desynchronize
// the two runs. κ=2 repeats it on the attribute-group path, whose block
// indexes all workers query at once.
func TestSaveAllWorkerArenaEquivalence(t *testing.T) {
	for _, kappa := range []int{0, 2} {
		t.Run(fmt.Sprintf("kappa=%d", kappa), func(t *testing.T) { testWorkerArenaEquivalence(t, kappa) })
	}
}

func testWorkerArenaEquivalence(t *testing.T, kappa int) {
	r := data.NewRelation(data.NewNumericSchema("x", "y", "z"))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		t3 := data.Tuple{
			data.Num(rng.NormFloat64()),
			data.Num(rng.NormFloat64()),
			data.Num(rng.NormFloat64()),
		}
		if i%17 == 0 { // scatter outliers
			t3[i%3] = data.Num(t3[i%3].Num + 25)
		}
		r.Append(t3)
	}
	cons := Constraints{Eps: 1.0, Eta: 4}
	seq, err := SaveAll(r, cons, Options{Workers: 1, Kappa: kappa})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Detection.Outliers) < 4 {
		t.Fatalf("want several outliers, got %d", len(seq.Detection.Outliers))
	}
	par4, err := SaveAll(r, cons, Options{Workers: 4, Kappa: kappa})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Adjustments) != len(par4.Adjustments) {
		t.Fatalf("adjustment counts differ: %d vs %d", len(seq.Adjustments), len(par4.Adjustments))
	}
	for k := range seq.Adjustments {
		a, b := seq.Adjustments[k], par4.Adjustments[k]
		if a.Index != b.Index || a.Cost != b.Cost || !a.bestEqual(b) {
			t.Fatalf("outlier %d: sequential %+v vs parallel %+v", k, a, b)
		}
	}
}

// TestSavePoolPathMatchesArenaPath checks the public Save (sync.Pool
// arena) and the internal explicit-arena path give the same answer.
func TestSavePoolPathMatchesArenaPath(t *testing.T) {
	s, to := arenaWorkload(t)
	pooled := s.Save(to)
	direct := s.save(context.Background(), to, new(saveArena))
	if pooled.Cost != direct.Cost || !pooled.bestEqual(direct) {
		t.Fatalf("pool path %+v differs from arena path %+v", pooled, direct)
	}
	if math.IsInf(pooled.Cost, 1) && pooled.Tuple != nil {
		t.Fatal("infinite cost with a non-nil tuple")
	}
}
