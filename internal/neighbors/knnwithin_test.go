package neighbors

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metric"
)

// TestKNNWithinMatchesTruncatedKNN pins the bounded k-NN to its
// definition, KNN(k) truncated at ε, for the four concrete indexes (grid
// and brute natively, VP and k-d trees through the KNN fallback), the
// counting and context views over each, and k larger than the ε-ball.
// Duplicated tuples put ties at every k-th position.
func TestKNNWithinMatchesTruncatedKNN(t *testing.T) {
	for _, norm := range []metric.Norm{metric.L2, metric.L1, metric.LInf} {
		r := diffRelation(160, 3, norm, int64(3+int(norm)), true)
		brute := NewBrute(r)
		var c Counters
		ctx, cancel := context.WithCancel(context.Background())
		indexes := map[string]Index{
			"brute":    NewBrute(r),
			"grid":     NewGrid(r, 1.5),
			"vptree":   NewVPTree(r, 3),
			"kdtree":   NewKDTree(r),
			"counting": Counting(NewGrid(r, 1.5), &c),
			"ctx":      WithContext(ctx, NewGrid(r, 1.5)),
			"ctx+vp":   WithContext(ctx, Counting(NewVPTree(r, 3), &c)),
		}
		rng := rand.New(rand.NewSource(int64(41 + int(norm))))
		var buf []Neighbor
		for trial := 0; trial < 60; trial++ {
			i := rng.Intn(r.N())
			q, skip := r.Tuples[i], i
			if trial%4 == 0 {
				q, skip = randomTuple(rng, 3, 12), -1
			}
			eps := 0.5 + rng.Float64()*3
			k := 1 + rng.Intn(40) // often larger than the ε-ball
			want := truncateAt(brute.KNN(q, k, skip), eps)
			for name, idx := range indexes {
				buf = KNNWithin(idx, buf, q, k, eps, skip)
				if !slices.Equal(buf, want) {
					t.Fatalf("norm %v, %s: KNNWithin(k=%d, eps=%v, skip=%d) = %v, want %v",
						norm, name, k, eps, skip, buf, want)
				}
			}
		}
		// The bounded query counts as one KNN query in the counting view.
		before := c.KNNQueries
		KNNWithin(indexes["counting"], nil, r.Tuples[0], 3, 1, 0)
		if c.KNNQueries != before+1 {
			t.Fatalf("counting view recorded %d KNN queries for one bounded query", c.KNNQueries-before)
		}
		cancel()
		if got := KNNWithin(indexes["ctx"], buf, r.Tuples[0], 3, 5, 0); len(got) != 0 {
			t.Fatalf("cancelled view answered %v", got)
		}
	}
}

// TestKNNWithinAppends checks the append contract: the answer lands after
// dst's existing elements, which stay untouched.
func TestKNNWithinAppends(t *testing.T) {
	r := diffRelation(100, 2, metric.L2, 9, false)
	q := r.Tuples[4]
	want := truncateAt(NewBrute(r).KNN(q, 6, 4), 2)
	var c Counters
	for _, idx := range []KNNWithinAppender{NewGrid(r, 1), NewBrute(r), Counting(NewKDTree(r), &c).(KNNWithinAppender)} {
		head := []Neighbor{{Idx: -7, Dist: 99}}
		got := idx.KNNWithinAppend(slices.Clip(head), q, 6, 2, 4)
		if got[0] != head[0] || !slices.Equal(got[1:], want) {
			t.Fatalf("%T: KNNWithinAppend = %v, want %v after the head", idx, got, want)
		}
	}
}

// TestKNNWithinMutable runs the bounded k-NN against mutable indexes of
// every kind with a pending delta and tombstones, comparing it with
// KNN(k) over a rebuild of the live rows, truncated at ε.
func TestKNNWithinMutable(t *testing.T) {
	for _, kind := range mutableKinds {
		r := randomRelation(150, 3, 17)
		m, err := NewMutable(r, 1.2, kind)
		if err != nil {
			t.Fatal(err)
		}
		m.SetMergeEvery(1 << 20) // keep every insert that misses the cells pending
		rng := rand.New(rand.NewSource(int64(kind) + 5))
		for op := 0; op < 80; op++ {
			if rng.Intn(3) == 0 {
				m.Delete(rng.Intn(m.Rel().N()))
				continue
			}
			scale := 10.0
			if rng.Intn(3) == 0 {
				scale = 30 // outside the grid's packed key range: lands in the delta
			}
			m.Insert(randomTuple(rng, 3, scale))
		}
		if m.Pending() == 0 || m.DeadCount() == 0 {
			t.Fatalf("%v: want a pending delta and tombstones, got %d pending, %d dead", kind, m.Pending(), m.DeadCount())
		}
		ref, phys := liveReference(m)
		var c Counters
		view := Counting(m, &c)
		for trial := 0; trial < 40; trial++ {
			q, skip, refSkip := randomTuple(rng, 3, 10), -1, -1
			if trial%2 == 0 {
				li := rng.Intn(len(phys))
				q, skip, refSkip = m.Rel().Tuples[phys[li]], phys[li], li
			}
			eps := 0.5 + rng.Float64()*2.5
			k := 1 + rng.Intn(30)
			want := truncateAt(ref.KNN(q, k, refSkip), eps)
			for i := range want {
				want[i].Idx = phys[want[i].Idx]
			}
			for name, idx := range map[string]Index{"mutable": m, "view": view} {
				got := KNNWithin(idx, nil, q, k, eps, skip)
				if len(got) != len(want) {
					t.Fatalf("%v %s: KNNWithin(k=%d, eps=%v) = %v, want %v", kind, name, k, eps, got, want)
				}
				for i := range got {
					if got[i].Idx != want[i].Idx || got[i].Dist != want[i].Dist {
						t.Fatalf("%v %s: KNNWithin(k=%d, eps=%v)[%d] = %v, want %v", kind, name, k, eps, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGridKNNWithinZeroAlloc asserts the η-radius pass's steady state: a
// bounded grid k-NN into a warmed buffer keeps its heap in the buffer and
// its walk on the stack, so it performs zero heap allocations.
func TestGridKNNWithinZeroAlloc(t *testing.T) {
	r := diffRelation(400, 3, metric.L2, 17, false)
	g := NewGrid(r, 1.5)
	q := r.Tuples[42]
	buf := KNNWithin(g, nil, q, 8, 1.5, 42)
	if got := testing.AllocsPerRun(200, func() {
		buf = KNNWithin(g, buf, q, 8, 1.5, 42)
	}); got != 0 {
		t.Errorf("KNNWithin allocates %.1f times per query, want 0", got)
	}
}
