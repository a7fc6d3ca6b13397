package neighbors

import (
	"math/rand"
	"testing"

	"repro/internal/data"
)

// TestCellKeyerCollisionSafety pins both key layouts of the grid's keyer,
// through the calls the grid makes: distinct in-range cells map to distinct
// packed keys and distinct string keys, out-of-range probes are rejected by
// PackKey before key construction, and the string fallback stays total and
// collision-free for those probes.
func TestCellKeyerCollisionSafety(t *testing.T) {
	r := data.NewRelation(data.NewNumericSchema("x", "y", "z"))
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		// Negative coordinates exercise the min-offset logic.
		r.Append(data.Tuple{
			data.Num(rng.Float64()*40 - 20),
			data.Num(rng.Float64()*40 - 20),
			data.Num(rng.Float64()*40 - 20),
		})
	}
	k := NewGrid(r, 1.5).key
	if !k.packed {
		t.Fatal("keyer over a compact range should use packed keys")
	}

	// Exhaustive bijectivity over the in-range coordinate box, through both
	// PackKey and StringKey.
	seenU := make(map[uint64][3]int)
	seenS := make(map[string][3]int)
	c := make([]int, 3)
	for c[0] = k.minC[0]; c[0] <= k.maxC[0]; c[0]++ {
		for c[1] = k.minC[1]; c[1] <= k.maxC[1]; c[1]++ {
			for c[2] = k.minC[2]; c[2] <= k.maxC[2]; c[2]++ {
				key, ok := k.PackKey(c)
				if !ok {
					t.Fatalf("in-range cell %v rejected", c)
				}
				if prev, dup := seenU[key]; dup {
					t.Fatalf("cells %v and %v collide on key %#x", prev, c, key)
				}
				seenU[key] = [3]int{c[0], c[1], c[2]}
				sk := string(k.StringKey(nil, c))
				if prev, dup := seenS[sk]; dup {
					t.Fatalf("cells %v and %v collide on string key %q", prev, c, sk)
				}
				seenS[sk] = [3]int{c[0], c[1], c[2]}
			}
		}
	}

	// Out-of-range probes: PackKey must reject them, and their string key
	// must not alias any in-range cell's.
	for trial := 0; trial < 200; trial++ {
		for a := range c {
			c[a] = k.minC[a] + rng.Intn(k.maxC[a]-k.minC[a]+1)
		}
		a := rng.Intn(3)
		if rng.Intn(2) == 0 {
			c[a] = k.minC[a] - 1 - rng.Intn(1<<20)
		} else {
			c[a] = k.maxC[a] + 1 + rng.Intn(1<<20)
		}
		if _, ok := k.PackKey(c); ok {
			t.Fatalf("out-of-range cell %v accepted", c)
		}
		if prev, dup := seenS[string(k.StringKey(nil, c))]; dup {
			t.Fatalf("out-of-range cell %v aliases in-range cell %v", c, prev)
		}
	}
}
