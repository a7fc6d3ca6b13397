package coord

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingOwners pins the consistent-hash contract: deterministic distinct
// owners, stability under node-order permutation, and bounded movement
// when one node leaves.
func TestRingOwners(t *testing.T) {
	nodes := []string{"http://w0", "http://w1", "http://w2", "http://w3"}
	r := newRing(nodes)

	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%d", i)
	}
	for _, k := range keys {
		owners := r.owners(k, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("owners(%q, 2) = %v", k, owners)
		}
		if got := r.owners(k, 2); !reflect.DeepEqual(got, owners) {
			t.Fatalf("owners(%q) not deterministic: %v vs %v", k, got, owners)
		}
		// Clamped to the node count, all distinct.
		all := r.owners(k, 10)
		if len(all) != len(nodes) {
			t.Fatalf("owners(%q, 10) = %v, want all %d nodes", k, all, len(nodes))
		}
		seen := map[string]bool{}
		for _, o := range all {
			if seen[o] {
				t.Fatalf("owners(%q, 10) repeats %q", k, o)
			}
			seen[o] = true
		}
	}

	// Placement ignores registration order.
	perm := newRing([]string{"http://w3", "http://w1", "http://w0", "http://w2"})
	for _, k := range keys {
		if !reflect.DeepEqual(r.owners(k, 2), perm.owners(k, 2)) {
			t.Fatalf("owner set for %q depends on node order", k)
		}
	}

	// Losing one node re-homes only the keys it owned: every key whose
	// primary was elsewhere keeps its primary.
	smaller := newRing(nodes[:3])
	moved := 0
	for _, k := range keys {
		before := r.owners(k, 1)[0]
		after := smaller.owners(k, 1)[0]
		if before == nodes[3] {
			moved++
			continue
		}
		if after != before {
			t.Fatalf("key %q moved from %q to %q though %q stayed up", k, before, after, nodes[3])
		}
	}
	if moved == 0 {
		t.Fatal("no key was primaried on the removed node; the test proved nothing")
	}

	// Rough balance: with 64 vnodes no node should own a wildly
	// disproportionate share.
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.owners(k, 1)[0]]++
	}
	for n, c := range counts {
		if c < len(keys)/len(nodes)/4 {
			t.Fatalf("node %s owns only %d of %d keys", n, c, len(keys))
		}
	}
}

// TestRingEmpty pins the degenerate inputs.
func TestRingEmpty(t *testing.T) {
	if got := newRing(nil).owners("k", 2); got != nil {
		t.Fatalf("empty ring returned owners %v", got)
	}
	if got := newRing([]string{"a"}).owners("k", 0); got != nil {
		t.Fatalf("count=0 returned owners %v", got)
	}
}

// TestRingGoldenPlacement pins placement itself: sessions placed before a
// coordinator restart (or an upgrade) must land on the same owners, in the
// same failover order, afterwards. A change to the hash, the vnode count or
// the vnode naming shows up here.
func TestRingGoldenPlacement(t *testing.T) {
	const w1, w2, w3 = "http://127.0.0.1:8081", "http://127.0.0.1:8082", "http://127.0.0.1:8083"
	r := newRing([]string{w1, w2, w3})
	want := map[string][]string{
		"g-0001": {w2, w1, w3},
		"g-0002": {w3, w2, w1},
		"g-0003": {w1, w2, w3},
		"g-0004": {w1, w2, w3},
		"g-0005": {w3, w1, w2},
		"g-0006": {w1, w3, w2},
		"g-0007": {w3, w1, w2},
		"g-0008": {w3, w1, w2},
	}
	for key, owners := range want {
		if got := r.owners(key, 3); !reflect.DeepEqual(got, owners) {
			t.Errorf("owners(%q, 3) = %v, want %v", key, got, owners)
		}
	}
}
