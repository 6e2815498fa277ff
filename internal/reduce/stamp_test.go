package reduce

import (
	"math"
	"math/rand"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// A table that served one query as a set and the next as the list memo
// (or the reverse — pooled Scratches are recycled across patterns) must
// never show the earlier epoch's entries, and an epoch counter about to
// wrap must clear the slots instead of resurrecting stale stamps.
func TestPairTableResetHidesEarlierEpochs(t *testing.T) {
	var tab pairTable
	k := pairKey{u: pattern.NodeID(3), v: graph.NodeID(12345)}
	tab.reset(8)
	tab.set(k)
	if !tab.has(k) {
		t.Fatal("pair table lost an entry within one round")
	}
	tab.reset(8)
	if tab.has(k) {
		t.Fatal("pair-table entry survived a round reset")
	}
	tab.put(packPair(k), 41)
	tab.put(packPair(k), 42) // first value wins
	if v, ok := tab.lookup(packPair(k)); !ok || v != 41 {
		t.Fatalf("lookup = %d, %v; want 41, true", v, ok)
	}
	tab.epoch = math.MaxInt32
	tab.slots[0].stamp = 1 // a stale slot the wrapped epoch would collide with
	tab.reset(8)
	if tab.epoch != 1 || tab.slots[0].stamp != 0 || tab.has(k) {
		t.Fatalf("epoch wrap did not clear the table: epoch %d", tab.epoch)
	}
	// A table grown past the cap is not kept.
	tab.slots = make([]pairSlot, 2*maxTableEntries)
	tab.reset(8)
	if len(tab.slots) != minTableEntries {
		t.Fatalf("oversized table kept %d slots across a reset", len(tab.slots))
	}
}

// The table must behave exactly like a set through growth: insert far more
// pairs than the initial hint, then verify membership of every inserted
// pair and absence of a disjoint family.
func TestPairTableGrowthIsExact(t *testing.T) {
	var tab pairTable
	tab.reset(1) // minimum size, forces several doublings below
	rng := rand.New(rand.NewSource(5))
	type pk = pairKey
	n := 3 * minTableEntries
	keys := make([]pk, 0, n)
	for i := 0; i < n; i++ {
		k := pk{u: pattern.NodeID(rng.Intn(64)), v: graph.NodeID(rng.Int31())}
		keys = append(keys, k)
		tab.set(k)
	}
	for i, k := range keys {
		if !tab.has(k) {
			t.Fatalf("key %d lost after growth", i)
		}
	}
	misses := 0
	for i := 0; i < 4096; i++ {
		// Class-disjoint probes: u beyond any inserted value.
		if tab.has(pk{u: pattern.NodeID(100 + i%28), v: graph.NodeID(i)}) {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d phantom members after growth", misses)
	}
	// A reset makes everything vanish in O(1).
	tab.reset(1)
	for i, k := range keys {
		if tab.has(k) {
			t.Fatalf("key %d survived reset", i)
		}
	}
}

// Cross-check pairTable against a Go map under random interleaved
// inserts, lookups and resets.
func TestPairTableMatchesMap(t *testing.T) {
	var tab pairTable
	tab.reset(4)
	ref := map[pairKey]bool{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200_000; i++ {
		k := pairKey{u: pattern.NodeID(rng.Intn(16)), v: graph.NodeID(rng.Intn(4096))}
		switch rng.Intn(10) {
		case 0: // reset round
			tab.reset(4)
			ref = map[pairKey]bool{}
		case 1, 2, 3, 4: // insert
			tab.set(k)
			ref[k] = true
		default: // lookup
			if got, want := tab.has(k), ref[k]; got != want {
				t.Fatalf("step %d: has(%v) = %v, map says %v", i, k, got, want)
			}
		}
	}
}
