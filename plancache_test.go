package rbq

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// indexSizes returns the plan cache's entry count and its longest key,
// after checking that the LRU and the key map agree. The key map is all
// the text index is, so these two numbers bound what it retains.
func indexSizes(t *testing.T, c *planCache) (entries, longest int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() != len(c.m) {
		t.Fatalf("LRU holds %d entries, the key map %d", c.ll.Len(), len(c.m))
	}
	for key := range c.m {
		longest = max(longest, len(key))
	}
	return c.ll.Len(), longest
}

// TestParsePatternTextIndex: DB.ParsePattern returns the cached entry's
// *Pattern for the canonical text without parsing and for any other
// spelling after parsing it; a template's first sight is not retained;
// eviction and flush end the sharing.
func TestParsePatternTextIndex(t *testing.T) {
	db, qs := preparedFixture(t, 1000)
	ctx := context.Background()
	canonical := qs[0].Q.String()
	raw := "# sent by a client that formats its own way\n" + strings.ReplaceAll(canonical, "\n", "  \n")

	first, err := db.ParsePattern(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := db.ParsePattern(canonical); again == first {
		t.Fatal("an uncompiled template was retained: two first sights share a pointer")
	}
	if n, _ := indexSizes(t, db.plans); n != 0 {
		t.Fatalf("parsing alone put %d entries in the plan cache", n)
	}
	if _, err := db.Query(ctx, first, Request{Alpha: 0.01, Anchor: Pin(qs[0].At)}); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()
	for i, text := range []string{canonical, raw, raw, canonical} {
		q, err := db.ParsePattern(text)
		if err != nil {
			t.Fatal(err)
		}
		if q != first {
			t.Fatalf("sight %d returned a fresh *Pattern for a cached template", i)
		}
	}
	if after := db.PlanCacheStats(); after != before {
		t.Fatalf("ParsePattern moved the plan cache's counters: %+v → %+v", before, after)
	}
	if n, longest := indexSizes(t, db.plans); n != 1 || longest != len(canonical) {
		t.Fatalf("%d entries, longest key %d: the raw spelling was retained", n, longest)
	}

	// A bad text is an error whether or not anything is cached.
	if _, err := db.ParsePattern("node 0 A*!\nedge 0 1x\n"); err == nil {
		t.Fatal("a malformed text parsed")
	}

	// An evicted or flushed template is parsed afresh.
	db.SetPlanCacheCapacity(1)
	if _, err := db.Query(ctx, qs[1].Q, Request{Alpha: 0.01, Anchor: Pin(qs[1].At)}); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{canonical, raw} {
		if q, _ := db.ParsePattern(text); q == first {
			t.Fatal("an evicted template is still served from the index")
		}
	}
	if q, _ := db.ParsePattern(qs[1].Q.String()); q != qs[1].Q {
		t.Fatal("the template that replaced it is not served from the index")
	}
	db.plans.flush(0)
	if q, _ := db.ParsePattern(qs[1].Q.String()); q == qs[1].Q {
		t.Fatal("a flushed template is still served from the index")
	}
}

// TestTextIndexBoundedUnderHostileKeys: the texts are whatever a client
// sends. Ten thousand distinct templates, ten thousand distinct spellings
// of one template and a 1 MiB text leave the cache at its capacity and
// holding canonical keys only — no text a client padded.
func TestTextIndexBoundedUnderHostileKeys(t *testing.T) {
	db, qs := preparedFixture(t, 1000)
	ctx := context.Background()
	const capacity = 16
	db.SetPlanCacheCapacity(capacity)
	label := qs[0].Q.Label(0)
	canonical := qs[0].Q.String()
	maxKey := len(canonical)

	// Distinct templates, each compiled and each then sent twice more in
	// a raw spelling of its own.
	for i := 0; i < 10_000; i++ {
		text := fmt.Sprintf("node 0 %s*\nnode 1 L%d!\nedge 0 1\n", label, i)
		q, err := db.ParsePattern(text)
		if err != nil {
			t.Fatal(err)
		}
		maxKey = max(maxKey, len(q.String()))
		// The labels do not exist: the query compiles, caches and finds nothing.
		if _, err := db.Query(ctx, q, Request{Mode: Unanchored, Alpha: 0.01}); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := db.ParsePattern("# " + fmt.Sprint(i) + "\n" + text); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, longest := indexSizes(t, db.plans); n != capacity || longest > maxKey {
		t.Fatalf("distinct templates: %d entries, longest key %d", n, longest)
	}

	// One cached template under ten thousand spellings.
	if _, err := db.Query(ctx, qs[0].Q, Request{Alpha: 0.01, Anchor: Pin(qs[0].At)}); err != nil {
		t.Fatal(err)
	}
	cached, _ := db.ParsePattern(canonical)
	for i := 0; i < 10_000; i++ {
		q, err := db.ParsePattern(fmt.Sprintf("# spelling %d\n%s", i, canonical))
		if err != nil || q != cached {
			t.Fatalf("spelling %d: %v, cached pointer %v", i, err, q == cached)
		}
	}
	if n, longest := indexSizes(t, db.plans); n != capacity || longest > maxKey {
		t.Fatalf("many spellings: %d entries, longest key %d", n, longest)
	}

	// A 1 MiB text parses to the cached template and is not kept.
	huge := "#" + strings.Repeat("x", 1<<20) + "\n" + canonical
	for range 2 {
		q, err := db.ParsePattern(huge)
		if err != nil || q != cached {
			t.Fatalf("1 MiB text: %v, cached pointer %v", err, q == cached)
		}
	}
	if n, longest := indexSizes(t, db.plans); n != capacity || longest > maxKey {
		t.Fatalf("1 MiB text: %d entries, longest key %d", n, longest)
	}
}
