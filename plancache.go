package rbq

// The DB-level plan cache: a bounded, concurrency-safe LRU of compiled
// plans keyed by pattern identity (the textual form of Pattern.String,
// cached on the pattern so a hit costs no allocation). Independent
// callers issuing the same hot template — even from pointer-distinct
// Parse results — share one compiled plan.
//
// A plan is compiled against the label alphabet, not a snapshot (see
// internal/plan), so an entry outlives Apply and compaction: it holds no
// graph or Aux, and each query binds the snapshot it pinned at run time.
//
// The LRU's key map doubles as a text index: DB.ParsePattern maps the
// canonical text a caller sent to the *Pattern a cached entry already
// holds, so a serving tier that receives the same template text on every
// request parses it once per cache residency, and every sight of a
// template yields one pointer — which is what QueryBatch dedups on.

import (
	"container/list"
	"fmt"
	"sync"

	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/plan"
)

// DefaultPlanCacheCapacity is the number of distinct pattern templates a
// DB keeps compiled; see DB.SetPlanCacheCapacity.
const DefaultPlanCacheCapacity = 256

// PlanCacheStats is a snapshot of a DB's plan-cache counters.
type PlanCacheStats struct {
	// Hits and Misses count lookups since the DB was built. A miss
	// compiles the pattern and inserts it (evicting the least recently
	// used entry when full), so Misses also counts compilations.
	Hits, Misses uint64
	// Invalidations counts the subset of Misses caused by mutation: the
	// template was cached, but compiled at a smaller label alphabet than
	// the querying snapshot's — an Apply added a label since — so this
	// lookup recompiled it. An Apply that adds no label, and every
	// compaction, leave cached plans valid.
	Invalidations uint64
	// Size is the number of plans currently cached; Capacity the bound.
	Size, Capacity int
}

// planCache is the bounded LRU. Plans are immutable after compilation,
// so one entry may serve concurrent queries; the mutex guards only the
// map and the recency list.
//
// A plan is valid for a snapshot whose alphabet has as many labels as
// the one it was compiled at (label ids only grow by appending, so equal
// counts mean equal tables); a lookup at a larger alphabet recompiles
// the entry in place.
type planCache struct {
	mu            sync.Mutex
	capacity      int
	ll            list.List // front = most recently used; values are *planEntry
	m             map[string]*list.Element
	hits, misses  uint64
	invalidations uint64
}

type planEntry struct {
	key string
	q   *Pattern // the text index hands it out (see parse)
	pl  *plan.Plan
}

func newPlanCache(capacity int) *planCache {
	c := &planCache{capacity: capacity, m: make(map[string]*list.Element)}
	c.ll.Init()
	return c
}

// parse is pattern.Parse behind the text index: a text that is the key
// of a cached entry — the canonical form Pattern.String renders, which is
// what the clients of a serving tier send — returns that entry's *Pattern
// without parsing. Anything else is parsed; if its canonical form is
// cached, the cached *Pattern is returned, so all sights of a template
// share one pointer. The index is the LRU's own key map: it retains no
// text of its own, whatever a caller sends. Recency and the hit/miss
// counters belong to lookup alone.
func (c *planCache) parse(text string) (*Pattern, error) {
	if q := c.cached(text); q != nil {
		return q, nil
	}
	q, err := pattern.Parse(text)
	if err != nil {
		return nil, err
	}
	if cq := c.cached(q.String()); cq != nil {
		return cq, nil
	}
	return q, nil
}

// cached returns the *Pattern of the entry keyed key, or nil.
func (c *planCache) cached(key string) *Pattern {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		return el.Value.(*planEntry).q
	}
	return nil
}

// lookup returns the compiled plan for q valid at aux's alphabet,
// compiling and inserting it on a miss. A cached entry compiled at a
// smaller alphabet counts as an invalidation: it is recompiled against
// aux and replaced. hit reports whether a valid plan was already cached.
func (c *planCache) lookup(aux *graph.Aux, q *Pattern) (pl *plan.Plan, hit bool, err error) {
	if q == nil {
		return nil, false, fmt.Errorf("rbq: nil pattern")
	}
	key := q.String() // cached on the pattern: no render, no allocation
	n := aux.Graph().NumLabels()
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*planEntry)
		if e.pl.NumLabels() == n {
			c.ll.MoveToFront(el)
			c.hits++
			pl = e.pl
			c.mu.Unlock()
			return pl, true, nil
		}
		if e.pl.NumLabels() < n {
			// Only a genuinely stale entry counts as a mutation-caused
			// invalidation; finding one compiled at a LARGER alphabet (a
			// reader of a fresher snapshot got there first) is a plain
			// miss for this older-snapshot query.
			c.invalidations++
		}
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: concurrent misses on distinct templates
	// must not serialize behind one compilation.
	pl, err = plan.New(aux, q)
	if err != nil {
		return nil, false, fmt.Errorf("rbq: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*planEntry)
		switch {
		case e.pl.NumLabels() == n:
			// Another goroutine compiled the same template at this
			// alphabet first; share its plan so concurrent evaluations
			// converge.
			c.ll.MoveToFront(el)
			return e.pl, false, nil
		case e.pl.NumLabels() < n:
			e.pl = pl
			c.ll.MoveToFront(el)
		}
		// An entry at a larger alphabet stays: it serves every later
		// snapshot, this query its own consistent plan.
		return pl, false, nil
	}
	c.m[key] = c.ll.PushFront(&planEntry{key: key, q: q, pl: pl})
	c.evictLocked()
	return pl, false, nil
}

func (c *planCache) evictLocked() {
	for c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*planEntry).key)
	}
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations,
		Size: c.ll.Len(), Capacity: c.capacity,
	}
}

func (c *planCache) setCapacity(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	c.evictLocked()
}

// ParsePattern is the package-level ParsePattern through the plan
// cache's text index: the canonical text (Pattern.String) of a cached
// template returns the cached *Pattern without parsing; any other text is
// parsed, and if its template is cached the cached *Pattern is returned
// all the same — so every caller sending a template gets one pointer,
// and QueryBatch resolves it once per batch. The index retains nothing a
// caller sends. Safe for concurrent use.
func (db *DB) ParsePattern(text string) (*Pattern, error) { return db.plans.parse(text) }

// PlanCacheStats returns the DB's plan-cache counters: how many Query
// calls found their template compiled (hits) versus compiled it (misses),
// and the cache occupancy. The same outcome is reported per query as the
// trace's plan-span counter cache_hit when Request.WantTrace is set.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.stats() }

// SetPlanCacheCapacity bounds the plan cache to n compiled templates
// (minimum 1; the default is DefaultPlanCacheCapacity), evicting the
// least recently used entries if it already holds more. Safe to call
// concurrently with queries; in-flight evaluations of an evicted plan
// run to completion.
func (db *DB) SetPlanCacheCapacity(n int) { db.plans.setCapacity(n) }
