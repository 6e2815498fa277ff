package rbq

// The DB-level plan cache: a bounded, concurrency-safe LRU of compiled
// plans keyed by pattern identity (the textual form of Pattern.String,
// cached on the pattern so a hit costs no allocation). Independent
// callers issuing the same hot template — even from pointer-distinct
// Parse results — share one compiled plan; PreparedQuery remains the
// explicit, cache-independent way to pin a compilation.
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
	// template was cached, but compiled at an older snapshot epoch, so
	// this lookup recompiled it against the current snapshot. (A
	// label-alphabet-growing Apply flushes the cache wholesale instead;
	// that shows up as Size dropping to zero and plain Misses as hot
	// templates refill it.)
	Invalidations uint64
	// WarmerRecompiles counts recompilations performed by the background
	// plan warmer (see DB.SetPlanWarmCount) — epoch-stale entries brought
	// current off the reader path. They are not Misses: no query paid for
	// them.
	WarmerRecompiles uint64
	// Size is the number of plans currently cached; Capacity the bound.
	Size, Capacity int
}

// planCache is the bounded LRU. Plans are immutable after compilation
// (their lazy selectivity tier is internally synchronized), so one entry
// may serve concurrent queries; the mutex guards only the map and the
// recency list.
//
// Entries are stamped with the snapshot epoch they were compiled at. A
// plan binds everything epoch-dependent — interned labels, Aux-bound
// semantics, the unique personalized match, selectivity — so a hit
// requires the entry's epoch to equal the querying snapshot's; stale
// entries are recompiled in place (per-snapshot invalidation). An Apply
// that grows the label alphabet flushes the whole cache instead (see
// mutate.go).
type planCache struct {
	mu            sync.Mutex
	capacity      int
	ll            list.List // front = most recently used; values are *planEntry
	m             map[string]*list.Element
	hits, misses  uint64
	invalidations uint64
	warmed        uint64

	// minEpoch is the floor set by flush (and raised by raiseMinEpoch on
	// a non-flushing compaction): entries compiled at older epochs are
	// never (re)inserted, so a reader that pinned a pre-compaction
	// snapshot cannot re-pin the replaced base into the LRU after it was
	// dropped.
	minEpoch uint64
}

type planEntry struct {
	key   string
	q     *Pattern // retained so the warmer can recompile without a reader
	pl    *plan.Plan
	epoch uint64
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

// lookup returns the compiled plan for q at the given snapshot epoch,
// compiling and inserting it on a miss. A cached entry compiled at an
// older epoch counts as an invalidation: it is recompiled against aux
// (the querying snapshot's) and replaced. hit reports whether a
// current-epoch plan was already cached.
func (c *planCache) lookup(aux *graph.Aux, epoch uint64, q *Pattern) (pl *plan.Plan, hit bool, err error) {
	if q == nil {
		return nil, false, fmt.Errorf("rbq: nil pattern")
	}
	key := q.String() // cached on the pattern: no render, no allocation
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*planEntry)
		if e.epoch == epoch {
			c.ll.MoveToFront(el)
			c.hits++
			pl = e.pl
			c.mu.Unlock()
			return pl, true, nil
		}
		if e.epoch < epoch {
			// Only a genuinely stale entry counts as a mutation-caused
			// invalidation; finding one compiled at a NEWER epoch (a
			// racing reader of a fresher snapshot got there first) is a
			// plain miss for this older-snapshot query.
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
		if e.epoch == epoch {
			// Another goroutine compiled the same template at this epoch
			// first; share its plan so concurrent evaluations converge.
			c.ll.MoveToFront(el)
			return e.pl, false, nil
		}
		// The entry is stale (or was compiled at a newer epoch by a
		// racing reader of a fresher snapshot — equally unusable here):
		// hand this query its own consistent plan and let the entry
		// carry the newer of the two compilations.
		if e.epoch < epoch {
			e.pl, e.epoch = pl, epoch
			c.ll.MoveToFront(el)
		}
		return pl, false, nil
	}
	if epoch < c.minEpoch {
		// A flush ran while this plan compiled (its snapshot was
		// replaced): serve the query its consistent plan, but do not
		// cache it — caching would re-pin the replaced snapshot.
		return pl, false, nil
	}
	c.m[key] = c.ll.PushFront(&planEntry{key: key, q: q, pl: pl, epoch: epoch})
	c.evictLocked()
	return pl, false, nil
}

// flush empties the cache; mutate.go calls it when an Apply grows the
// label alphabet (compiled plans resolve absent labels to sentinels,
// which a new label can stale across every template at once), and on
// compaction when the warmer is disabled (stale entries are unservable
// anyway under epoch keying, but each pins its snapshot — after a
// compaction that is the entire replaced base CSR + Aux, which must not
// sit in the LRU until eviction). Dropped entries are not counted as
// invalidations — that counter tracks recompiles actually performed (a
// subset of Misses), and a flushed template that is never queried again
// costs nothing. In-flight evaluations of dropped plans run to
// completion — plans are immutable and self-contained.
// minEpoch is the epoch of the snapshot being published with the
// flush; see planCache.minEpoch.
func (c *planCache) flush(minEpoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.m)
	c.minEpoch = minEpoch
}

// raiseMinEpoch is a compaction handoff without the wholesale flush:
// entries stay cached (the warmer brings the hottest current; a reader
// recompiles the rest on demand), but nothing compiled before the
// compaction can be (re)inserted. Used when the label alphabet did not
// change, so stale plans are merely epoch-stale, not semantically wrong.
func (c *planCache) raiseMinEpoch(minEpoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if minEpoch > c.minEpoch {
		c.minEpoch = minEpoch
	}
}

// warm recompiles up to n of the most recently used epoch-stale entries
// against aux (the snapshot published at epoch), off any reader's path.
// When evictStale is set — the compaction handoff, where stale plans pin
// the entire replaced base — the stale entries beyond the hottest n are
// dropped instead of left to age out. Recompilation happens outside the
// lock; an entry is only replaced if it is still present, still older
// than epoch, and epoch has not itself been flushed past. Returns the
// number of entries brought current.
func (c *planCache) warm(aux *graph.Aux, epoch uint64, n int, evictStale bool) int {
	type target struct {
		key string
		q   *Pattern
	}
	var targets []target
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*planEntry); e.epoch < epoch {
			if len(targets) < n {
				targets = append(targets, target{e.key, e.q})
			} else if evictStale {
				c.ll.Remove(el)
				delete(c.m, e.key)
			}
		}
		el = next
	}
	c.mu.Unlock()

	recompiled := 0
	for _, t := range targets {
		pl, err := plan.New(aux, t.q)
		if err != nil {
			continue // the next reader will surface the error
		}
		c.mu.Lock()
		if el, ok := c.m[t.key]; ok {
			e := el.Value.(*planEntry)
			// Do not MoveToFront: a background recompile is not a use and
			// must not perturb the recency order readers established.
			if e.epoch < epoch && epoch >= c.minEpoch {
				e.pl, e.epoch = pl, epoch
				c.warmed++
				recompiled++
			}
		}
		c.mu.Unlock()
	}
	return recompiled
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
		WarmerRecompiles: c.warmed,
		Size:             c.ll.Len(), Capacity: c.capacity,
	}
}

func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
// and the cache occupancy. The same outcome is reported per query in
// QueryStats.PlanCacheHit when Request.WantStats is set.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.stats() }

// SetPlanCacheCapacity bounds the plan cache to n compiled templates
// (minimum 1; the default is DefaultPlanCacheCapacity), evicting the
// least recently used entries if it already holds more. Safe to call
// concurrently with queries; in-flight evaluations of an evicted plan
// run to completion.
func (db *DB) SetPlanCacheCapacity(n int) { db.plans.setCapacity(n) }
