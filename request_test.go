package rbq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/obs"
)

// TestRequestValidation: malformed requests fail with ErrBadRequest
// before touching the engines.
func TestRequestValidation(t *testing.T) {
	db, qs := preparedFixture(t, 500)
	q := qs[0].Q
	bad := []Request{
		{Semantics: 7, Alpha: 0.1},                       // unknown semantics
		{Mode: 9, Alpha: 0.1},                            // unknown mode
		{Alpha: -0.5},                                    // negative alpha
		{Alpha: math.NaN()},                              // NaN alpha
		{Mode: Unanchored, Alpha: -1},                    // negative alpha, Unanchored
		{Mode: Exact, Alpha: 0.5},                        // alpha in Exact mode
		{Mode: Unanchored, Alpha: 0.1, Anchor: Pin(0)},   // anchored Unanchored
		{Semantics: Subgraph, Alpha: 0.1, MaxSteps: -1},  // negative step cap
		{Alpha: 0.1, MaxSteps: 5},                        // MaxSteps on Simulation
		{Semantics: Subgraph, Mode: Exact, MaxSteps: -3}, // negative cap, Exact
		{Semantics: -1, Mode: Exact},                     // negative semantics
	}
	for i, req := range bad {
		if _, err := db.Query(context.Background(), q, req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadRequest", i, req, err)
		}
	}
	// α = 0 is NOT an error: budget 0, empty answer — the seed contract.
	if r, err := db.Query(context.Background(), q, Request{Alpha: 0, Anchor: Pin(qs[0].At)}); err != nil || r.Budget != 0 || r.Matches != nil {
		t.Errorf("alpha=0: got %+v, %v; want empty zero-budget result", r, err)
	}
	// A bad request must also fail QueryBatch.
	if _, err := db.QueryBatch(context.Background(), qs, Request{Alpha: -1}, 1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("QueryBatch: err = %v, want ErrBadRequest", err)
	}
	// Batch-specific constraints.
	if _, err := db.QueryBatch(context.Background(), qs, Request{Mode: Unanchored, Alpha: 0.1}, 1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("QueryBatch Unanchored: err = %v, want ErrBadRequest", err)
	}
	if _, err := db.QueryBatch(context.Background(), qs, Request{Alpha: 0.1, Anchor: Pin(0)}, 1); !errors.Is(err, ErrBadRequest) {
		t.Errorf("QueryBatch with Anchor: err = %v, want ErrBadRequest", err)
	}
}

// TestPlanCacheShareAndEvict: textual identity dedups pointer-distinct
// patterns, counters add up, and the capacity bound holds under
// eviction.
func TestPlanCacheShareAndEvict(t *testing.T) {
	db, qs := preparedFixture(t, 1000)
	q := qs[0].Q

	// Two pointer-distinct parses of the same text share one plan.
	q2, err := ParsePattern(q.String())
	if err != nil {
		t.Fatal(err)
	}
	if q2 == q {
		t.Fatal("fixture broken: same pointer")
	}
	want, err := db.Query(context.Background(), q, Request{Alpha: 0.01, Anchor: Pin(qs[0].At)})
	if err != nil {
		t.Fatal(err)
	}
	cs := db.PlanCacheStats()
	if cs.Misses != 1 || cs.Hits != 0 || cs.Size != 1 {
		t.Fatalf("after first query: %+v", cs)
	}
	r, err := db.Query(context.Background(), q2, Request{Alpha: 0.01, Anchor: Pin(qs[0].At), WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if hit, _ := r.Trace.Find(obs.PhasePlan).Counter("cache_hit"); hit != 1 {
		t.Fatal("pointer-distinct same-text pattern missed the cache")
	}
	cs = db.PlanCacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Size != 1 {
		t.Fatalf("after textual-identity hit: %+v", cs)
	}

	// Eviction: capacity 2, three distinct templates.
	db.SetPlanCacheCapacity(2)
	for _, aq := range qs[:3] {
		if _, err := db.Query(context.Background(), aq.Q, Request{Alpha: 0.01, Anchor: Pin(aq.At)}); err != nil {
			t.Fatal(err)
		}
	}
	cs = db.PlanCacheStats()
	if cs.Size > 2 || cs.Capacity != 2 {
		t.Fatalf("capacity bound violated: %+v", cs)
	}
	// An evicted template still answers as before (recompiled on miss).
	got, err := db.Query(context.Background(), qs[0].Q, Request{Alpha: 0.01, Anchor: Pin(qs[0].At)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-eviction answer diverged: %+v != %+v", got, want)
	}
}

// TestPlanCacheConcurrentHammer: many goroutines hammer DB.Query over a
// template set larger than the cache capacity (constant churn of
// eviction, recompilation and sharing) and every answer must equal the
// serial baseline. Run with -race in CI.
func TestPlanCacheConcurrentHammer(t *testing.T) {
	db, qs := preparedFixture(t, 2000)
	db.SetPlanCacheCapacity(2) // force eviction churn across templates

	// Serial ground truth per (query, semantics).
	wantSim := make([]Result, len(qs))
	wantSub := make([]Result, len(qs))
	for i, aq := range qs {
		wantSim[i], _ = db.Query(context.Background(), aq.Q, Request{Alpha: 0.01, Anchor: Pin(aq.At)})
		wantSub[i], _ = db.Query(context.Background(), aq.Q, Request{Semantics: Subgraph, Alpha: 0.01, Anchor: Pin(aq.At)})
	}

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				i := (w + it) % len(qs)
				req := Request{Alpha: 0.01, Anchor: Pin(qs[i].At)}
				want := wantSim[i]
				if (w+it)%2 == 1 {
					req.Semantics = Subgraph
					want = wantSub[i]
				}
				got, err := db.Query(ctx, qs[i].Q, req)
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errc <- fmt.Errorf("worker %d iter %d: %+v != %+v", w, it, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	cs := db.PlanCacheStats()
	if cs.Size > 2 {
		t.Fatalf("capacity bound violated under concurrency: %+v", cs)
	}
	if cs.Hits+cs.Misses < goroutines*iters {
		t.Fatalf("lookup counters lost updates: %+v", cs)
	}
}

// TestQueryCancellation: a canceled context makes a large bounded query
// return promptly with ctx.Err(), on both the one-shot and batch paths.
func TestQueryCancellation(t *testing.T) {
	g := YoutubeLike(60_000, 1)
	db := NewDB(g)
	var q *Pattern
	var vp NodeID
	for seed := int64(0); seed < 50 && q == nil; seed++ {
		cand := NodeID(int(seed*131+17) % g.NumNodes())
		if g.Degree(cand) < 2 {
			continue
		}
		q = gen.PatternAt(g, graph.NodeID(cand), gen.PatternConfig{Nodes: 4, Edges: 8, Seed: seed})
		vp = cand
	}
	if q == nil {
		t.Fatal("could not extract a test pattern")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the query starts: the probe must fire early
	req := Request{Anchor: Pin(vp), Alpha: 0.8}
	start := time.Now()
	res, err := db.Query(ctx, q, req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Matches != nil || res.Visited != 0 {
		t.Fatalf("canceled query leaked a result: %+v", res)
	}
	// The engine stops within one probe stride (~1024 visited items); a
	// generous wall-clock bound keeps the promptness check unflaky.
	if elapsed > 2*time.Second {
		t.Fatalf("canceled query took %v, want prompt return", elapsed)
	}

	// The same query on a live context succeeds (the probe is harmless).
	if _, err := db.Query(context.Background(), q, req); err != nil {
		t.Fatal(err)
	}

	// Batch path: canceled context surfaces ctx.Err() and zero results
	// for unprocessed items.
	batch := []AnchoredQuery{{Q: q, At: vp}, {Q: q, At: vp}}
	rs, err := db.QueryBatch(ctx, batch, Request{Alpha: 0.5}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryBatch err = %v, want context.Canceled", err)
	}
	if len(rs) != len(batch) {
		t.Fatalf("QueryBatch returned %d results for %d items", len(rs), len(batch))
	}

	// An expiring deadline also cancels mid-search.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer dcancel()
	time.Sleep(time.Millisecond) // let the deadline fire
	if _, err := db.Query(dctx, q, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestQueryStats: WantTrace carries the per-query telemetry — the
// plan-cache outcome and the reduction's counters, which agree with the
// Result's — and without it the hot path carries no trace.
func TestQueryStats(t *testing.T) {
	db, qs := preparedFixture(t, 1500)
	aq := qs[0]
	ctx := context.Background()

	r, err := db.Query(ctx, aq.Q, Request{Anchor: Pin(aq.At), Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace != nil {
		t.Fatal("Trace present without WantTrace")
	}
	r, err = db.Query(ctx, aq.Q, Request{Anchor: Pin(aq.At), Alpha: 0.01, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("Trace missing with WantTrace")
	}
	if hit, _ := r.Trace.Find(obs.PhasePlan).Counter("cache_hit"); hit != 1 {
		t.Fatal("second query on the same template should hit the cache")
	}
	rs := r.Trace.Find(obs.PhaseReduce)
	budget, _ := rs.Counter("budget")
	visited, _ := rs.Counter("visited")
	if int(budget) != r.Budget || int(visited) != r.Visited {
		t.Fatalf("reduce span budget=%d visited=%d, Result budget=%d visited=%d", budget, visited, r.Budget, r.Visited)
	}
	if d := r.Trace.Find(obs.PhaseExec).Dur; d <= 0 {
		t.Fatalf("exec span duration = %v, want > 0", d)
	}

	// A template the cache has not seen reports a miss that took time.
	r, err = db.Query(ctx, qs[1].Q, Request{Anchor: Pin(qs[1].At), Alpha: 0.01, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	ps := r.Trace.Find(obs.PhasePlan)
	if hit, _ := ps.Counter("cache_hit"); hit != 0 || ps.Dur <= 0 {
		t.Fatalf("cold plan span: cache_hit=%d dur=%v", hit, ps.Dur)
	}
}

// TestQueryNilPattern: a nil pattern is rejected, not a panic.
func TestQueryNilPattern(t *testing.T) {
	db, _ := preparedFixture(t, 500)
	if _, err := db.Query(context.Background(), nil, Request{Alpha: 0.1}); err == nil {
		t.Fatal("nil pattern accepted")
	}
}
