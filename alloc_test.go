//go:build !race
// +build !race

package rbq

import (
	"context"
	"runtime"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// TestQueryCacheHitAllocBudget: a pooled resource-bounded DB.Query on a
// warm plan cache — the request-layer hot path, and the steady state
// QueryBatch runs in under heavy traffic — stays within a small
// fixed allocation budget (the result slice plus bookkeeping) regardless
// of graph size, under both semantics. This pins down that the request
// layer (validation, cache probe, context plumbing, Result assembly) adds
// no per-query allocations beyond it.
func TestQueryCacheHitAllocBudget(t *testing.T) {
	g := YoutubeLike(10_000, 1)
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
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		sem  Semantics
	}{{"Simulation", Simulation}, {"Subgraph", Subgraph}} {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{Semantics: tc.sem, Anchor: &vp, Alpha: 0.001}
			query := func() {
				if _, err := db.Query(ctx, q, req); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				query() // first call takes the compile miss and warms the scratch pool
			}
			// The budget tolerates the result slice and the occasional pool
			// refill after a GC; the seed implementation allocated >100
			// times per query.
			if avg := testing.AllocsPerRun(200, query); avg > 8 {
				t.Fatalf("cache-hit DB.Query allocates %.1f times per run, want ≤ 8", avg)
			}
		})
	}
}

// TestUnanchoredAllocBudget: an unanchored query stays at the 9
// allocations per query it measures on this fixture: its anchors share
// one borrowed bounded scratch and rank in a pooled buffer, so the
// count does not grow with the anchors run.
func TestUnanchoredAllocBudget(t *testing.T) {
	g := gen.Random(gen.GraphConfig{Nodes: 3000, Edges: 9000, Seed: 7, PowerLaw: true})
	db := NewDB(g)
	q := gen.PatternAt(g, 101, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 3})
	if q == nil {
		t.Fatal("could not extract a test pattern")
	}
	ctx := context.Background()
	req := Request{Mode: Unanchored, Alpha: 0.02}
	query := func() {
		if _, err := db.Query(ctx, q, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		query()
	}
	if avg := testing.AllocsPerRun(100, query); avg > 9 {
		t.Fatalf("unanchored Query allocates %.1f times per run, want ≤ 9", avg)
	}
}

// TestQueryBatchShardedAllocBudget: sharding a batch across workers must
// cost a fixed pool overhead, not per-item allocations.
func TestQueryBatchShardedAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := YoutubeLike(10_000, 1)
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
	qs := make([]AnchoredQuery, 32)
	for i := range qs {
		qs[i] = AnchoredQuery{Q: q, At: vp}
	}
	ctx := context.Background()
	req := Request{Alpha: 0.001}
	mk := func(workers int) func() {
		return func() {
			if _, err := db.QueryBatch(ctx, qs, req, workers); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial, sharded := mk(1), mk(4)
	for i := 0; i < 5; i++ {
		serial()
		sharded()
	}
	serialAvg := testing.AllocsPerRun(100, serial)
	shardedAvg := testing.AllocsPerRun(100, sharded)
	if shardedAvg > serialAvg+32 {
		t.Fatalf("sharded QueryBatch allocates %.1f times per run, serial %.1f — pool overhead must stay ≤ 32", shardedAvg, serialAvg)
	}
}

// TestQueryTraceAllocBudget: the observability layer must be free when
// off and bounded when on. WantTrace=false stays within the cache-hit
// budget of TestQueryCacheHitAllocBudget (every engine touch point is a
// nil check, like the interrupt probes), and WantTrace=true buys its span tree within a
// fixed budget — the tree is per-phase aggregates, not per-item events.
func TestQueryTraceAllocBudget(t *testing.T) {
	g := YoutubeLike(10_000, 1)
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
	ctx := context.Background()
	mk := func(trace bool) func() {
		req := Request{Anchor: &vp, Alpha: 0.001, WantTrace: trace}
		return func() {
			if _, err := db.Query(ctx, q, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	off, on := mk(false), mk(true)
	for i := 0; i < 5; i++ {
		off()
		on()
	}
	offAvg := testing.AllocsPerRun(200, off)
	onAvg := testing.AllocsPerRun(200, on)
	if offAvg > 8 {
		t.Fatalf("WantTrace=false Query allocates %.1f times per run, want ≤ 8 — trace-off must add zero allocations", offAvg)
	}
	if onAvg > offAvg+128 {
		t.Fatalf("WantTrace=true Query allocates %.1f times per run, trace-off %.1f — the span tree must stay within a fixed budget", onAvg, offAvg)
	}
}
