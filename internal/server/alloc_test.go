//go:build !race

package server

// The serving tier's allocation gates, in the manner of the root
// package's: what a warm request may allocate is a budget, not a hope.
// The race detector changes allocation behavior, so these are skipped
// under -race (the hammers cover the same paths there).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"rbq"
)

// serveOnce runs one POST through h with a recorder and returns the
// status; the request and recorder are the harness's allocations.
func serveOnce(h http.Handler, route string, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	return rec.Code
}

// TestQueryHandlerAllocBudget: a cache-hit /v1/query through the whole
// handler — request id, body read, decode, text index, admission,
// deadline, engine, encode, metrics, access log — costs at most 40
// allocations beyond the harness's own (it was 126 with the per-request
// parse, the reflection encoder and json.Marshal of the log line).
func TestQueryHandlerAllocBudget(t *testing.T) {
	h := New(socialDB(t), Config{AccessLog: &bytes.Buffer{}}).Handler()
	body, _ := json.Marshal(QueryRequest{Pattern: patText, Alpha: 0.9, Anchor: ptr(int64(0))})
	for i := 0; i < 8; i++ { // compile the plan, grow the pooled buffers
		if code := serveOnce(h, RouteQuery, body); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	harness := testing.AllocsPerRun(200, func() { serveOnce(noop, RouteQuery, body) })
	total := testing.AllocsPerRun(200, func() { serveOnce(h, RouteQuery, body) })
	t.Logf("net %.1f harness %.1f", total-harness, harness)
	if net := total - harness; net > 40 {
		t.Fatalf("a cache-hit /v1/query allocates %.1f times beyond the harness's %.1f, want ≤ 40", net, harness)
	}
}

// TestBatchSingleTemplateOneLookup: the items of a batch that name one
// cached template resolve, through the text index, to one *Pattern, so
// the batch costs the plan cache exactly one lookup.
func TestBatchSingleTemplateOneLookup(t *testing.T) {
	db := socialDB(t)
	h := New(db, Config{}).Handler()
	br := BatchRequest{Alpha: 0.9}
	for i := 0; i < 64; i++ {
		br.Items = append(br.Items, BatchItem{Pattern: patText, Anchor: 0})
	}
	body, _ := json.Marshal(br)
	if code := serveOnce(h, RouteBatch, body); code != http.StatusOK { // first sight compiles
		t.Fatalf("status %d", code)
	}
	before := db.PlanCacheStats()
	if code := serveOnce(h, RouteBatch, body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	after := db.PlanCacheStats()
	if lookups := (after.Hits + after.Misses) - (before.Hits + before.Misses); lookups != 1 || after.Misses != before.Misses {
		t.Fatalf("a 64-item single-template batch cost %d plan-cache lookups (%d misses), want one hit",
			lookups, after.Misses-before.Misses)
	}
}

// TestQueryAfterApplyReusesScratch: the first query of a new epoch
// borrows the scratch the previous epoch's queries returned — on a
// 20k-node graph the query that builds the scratch allocates about 210 KB
// (its plan compile included), and the query after an Apply must
// allocate less than 48 KB. The collector is off for the
// test: a GC may empty any sync.Pool, which is not what is gated here.
// And it runs on one P: sync.Pool.Put parks the scratch in the current
// P's private slot, and a Get after the goroutine migrated (ReadMemStats
// stops the world between the two) cannot steal it. The gate is "scratch
// follows the lineage", not "sync.Pool is migration-proof".
func TestQueryAfterApplyReusesScratch(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := rbq.YoutubeLike(20_000, 1)
	db := rbq.NewDB(g)
	h := New(db, Config{}).Handler()
	pin := int64(0)
	for g.Degree(rbq.NodeID(pin)) < 2 {
		pin++
	}
	text := "node 0 " + g.Label(rbq.NodeID(pin)) + "*!\n"
	for _, sem := range []string{"sim", "sub"} {
		body, _ := json.Marshal(QueryRequest{Pattern: text, Semantics: sem, Alpha: 0.001, Anchor: &pin})
		query := func() uint64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if code := serveOnce(h, RouteQuery, body); code != http.StatusOK {
				t.Fatalf("%s: status %d", sem, code)
			}
			runtime.ReadMemStats(&m1)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		query() // builds the scratch
		for round := 0; round < 3; round++ {
			labels, misses := db.Graph().NumLabels(), db.PlanCacheStats().Misses
			if err := db.Apply([]rbq.Op{rbq.AddNode("FRESH")}); err != nil {
				t.Fatal(err)
			}
			if got := query(); got > 48<<10 {
				t.Fatalf("%s: the query after apply %d allocated %d bytes: its scratch did not survive the publish", sem, round, got)
			}
			// A plan depends on the label alphabet only: an Apply that adds
			// no label leaves the template cached.
			if db.Graph().NumLabels() == labels && db.PlanCacheStats().Misses != misses {
				t.Fatalf("%s: the query after same-alphabet apply %d recompiled its plan", sem, round)
			}
		}
		// Compaction hands the pools on to the spliced base, and leaves
		// the plan cached.
		misses := db.PlanCacheStats().Misses
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := query(); got > 48<<10 {
			t.Fatalf("%s: the query after compaction allocated %d bytes: its scratch did not survive the splice", sem, got)
		}
		if db.PlanCacheStats().Misses != misses {
			t.Fatalf("%s: the query after compaction recompiled its plan", sem)
		}
	}
}
