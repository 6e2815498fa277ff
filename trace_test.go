package rbq

import (
	"context"
	"slices"
	"strings"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/obs"
	"rbq/internal/reduce"
)

// traceFixture builds the standard warm-DB fixture the alloc tests use.
func traceFixture(t *testing.T) (*DB, *Pattern, NodeID) {
	t.Helper()
	g := YoutubeLike(5_000, 1)
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
	return db, q, vp
}

// A bounded anchored query's trace must cover the plan probe, the
// reduction (with per-round aggregates), the ball extraction and the
// exact match — and tracing must not change the answer.
func TestTraceBoundedStructure(t *testing.T) {
	db, q, vp := traceFixture(t)
	ctx := context.Background()
	plain, err := db.Query(ctx, q, Request{Anchor: &vp, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(ctx, q, Request{Anchor: &vp, Alpha: 0.01, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Matches, plain.Matches) {
		t.Fatalf("tracing changed the answer: %v vs %v", res.Matches, plain.Matches)
	}
	if res.Trace == nil {
		t.Fatal("WantTrace set but Result.Trace nil")
	}
	if plain.Trace != nil {
		t.Fatal("WantTrace unset but Result.Trace non-nil")
	}
	for _, phase := range []string{obs.PhasePlan, obs.PhaseExec, obs.PhaseReduce, obs.PhaseExtract, obs.PhaseMatch} {
		if res.Trace.Find(phase) == nil {
			t.Errorf("trace missing %q span", phase)
		}
	}
	// The warm cache means the plan span records a hit.
	if v, ok := res.Trace.Find(obs.PhasePlan).Counter("cache_hit"); !ok || v != 1 {
		t.Errorf("plan span cache_hit = %d,%v, want 1", v, ok)
	}
	// Reduction rounds bridge into round child spans with a bound.
	rs := res.Trace.Find(obs.PhaseReduce)
	if rounds, ok := rs.Counter("rounds"); !ok || rounds < 1 {
		t.Fatalf("reduce span rounds = %d,%v", rounds, ok)
	}
	round := res.Trace.Find(obs.PhaseRound)
	if round == nil {
		t.Fatal("trace has no round span")
	}
	if b, ok := round.Counter("bound"); !ok || b < 2 {
		t.Errorf("round bound = %d,%v, want ≥ 2", b, ok)
	}
	if v, ok := rs.Counter("visited"); !ok || int(v) != res.Visited {
		t.Errorf("reduce visited counter = %d, Result.Visited = %d", v, res.Visited)
	}
	// The text rendering covers every phase.
	var sb strings.Builder
	res.Trace.WriteText(&sb)
	for _, phase := range []string{"plan", "exec", "reduce", "extract", "match"} {
		if !strings.Contains(sb.String(), phase) {
			t.Errorf("WriteText missing %q:\n%s", phase, sb.String())
		}
	}
}

// An unanchored query's trace covers the selectivity scan and the
// anchor-wave phase, with one span per anchor run.
func TestTraceUnanchoredStructure(t *testing.T) {
	g := gen.Random(gen.GraphConfig{Nodes: 3000, Edges: 9000, Seed: 7, PowerLaw: true})
	db := NewDB(g)
	q := gen.PatternAt(g, 101, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 3})
	if q == nil {
		t.Fatal("could not extract a test pattern")
	}
	ctx := context.Background()
	serial, err := db.Query(ctx, q, Request{Mode: Unanchored, Alpha: 0.02, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Trace == nil {
		t.Fatal("no trace")
	}
	ss := serial.Trace.Find(obs.PhaseSelectivity)
	if ss == nil {
		t.Fatal("trace missing selectivity span")
	}
	if v, ok := ss.Counter("passed"); !ok || int(v) != serial.Candidates {
		t.Errorf("selectivity passed = %d, Result.Candidates = %d", v, serial.Candidates)
	}
	ws := serial.Trace.Find(obs.PhaseAnchorWave)
	if ws == nil {
		t.Fatal("trace missing anchor-wave span")
	}
	if v, ok := ws.Counter("evaluated"); !ok || int(v) != serial.Evaluated {
		t.Errorf("anchor-wave evaluated = %d, Result.Evaluated = %d", v, serial.Evaluated)
	}
	if serial.Evaluated > 0 && serial.Trace.Find(obs.PhaseAnchor) == nil {
		t.Error("trace missing per-anchor spans")
	}

}

// Exact mode traces the exact phase instead of the reduction chain.
func TestTraceExactStructure(t *testing.T) {
	db, q, vp := traceFixture(t)
	res, err := db.Query(context.Background(), q, Request{Mode: Exact, Anchor: &vp, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Find(obs.PhaseExact) == nil {
		t.Fatal("exact trace missing exact span")
	}
	if res.Trace.Find(obs.PhaseReduce) != nil {
		t.Fatal("exact trace has a reduce span")
	}
}

// Batch items each own a trace stamped with their shard identity.
func TestTraceBatchShards(t *testing.T) {
	db, q, vp := traceFixture(t)
	qs := make([]AnchoredQuery, 8)
	for i := range qs {
		qs[i] = AnchoredQuery{Q: q, At: vp}
	}
	out, err := db.QueryBatch(context.Background(), qs, Request{Alpha: 0.01, WantTrace: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Trace == nil {
			t.Fatalf("item %d has no trace", i)
		}
		idx, ok := r.Trace.Root.Counter("batch_index")
		if !ok || int(idx) != i {
			t.Fatalf("item %d batch_index = %d,%v", i, idx, ok)
		}
		if w, ok := r.Trace.Root.Counter("batch_workers"); !ok || w < 1 {
			t.Fatalf("item %d batch_workers = %d,%v", i, w, ok)
		}
	}
}

// Request.Tracer streams the raw reduction events; validation rejects
// the combinations that would run it concurrently or not at all.
func TestRequestTracer(t *testing.T) {
	db, q, vp := traceFixture(t)
	ctx := context.Background()
	var kinds []reduce.EventKind
	req := Request{Anchor: &vp, Alpha: 0.01, Tracer: func(e reduce.Event) {
		kinds = append(kinds, e.Kind)
	}}
	if _, err := db.Query(ctx, q, req); err != nil {
		t.Fatal(err)
	}
	if len(kinds) == 0 {
		t.Fatal("tracer received no events")
	}
	if kinds[0] != reduce.EventRound {
		t.Fatalf("first event %v, want round", kinds[0])
	}

	// Tracing and the span layer compose: the bridge tees.
	kinds = kinds[:0]
	req.WantTrace = true
	res, err := db.Query(ctx, q, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) == 0 || res.Trace == nil {
		t.Fatal("tracer and trace must both be served")
	}

	bad := []Request{
		{Anchor: &vp, Mode: Exact, Tracer: func(reduce.Event) {}},
	}
	for i, b := range bad {
		if _, err := db.Query(ctx, q, b); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if _, err := db.QueryBatch(ctx, []AnchoredQuery{{Q: q, At: vp}},
		Request{Alpha: 0.01, Tracer: func(reduce.Event) {}}, 2); err == nil {
		t.Error("batch with Tracer accepted")
	}
}

// WriteTracer renders stop events without the meaningless pair suffix.
func TestWriteTracerStopEvents(t *testing.T) {
	var sb strings.Builder
	tr := reduce.WriteTracer(&sb)
	tr(reduce.Event{Kind: reduce.EventCanceled})
	tr(reduce.Event{Kind: reduce.EventVisitStop})
	tr(reduce.Event{Kind: reduce.EventBudgetStop})
	out := sb.String()
	if strings.Contains(out, "u=") || strings.Contains(out, "v=") {
		t.Fatalf("stop events still print a pair suffix:\n%s", out)
	}
	for _, want := range []string{"canceled", "visit-stop", "budget-stop"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
