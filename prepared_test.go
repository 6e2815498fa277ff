package rbq

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// preparedFixture extracts a handful of guaranteed-matching patterns
// from a generated graph, returning the DB and (pattern, pin) pairs.
func preparedFixture(t *testing.T, n int) (*DB, []AnchoredQuery) {
	t.Helper()
	g := YoutubeLike(n, 1)
	var qs []AnchoredQuery
	for seed := int64(0); seed < 80 && len(qs) < 5; seed++ {
		vp := NodeID(int(seed*131+17) % g.NumNodes())
		if g.Degree(vp) < 2 {
			continue
		}
		q := gen.PatternAt(g, graph.NodeID(vp), gen.PatternConfig{Nodes: 4, Edges: 8, Seed: seed})
		if q == nil {
			continue
		}
		qs = append(qs, AnchoredQuery{Q: q, At: vp})
	}
	if len(qs) < 3 {
		t.Fatal("could not extract test patterns")
	}
	return NewDB(g), qs
}

// TestPreparedEquivalence: DB.Query returns bit-for-bit the same answer
// from a cold plan cache (the template's compile miss) as from a warm
// one, whose plan was prepared by an earlier request (a hit), for every
// semantics and mode, across several generated patterns and resource
// ratios.
func TestPreparedEquivalence(t *testing.T) {
	db, qs := preparedFixture(t, 4000)
	ctx := context.Background()
	for _, aq := range qs {
		reqs := []Request{
			{Mode: Exact, Anchor: Pin(aq.At)},
			{Semantics: Subgraph, Mode: Exact, Anchor: Pin(aq.At), MaxSteps: 1_000_000},
		}
		for _, alpha := range []float64{0.001, 0.01, 0.1} {
			reqs = append(reqs,
				Request{Anchor: Pin(aq.At), Alpha: alpha},
				Request{Semantics: Subgraph, Anchor: Pin(aq.At), Alpha: alpha},
				Request{Mode: Unanchored, Alpha: alpha},
				Request{Semantics: Subgraph, Mode: Unanchored, Alpha: alpha})
		}
		if _, err := db.Query(ctx, aq.Q, reqs[0]); err != nil { // warm the template
			t.Fatal(err)
		}
		for _, req := range reqs {
			cold := NewDB(db.Graph())
			got, gotErr := cold.Query(ctx, aq.Q, req)
			want, wantErr := db.Query(ctx, aq.Q, req)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v at %d: cold %+v (%v), warm %+v (%v)", req, aq.At, got, gotErr, want, wantErr)
			}
			if cs := cold.PlanCacheStats(); cs.Misses != 1 || cs.Hits != 0 {
				t.Fatalf("cold cache: %+v, want one miss", cs)
			}
		}
	}
	if cs := db.PlanCacheStats(); cs.Misses != uint64(len(qs)) {
		t.Fatalf("warm cache: %+v, want one miss per template", cs)
	}
}

// TestPreparedRunUsesCompiledPersonalized: an un-pinned request on a
// pattern with a unique personalized label runs from that unique match,
// exactly as a request pinned there does, and one whose label is
// ambiguous fails with the documented error.
func TestPreparedRunUsesCompiledPersonalized(t *testing.T) {
	g := YoutubeLike(2000, 1)
	q, g2, vp, err := ExtractPattern(g, 4, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g2)
	ctx := context.Background()
	for _, req := range []Request{{Alpha: 0.01}, {Mode: Exact}} {
		got, err1 := db.Query(ctx, q, req)
		pinned := req
		pinned.Anchor = Pin(vp)
		want, err2 := db.Query(ctx, q, pinned)
		if err1 != nil || err2 != nil || got.Personalized != vp || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: un-pinned %+v (%v), pinned at %d %+v (%v)", req, got, err1, vp, want, err2)
		}
	}

	// An ambiguous personalized label is refused.
	amb, _, _, err := ExtractPattern(g, 3, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	dbAmb := NewDB(g) // original graph: the unique label was never installed
	_, err = dbAmb.Query(ctx, amb, Request{Alpha: 0.01})
	want := fmt.Sprintf("rbq: the personalized node's label %q does not have a unique match", amb.Label(amb.Personalized()))
	if err == nil || err.Error() != want {
		t.Fatalf("ambiguous label: err = %v, want %q", err, want)
	}
}

// TestPreparedRunBatch: QueryBatch over every pin of the personalized
// label plus one invalid pin equals per-pin DB.Query, with a zero result
// (carrying the pin and the epoch) for the invalid pin, at one worker
// and at four.
func TestPreparedRunBatch(t *testing.T) {
	db, qs := preparedFixture(t, 3000)
	q := qs[0].Q
	l := db.Graph().LabelIDOf(q.Label(q.Personalized()))
	var batch []AnchoredQuery
	for _, pin := range db.Graph().NodesWithLabel(l) {
		batch = append(batch, AnchoredQuery{Q: q, At: pin})
	}
	var bad NodeID
	for bad = 0; db.Graph().LabelOf(bad) == l; bad++ {
	}
	batch = append(batch, AnchoredQuery{Q: q, At: bad})
	for _, workers := range []int{1, 4} {
		got, err := db.QueryBatch(context.Background(), batch, Request{Alpha: 0.01}, workers)
		if err != nil || len(got) != len(batch) {
			t.Fatalf("QueryBatch returned %d results for %d pins (%v)", len(got), len(batch), err)
		}
		for i, aq := range batch {
			want, err := db.Query(context.Background(), q, Request{Anchor: Pin(aq.At), Alpha: 0.01})
			if err != nil {
				want = Result{Personalized: aq.At, Epoch: got[i].Epoch}
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("workers=%d pin %d: %+v != %+v", workers, aq.At, got[i], want)
			}
		}
		if got[len(got)-1].Matches != nil {
			t.Fatalf("invalid pin should yield a zero result, got %+v", got[len(got)-1])
		}
	}
}

// TestBatchSharesPreparedTemplates: QueryBatch answers are unchanged
// by the per-distinct-pattern preparation (same template at many pins vs
// distinct templates interleaved).
func TestBatchSharesPreparedTemplates(t *testing.T) {
	db, qs := preparedFixture(t, 3000)
	// Interleave: template A, B, A, B, ... at their pins.
	var batch []AnchoredQuery
	for i := 0; i < 6; i++ {
		batch = append(batch, qs[i%2])
	}
	got, err := db.QueryBatch(context.Background(), batch, Request{Alpha: 0.01}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, aq := range batch {
		want, err := db.Query(context.Background(), aq.Q, Request{Anchor: Pin(aq.At), Alpha: 0.01})
		if err != nil {
			want = Result{Personalized: aq.At, Epoch: got[i].Epoch}
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch[%d] = %+v, want %+v", i, got[i], want)
		}
	}
}
