package rbq

import (
	"context"
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

// TestPreparedEquivalence: PreparedQuery.Query returns bit-for-bit the
// same answer as DB.Query through the plan cache, for every semantics and
// mode, across several generated patterns and resource ratios.
func TestPreparedEquivalence(t *testing.T) {
	db, qs := preparedFixture(t, 4000)
	ctx := context.Background()
	for _, aq := range qs {
		pq, err := db.Prepare(aq.Q)
		if err != nil {
			t.Fatal(err)
		}
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
		for _, req := range reqs {
			got, gotErr := pq.Query(ctx, req)
			want, wantErr := db.Query(ctx, aq.Q, req)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v at %d: prepared %+v (%v), cached %+v (%v)", req, aq.At, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestPreparedRunUsesCompiledPersonalized: un-pinned requests on a pattern
// with a unique personalized label run from the compile-time match on
// both the prepared and the cached path, and fail with the same error
// when the label is ambiguous.
func TestPreparedRunUsesCompiledPersonalized(t *testing.T) {
	g := YoutubeLike(2000, 1)
	q, g2, _, err := ExtractPattern(g, 4, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g2)
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if vp, ok := pq.Personalized(); !ok || int(vp) < 0 {
		t.Fatalf("Personalized() = (%d, %v), want the pinned snapshot's unique match", vp, ok)
	}
	ctx := context.Background()
	for _, req := range []Request{{Alpha: 0.01}, {Mode: Exact}} {
		got, err1 := pq.Query(ctx, req)
		want, err2 := db.Query(ctx, q, req)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: prepared %+v (%v), cached %+v (%v)", req, got, err1, want, err2)
		}
	}

	// An ambiguous personalized label errors identically on both paths.
	amb, _, _, err := ExtractPattern(g, 3, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	dbAmb := NewDB(g) // original graph: the unique label was never installed
	pqa, err := dbAmb.Prepare(amb)
	if err != nil {
		t.Fatal(err)
	}
	_, errPrep := pqa.Query(ctx, Request{Alpha: 0.01})
	_, errShot := dbAmb.Query(ctx, amb, Request{Alpha: 0.01})
	if errPrep == nil || errShot == nil || errPrep.Error() != errShot.Error() {
		t.Fatalf("ambiguous-label errors differ: %v vs %v", errPrep, errShot)
	}
}

// TestPreparedRunBatch: QueryBatch over pins equals per-pin Query, with
// zero results (carrying the pin and the epoch) for invalid pins.
func TestPreparedRunBatch(t *testing.T) {
	db, qs := preparedFixture(t, 3000)
	q := qs[0].Q
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// All candidates of the personalized label, plus one invalid pin.
	l := db.Graph().LabelIDOf(q.Label(q.Personalized()))
	pins := append([]NodeID{}, db.Graph().NodesWithLabel(l)...)
	var bad NodeID
	for bad = 0; db.Graph().LabelOf(bad) == l; bad++ {
	}
	pins = append(pins, bad)
	for _, workers := range []int{1, 4} {
		got, err := pq.QueryBatch(context.Background(), pins, Request{Alpha: 0.01}, workers)
		if err != nil || len(got) != len(pins) {
			t.Fatalf("QueryBatch returned %d results for %d pins (%v)", len(got), len(pins), err)
		}
		for i, pin := range pins {
			want, err := pq.Query(context.Background(), Request{Anchor: Pin(pin), Alpha: 0.01})
			if err != nil {
				want = Result{Personalized: pin, Epoch: got[i].Epoch}
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("workers=%d pin %d: %+v != %+v", workers, pin, got[i], want)
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
