package rbq

// Tests for the Section 7 extension APIs: batch evaluation, unanchored
// patterns, and accuracy calibration.

import (
	"context"
	"reflect"
	"testing"
)

// batchWorkload builds a single-node motif query pinned at every L00 node
// (up to n anchors) — a minimal, deterministic batch.
func batchWorkload(t *testing.T, g *Graph, n int) []AnchoredQuery {
	t.Helper()
	var out []AnchoredQuery
	l := g.LabelIDOf("L00")
	if l == -1 {
		t.Skip("alphabet missing")
	}
	pb := NewPatternBuilder()
	a := pb.AddNode("L00")
	pb.SetPersonalized(a)
	pb.SetOutput(a)
	q := pb.MustBuild()
	for _, v := range g.NodesWithLabel(l) {
		out = append(out, AnchoredQuery{Q: q, At: v})
		if len(out) == n {
			break
		}
	}
	if len(out) == 0 {
		t.Skip("no anchors available")
	}
	return out
}

func TestSimulationBatchMatchesSequential(t *testing.T) {
	g := RandomGraph(4000, 10000, 3, true)
	db := NewDB(g)
	qs := batchWorkload(t, g, 50)
	seq, err := db.QueryBatch(context.Background(), qs, Request{Alpha: 0.01}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.QueryBatch(context.Background(), qs, Request{Alpha: 0.01}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel batch differs from sequential")
	}
	for i, r := range seq {
		if r.Personalized != qs[i].At {
			t.Fatalf("result %d pinned at %d, want %d", i, r.Personalized, qs[i].At)
		}
		// Single-node pattern: the anchor matches itself.
		if len(r.Matches) != 1 || r.Matches[0] != qs[i].At {
			t.Fatalf("result %d matches = %v", i, r.Matches)
		}
	}
}

func TestSubgraphBatch(t *testing.T) {
	g := RandomGraph(2000, 5000, 5, false)
	db := NewDB(g)
	qs := batchWorkload(t, g, 20)
	res, err := db.QueryBatch(context.Background(), qs, Request{Semantics: Subgraph, Alpha: 0.05}, 3)
	if err != nil || len(res) != len(qs) {
		t.Fatalf("got %d results (%v)", len(res), err)
	}
}

func TestBatchBadPinYieldsZeroResult(t *testing.T) {
	g := RandomGraph(100, 200, 1, false)
	db := NewDB(g)
	pb := NewPatternBuilder()
	a := pb.AddNode("no-such-label")
	pb.SetPersonalized(a)
	pb.SetOutput(a)
	q := pb.MustBuild()
	res, err := db.QueryBatch(context.Background(), []AnchoredQuery{{Q: q, At: 0}}, Request{Alpha: 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Matches != nil {
		t.Fatalf("bad pin produced matches: %v", res[0].Matches)
	}
}

func TestSimulationUnanchoredEndToEnd(t *testing.T) {
	// Three disjoint A->B motifs; no unique personalized label.
	gb := NewGraphBuilder(6, 3)
	var bs []NodeID
	for i := 0; i < 3; i++ {
		a := gb.AddNode("A")
		b := gb.AddNode("B")
		gb.AddEdge(a, b)
		bs = append(bs, b)
	}
	db := NewDB(gb.Build())
	pb := NewPatternBuilder()
	a := pb.AddNode("A")
	b := pb.AddNode("B")
	pb.AddEdge(a, b)
	pb.SetPersonalized(a)
	pb.SetOutput(b)
	q := pb.MustBuild()

	// An anchored request must refuse (label A is not unique)...
	if _, err := db.Query(context.Background(), q, Request{Alpha: 0.5}); err == nil {
		t.Fatal("expected uniqueness error")
	}
	// ...while the unanchored mode answers.
	res, err := db.Query(context.Background(), q, Request{Mode: Unanchored, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Matches, bs) {
		t.Fatalf("matches = %v, want %v", res.Matches, bs)
	}
	if res.Candidates != 3 || res.Evaluated != 3 {
		t.Fatalf("res = %+v", res)
	}
}

func TestSubgraphUnanchoredEndToEnd(t *testing.T) {
	// P with two C children appears once; a P with one C child also exists.
	g := FromEdgesForTest([]string{"P", "C", "C", "P", "C"},
		[][2]int{{0, 1}, {0, 2}, {3, 4}})
	db := NewDB(g)
	pb := NewPatternBuilder()
	pp := pb.AddNode("P")
	c1 := pb.AddNode("C")
	c2 := pb.AddNode("C")
	pb.AddEdge(pp, c1)
	pb.AddEdge(pp, c2)
	pb.SetPersonalized(pp)
	pb.SetOutput(pp)
	q := pb.MustBuild()
	res, err := db.Query(context.Background(), q, Request{Semantics: Subgraph, Mode: Unanchored, Alpha: 1.0})
	if err != nil || !reflect.DeepEqual(res.Matches, []NodeID{0}) {
		t.Fatalf("matches = %v (%v)", res.Matches, err)
	}
}

func TestSimulationCurveAndMinAlpha(t *testing.T) {
	g := RandomGraph(3000, 9000, 11, true)
	var qs []AnchoredQuery
	var db *DB
	for seed := int64(0); seed < 40 && len(qs) < 3; seed++ {
		q, g2, vp, err := ExtractPattern(g, 4, 8, seed)
		if err != nil {
			continue
		}
		// All queries must target the same DB; rebuild it per extraction
		// is wasteful, so use a single extraction's graph and pin the
		// remaining queries on it via pin-compatible anchors.
		db = NewDB(g2)
		qs = append(qs, AnchoredQuery{Q: q, At: vp})
		break
	}
	if db == nil {
		t.Skip("no pattern extracted")
	}
	pts := db.SimulationCurve(context.Background(), qs, []float64{0.001, 0.1})
	if len(pts) != 2 {
		t.Fatalf("curve has %d points", len(pts))
	}
	if pts[1].Accuracy != 1 {
		t.Fatalf("accuracy at alpha=0.1 is %v", pts[1].Accuracy)
	}
	pt, ok := db.MinAlphaForAccuracy(context.Background(), qs, 1.0, 0.2, 5)
	if !ok {
		t.Fatal("target unreachable")
	}
	if pt.Alpha > 0.2 || pt.Accuracy < 1 {
		t.Fatalf("bad calibration point %+v", pt)
	}
}

// FromEdgesForTest builds a graph from parallel slices, mirroring
// graph.FromEdges for tests that live in the public package.
func FromEdgesForTest(labels []string, edges [][2]int) *Graph {
	b := NewGraphBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddNode(l)
	}
	for _, e := range edges {
		b.AddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	return b.Build()
}
