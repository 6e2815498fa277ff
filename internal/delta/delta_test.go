package delta

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"rbq/internal/graph"
)

func baseGraph() (*graph.Graph, *graph.Aux) {
	g := graph.FromEdges(
		[]string{"A", "B", "C", "B"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	)
	return g, graph.BuildAux(g)
}

func TestApplyValidatesAtomically(t *testing.T) {
	g, aux := baseGraph()
	d := New(g, aux)
	// A batch whose last op is invalid must leave the delta untouched.
	err := d.Apply([]Op{
		AddNode("D"),
		AddEdge(0, 4),
		AddEdge(0, 1), // already in base
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if d.Ops() != 0 {
		t.Fatalf("failed batch left %d ops behind", d.Ops())
	}
	// The same batch without the bad op lands, including the edge to the
	// in-batch node.
	if err := d.Apply([]Op{AddNode("D"), AddEdge(0, 4)}); err != nil {
		t.Fatal(err)
	}
	if d.Ops() != 2 || d.NumNodes() != 5 {
		t.Fatalf("ops=%d nodes=%d after valid batch", d.Ops(), d.NumNodes())
	}
}

func TestApplyRejections(t *testing.T) {
	g, aux := baseGraph()
	cases := []struct {
		name string
		ops  []Op
	}{
		{"empty label", []Op{AddNode("")}},
		{"add existing", []Op{AddEdge(0, 1)}},
		{"add out of range", []Op{AddEdge(0, 9)}},
		{"add negative", []Op{AddEdge(-1, 0)}},
		{"del missing", []Op{DelEdge(0, 2)}},
		{"del out of range", []Op{DelEdge(0, 9)}},
		{"double add in batch", []Op{AddEdge(0, 2), AddEdge(0, 2)}},
		{"double del in batch", []Op{DelEdge(0, 1), DelEdge(0, 1)}},
		{"unknown kind", []Op{{Kind: 99}}},
	}
	for _, tc := range cases {
		d := New(g, aux)
		if err := d.Apply(tc.ops); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if d.Ops() != 0 {
			t.Errorf("%s: left %d ops", tc.name, d.Ops())
		}
	}
}

// TestOpsCancel: add-then-delete (and delete-then-re-add) leave no net
// delta, within one batch and across batches alike.
func TestOpsCancel(t *testing.T) {
	g, aux := baseGraph()
	d := New(g, aux)
	if err := d.Apply([]Op{AddEdge(0, 2), DelEdge(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if d.Ops() != 0 {
		t.Fatalf("in-batch add+del left %d ops", d.Ops())
	}
	if err := d.Apply([]Op{AddEdge(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]Op{DelEdge(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if d.Ops() != 0 {
		t.Fatalf("cross-batch add+del left %d ops", d.Ops())
	}
	// Deleting a base edge and re-adding it also cancels.
	if err := d.Apply([]Op{DelEdge(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]Op{AddEdge(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if d.Ops() != 0 {
		t.Fatalf("del+re-add of base edge left %d ops", d.Ops())
	}
	// In-batch del+re-add of a base edge nets out too.
	if err := d.Apply([]Op{DelEdge(1, 2), AddEdge(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if d.Ops() != 0 {
		t.Fatalf("in-batch del+re-add left %d ops", d.Ops())
	}
}

func TestSealMatchesRebuild(t *testing.T) {
	g, aux := baseGraph()
	d := New(g, aux)
	if err := d.Apply([]Op{
		AddNode("E"),
		AddNode("A"),
		AddEdge(4, 0),
		AddEdge(1, 5),
		DelEdge(2, 3),
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Seal(7)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() != 7 || snap.LiveOps() != 5 {
		t.Fatalf("epoch %d ops %d", snap.Epoch(), snap.LiveOps())
	}
	view := snap.Graph()
	if err := view.Validate(); err != nil {
		t.Fatal(err)
	}
	want := graph.FromEdges(
		[]string{"A", "B", "C", "B", "E", "A"},
		[][2]int{{0, 1}, {1, 2}, {3, 0}, {4, 0}, {1, 5}},
	)
	if view.NumNodes() != want.NumNodes() || view.NumEdges() != want.NumEdges() {
		t.Fatalf("view %d/%d, want %d/%d", view.NumNodes(), view.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < want.NumNodes(); v++ {
		id := graph.NodeID(v)
		if view.Label(id) != want.Label(id) {
			t.Fatalf("node %d label %q want %q", v, view.Label(id), want.Label(id))
		}
		got, exp := view.Out(id), want.Out(id)
		if len(got) != len(exp) || (len(got) > 0 && !reflect.DeepEqual(got, exp)) {
			t.Fatalf("node %d out %v want %v", v, got, exp)
		}
	}
	// The patched Aux agrees with a from-scratch build on the rebuilt
	// graph (same interning order by construction).
	wantAux := graph.BuildAux(want)
	for v := 0; v < want.NumNodes(); v++ {
		id := graph.NodeID(v)
		gh, wh := snap.Aux().OutLabelHist(id), wantAux.OutLabelHist(id)
		if len(gh) != len(wh) || (len(gh) > 0 && !reflect.DeepEqual(gh, wh)) {
			t.Fatalf("node %d out hist %v want %v", v, gh, wh)
		}
	}

	// Compaction produces an equivalent standalone base.
	compact := snap.Compacted(8)
	if compact.LiveOps() != 0 || compact.Graph().HasOverlay() {
		t.Fatal("Compacted still carries a delta")
	}
	if compact.Graph().NumNodes() != want.NumNodes() || compact.Graph().NumEdges() != want.NumEdges() {
		t.Fatal("compacted size diverges")
	}
}

// TestCompactedWithPathsAndInfo: Compacted splices the sealed overlay
// into a clean, valid base with the view's lists, and re-stamps a clean
// snapshot without compacting. The delta leaves the last base node
// untouched, so its run is copied and shifted.
func TestCompactedWithPathsAndInfo(t *testing.T) {
	g, aux := baseGraph()
	d := New(g, aux)
	if err := d.Apply([]Op{AddNode("E"), AddEdge(1, 0), AddEdge(0, 2), AddEdge(4, 0)}); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Seal(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph().TouchedNodes() == 0 {
		t.Fatal("sealed overlay reports no touched nodes")
	}

	inc := snap.Compacted(2)
	if inc.Epoch() != 2 || inc.LiveOps() != 0 || inc.Graph().HasOverlay() || inc.Graph().TouchedNodes() != 0 {
		t.Fatal("spliced snapshot still carries a delta")
	}
	if err := inc.Graph().Validate(); err != nil {
		t.Fatalf("spliced base invalid: %v", err)
	}
	if inc.Graph().NumNodes() != snap.Graph().NumNodes() ||
		inc.Graph().NumEdges() != snap.Graph().NumEdges() {
		t.Fatal("spliced base diverges from the view it compacted")
	}
	for v := range graph.NodeID(snap.Graph().NumNodes()) {
		if !slices.Equal(inc.Graph().Out(v), snap.Graph().Out(v)) || !slices.Equal(inc.Graph().In(v), snap.Graph().In(v)) {
			t.Fatalf("node %d: spliced lists %v/%v, view %v/%v", v,
				inc.Graph().Out(v), inc.Graph().In(v), snap.Graph().Out(v), snap.Graph().In(v))
		}
	}
	if inc.Aux().Graph() != inc.Graph() || inc.Aux().BaseHists() == nil {
		t.Fatal("spliced Aux is not the new base's base Aux")
	}

	// A clean snapshot re-stamps without compacting.
	if clean := inc.Compacted(3); clean.Graph() != inc.Graph() || clean.Aux() != inc.Aux() || clean.Epoch() != 3 {
		t.Fatal("clean snapshot compacted needlessly")
	}
}

func TestSealEmptyDeltaIsBase(t *testing.T) {
	g, aux := baseGraph()
	d := New(g, aux)
	snap, err := d.Seal(3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph() != g || snap.Aux() != aux || snap.LiveOps() != 0 {
		t.Fatal("empty delta did not seal to the base structures")
	}
	// Re-stamping a clean snapshot shares the structures too.
	if c := snap.Compacted(4); c.Graph() != g || c.Epoch() != 4 {
		t.Fatal("Compacted of a clean snapshot rebuilt needlessly")
	}
}

func TestOpStreamRoundTrip(t *testing.T) {
	batches := [][]Op{
		{AddNode("user x"), AddEdge(0, 4), DelEdge(1, 2)},
		{AddEdge(4, 0)},
	}
	var sb strings.Builder
	if err := WriteOps(&sb, batches); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOps(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Fatalf("round trip: got %v, want %v", got, batches)
	}
	// Comments and a trailing unterminated batch.
	in := "# header\n\nnode A\nedge 0 1\napply\ndeledge 2 3\n"
	got, err = ReadOps(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Op{{AddNode("A"), AddEdge(0, 1)}, {DelEdge(2, 3)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, bad := range []string{"frob 1 2\n", "edge 1\n", "edge a b\n", "node \n"} {
		if _, err := ReadOps(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadOps(%q): no error", bad)
		}
	}
}
