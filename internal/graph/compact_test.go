package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// assertIdenticalBase asserts two base graphs are bit-for-bit equal at
// the array level — not just accessor-equivalent. The spliced compact
// must produce exactly the arrays a Builder rebuild would, so base
// images written from either are byte-identical.
func assertIdenticalBase(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.ov != nil {
		t.Fatal("got an overlay view, want a base graph")
	}
	arrays := []struct {
		name      string
		want, got any
	}{
		{"labels", want.labels, got.labels},
		{"labelNames", want.labelNames, got.labelNames},
		{"labelIndex", want.labelIndex, got.labelIndex},
		{"outStart", want.outStart, got.outStart},
		{"outAdj", emptyNorm(want.outAdj), emptyNorm(got.outAdj)},
		{"inStart", want.inStart, got.inStart},
		{"inAdj", emptyNorm(want.inAdj), emptyNorm(got.inAdj)},
		{"labelStart", want.labelStart, got.labelStart},
		{"labelNodes", emptyNorm(want.labelNodes), emptyNorm(got.labelNodes)},
		{"degCount", want.degCount, got.degCount},
	}
	for _, a := range arrays {
		if !reflect.DeepEqual(a.want, a.got) {
			t.Fatalf("%s: got %v, want %v", a.name, a.got, a.want)
		}
	}
	if got.maxDegree != want.maxDegree {
		t.Fatalf("maxDegree: got %d, want %d", got.maxDegree, want.maxDegree)
	}
}

// assertIdenticalAux asserts two base Aux structures carry bit-for-bit
// equal histogram arrays.
func assertIdenticalAux(t *testing.T, want, got *Aux) {
	t.Helper()
	if got.ov != nil {
		t.Fatal("got a patched Aux view, want a base Aux")
	}
	if !reflect.DeepEqual(want.outStart, got.outStart) {
		t.Fatalf("outStart: got %v, want %v", got.outStart, want.outStart)
	}
	if !reflect.DeepEqual(histNorm(want.outHist), histNorm(got.outHist)) {
		t.Fatalf("outHist: got %v, want %v", got.outHist, want.outHist)
	}
	if !reflect.DeepEqual(want.inStart, got.inStart) {
		t.Fatalf("inStart: got %v, want %v", got.inStart, want.inStart)
	}
	if !reflect.DeepEqual(histNorm(want.inHist), histNorm(got.inHist)) {
		t.Fatalf("inHist: got %v, want %v", got.inHist, want.inHist)
	}
	if !slices.Equal(want.outByLabel, got.outByLabel) || !slices.Equal(want.inByLabel, got.inByLabel) {
		t.Fatalf("grouped lists: got %v / %v, want %v / %v", got.outByLabel, got.inByLabel, want.outByLabel, want.inByLabel)
	}
	if !slices.Equal(want.mask, got.mask) {
		t.Fatalf("masks: got %x, want %x", got.mask, want.mask)
	}
	requireLabelIndex(t, "spliced", got)
}

func TestCompactWithSpliceMatchesFullRebuild(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomBase(t, 200, 600, 6, seed)
		d := randomDelta(g, 10, 60, 40, seed+200)
		view, err := g.WithOverlay(d)
		if err != nil {
			t.Fatalf("seed %d: WithOverlay: %v", seed, err)
		}
		spliced := view.CompactWith(1) // force the splice path
		if spliced.HasOverlay() {
			t.Fatalf("seed %d: CompactWith(1) returned an overlay view", seed)
		}
		assertIdenticalBase(t, view.CompactWith(0), spliced)
		assertSameGraph(t, rebuilt(g, d), spliced)
		if err := spliced.Validate(); err != nil {
			t.Fatalf("seed %d: spliced Validate: %v", seed, err)
		}
	}
}

func TestCompactWithSpliceEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		base *Graph
		d    OverlayDelta
	}{
		{
			"only new nodes, no base touch",
			FromEdges([]string{"A", "B"}, [][2]int{{0, 1}}),
			OverlayDelta{NewNodeLabels: []string{"C", "NEW0"}, AddEdges: [][2]NodeID{{2, 3}}},
		},
		{
			"touches first and last base node",
			FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}}),
			OverlayDelta{AddEdges: [][2]NodeID{{2, 0}}},
		},
		{
			"every base node touched",
			FromEdges([]string{"A", "B"}, [][2]int{{0, 1}}),
			OverlayDelta{DelEdges: [][2]NodeID{{0, 1}}},
		},
		{
			"empty base graph, nodes appear from nothing",
			FromEdges(nil, nil),
			OverlayDelta{NewNodeLabels: []string{"A", "A"}, AddEdges: [][2]NodeID{{0, 1}}},
		},
		{
			"isolated new node with a fresh label",
			FromEdges([]string{"A"}, nil),
			OverlayDelta{NewNodeLabels: []string{"NEW0"}},
		},
		{
			"label table not in node order, with a label no node carries",
			internedAhead(),
			OverlayDelta{NewNodeLabels: []string{"A"}, AddEdges: [][2]NodeID{{2, 0}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view, err := tc.base.WithOverlay(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			spliced := view.CompactWith(1)
			assertIdenticalBase(t, view.CompactWith(0), spliced)
			assertSameGraph(t, rebuilt(tc.base, tc.d), spliced)
			if err := spliced.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// internedAhead is a base whose label table is not in node order and
// holds a label no node carries: "B" and "UNUSED" are interned before
// any node, so A=2, B=0 and the alphabet has 3 labels.
func internedAhead() *Graph {
	b := NewBuilder(2, 1)
	b.Intern("B")
	b.Intern("UNUSED")
	a := b.AddNode("A")
	bb := b.AddNode("B")
	b.AddEdge(a, bb)
	return b.Build()
}

func TestCompactWithFallsBackOnLargeTouchedSet(t *testing.T) {
	g := randomBase(t, 100, 300, 4, 1)
	d := randomDelta(g, 4, 40, 20, 2)
	view, err := g.WithOverlay(d)
	if err != nil {
		t.Fatal(err)
	}
	touched := view.TouchedNodes()
	if touched == 0 {
		t.Fatal("fixture delta touched no nodes")
	}
	// Just below the touched fraction the splice must refuse…
	frac := float64(touched)/float64(view.NumNodes()) - 1e-9
	if _, ok := view.spliceCompact(frac); ok {
		t.Fatalf("spliceCompact accepted %d touched nodes above fraction %v", touched, frac)
	}
	// …and at/above it, accept.
	if _, ok := view.spliceCompact(float64(touched) / float64(view.NumNodes())); !ok {
		t.Fatal("spliceCompact refused a touched set exactly at the fraction")
	}
	// CompactWith itself must still produce the right graph on both sides
	// of the threshold.
	assertSameGraph(t, view.CompactWith(frac), view.CompactWith(1))
	// CompactIncremental refuses past the threshold rather than falling
	// back internally — the delta layer owns the fallback.
	aux, err := BuildAux(g).PatchedFor(view)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := CompactIncremental(view, aux, frac); ok {
		t.Fatal("CompactIncremental spliced above the fraction")
	}
	if _, _, st, ok := CompactIncremental(view, aux, 1); !ok || !st.Incremental || st.TouchedNodes != touched {
		t.Fatalf("CompactIncremental: ok=%v stats=%+v, want incremental with %d touched", ok, st, touched)
	}
}

func TestCompactIncrementalMatchesBuildAux(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomBase(t, 220, 660, 6, seed)
		baseAux := BuildAux(g)
		d := randomDelta(g, 10, 60, 40, seed+300)
		view, err := g.WithOverlay(d)
		if err != nil {
			t.Fatal(err)
		}
		patched, err := baseAux.PatchedFor(view)
		if err != nil {
			t.Fatal(err)
		}
		ng, na, st, ok := CompactIncremental(view, patched, 1)
		if !ok {
			t.Fatalf("seed %d: CompactIncremental refused", seed)
		}
		if !st.Incremental || st.TouchedNodes != view.TouchedNodes() {
			t.Fatalf("seed %d: stats %+v, want incremental with %d touched", seed, st, view.TouchedNodes())
		}
		assertIdenticalBase(t, view.CompactWith(0), ng)
		assertIdenticalAux(t, BuildAux(ng), na)
		if na.Graph() != ng {
			t.Fatalf("seed %d: spliced Aux bound to the wrong graph", seed)
		}
		if na.BaseHists() == nil {
			t.Fatalf("seed %d: spliced Aux is not a base Aux", seed)
		}
	}
}

func TestCompactIncrementalRejectsMismatchedPairs(t *testing.T) {
	g := FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})
	view, err := g.WithOverlay(OverlayDelta{AddEdges: [][2]NodeID{{2, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	baseAux := BuildAux(g)
	if _, _, _, ok := CompactIncremental(g, baseAux, 1); ok {
		t.Fatal("accepted a base graph")
	}
	if _, _, _, ok := CompactIncremental(view, baseAux, 1); ok {
		t.Fatal("accepted an unpatched base Aux")
	}
	other, err := g.WithOverlay(OverlayDelta{AddEdges: [][2]NodeID{{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	otherAux, err := baseAux.PatchedFor(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := CompactIncremental(view, otherAux, 1); ok {
		t.Fatal("accepted an Aux patched for a different overlay")
	}
}

// decodeSpliceFuzz interprets a fuzz payload as a small base graph plus
// an overlay delta: node/edge counts, base edges, then a stream of
// mutation ops (new node / add edge / delete edge). Invalid ops (edges
// already present or absent, duplicates) are skipped rather than
// rejected so nearly every payload yields a sealable delta.
func decodeSpliceFuzz(data []byte) (*Graph, OverlayDelta, bool) {
	if len(data) < 4 {
		return nil, OverlayDelta{}, false
	}
	n := 1 + int(data[0])%24
	labels := 1 + int(data[1])%4
	baseEdges := int(data[2]) % 64
	data = data[3:]
	b := NewBuilder(n, baseEdges)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", i%labels))
	}
	for i := 0; i+1 < len(data) && i/2 < baseEdges; i += 2 {
		b.AddEdge(NodeID(int(data[i])%n), NodeID(int(data[i+1])%n))
	}
	if 2*baseEdges < len(data) {
		data = data[2*baseEdges:]
	} else {
		data = nil
	}
	g := b.Build()

	var d OverlayDelta
	added := make(map[[2]NodeID]bool)
	deleted := make(map[[2]NodeID]bool)
	for len(data) >= 3 {
		op, x, y := data[0]%4, data[1], data[2]
		data = data[3:]
		total := n + len(d.NewNodeLabels)
		switch op {
		case 0:
			d.NewNodeLabels = append(d.NewNodeLabels, fmt.Sprintf("NEW%d", int(x)%3))
		case 1, 2:
			e := [2]NodeID{NodeID(int(x) % total), NodeID(int(y) % total)}
			inBase := int(e[0]) < n && int(e[1]) < n && g.HasEdge(e[0], e[1])
			if added[e] || inBase {
				continue
			}
			added[e] = true
			d.AddEdges = append(d.AddEdges, e)
		case 3:
			if n == 0 {
				continue
			}
			v := NodeID(int(x) % n)
			out := g.Out(v)
			if len(out) == 0 {
				continue
			}
			e := [2]NodeID{v, out[int(y)%len(out)]}
			if deleted[e] {
				continue
			}
			deleted[e] = true
			d.DelEdges = append(d.DelEdges, e)
		}
	}
	if d.Empty() {
		return nil, OverlayDelta{}, false
	}
	return g, d, true
}

// FuzzSpliceCompact pins the CSR splicer to the Builder rebuild: any
// sealable delta must splice to the exact arrays a full rebuild
// produces, and the spliced Aux must match a from-scratch BuildAux.
func FuzzSpliceCompact(f *testing.F) {
	f.Add([]byte{5, 2, 3, 0, 1, 1, 2, 2, 0, 0, 0, 0, 1, 3, 4, 3, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 5, 0})
	f.Add([]byte{24, 4, 3, 1, 2, 3, 4, 5, 6, 0, 1, 0, 3, 1, 0, 2, 9, 9, 1, 20, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d, ok := decodeSpliceFuzz(data)
		if !ok {
			t.Skip()
		}
		view, err := g.WithOverlay(d)
		if err != nil {
			t.Fatalf("decoder produced an invalid delta: %v", err)
		}
		spliced := view.CompactWith(1)
		assertIdenticalBase(t, view.CompactWith(0), spliced)
		if err := spliced.Validate(); err != nil {
			t.Fatalf("spliced Validate: %v", err)
		}
		patched, err := BuildAux(g).PatchedFor(view)
		if err != nil {
			t.Fatal(err)
		}
		ng, na, _, ok := CompactIncremental(view, patched, 1)
		if !ok {
			t.Fatal("CompactIncremental refused a forced splice")
		}
		assertIdenticalBase(t, spliced, ng)
		assertIdenticalAux(t, BuildAux(ng), na)
	})
}
