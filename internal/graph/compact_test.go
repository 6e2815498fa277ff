package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// compactFull is the reference the splice is tested against: the
// Builder-based O(|V|+|E|) rebuild of the merged view. The Builder is
// seeded with the view's label table in order, so every label keeps its
// id — including labels no node carries — exactly as the splice keeps
// the table: label ids only ever grow by appending within a lineage.
func (g *Graph) compactFull() *Graph {
	b := NewBuilder(g.NumNodes(), g.NumEdges())
	for _, name := range g.labelNames {
		b.Intern(name)
	}
	for v := 0; v < g.NumNodes(); v++ {
		b.AddLabeled(g.LabelOf(NodeID(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(NodeID(v)) {
			b.AddEdge(NodeID(v), w)
		}
	}
	return b.Build()
}

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
		spliced := view.Compact()
		if spliced.HasOverlay() {
			t.Fatalf("seed %d: Compact returned an overlay view", seed)
		}
		assertIdenticalBase(t, view.compactFull(), spliced)
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
			spliced := view.Compact()
			assertIdenticalBase(t, view.compactFull(), spliced)
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

// TestCompactSplicesLargeTouchedSet: a delta touching far more of the
// graph than a bounded delta would — over half the nodes, with untouched
// runs between them and after them — still splices to the reference
// rebuild's arrays, graph and Aux alike.
func TestCompactSplicesLargeTouchedSet(t *testing.T) {
	g := randomBase(t, 100, 300, 4, 1)
	d := OverlayDelta{NewNodeLabels: []string{g.LabelName(0), "NEW0"}}
	for v := NodeID(0); v < 80; v++ {
		if v%4 == 3 {
			continue // leave a run untouched
		}
		w := (v + 8) % 80
		if w%4 == 3 || g.HasEdge(v, w) {
			continue
		}
		d.AddEdges = append(d.AddEdges, [2]NodeID{v, w})
	}
	d.AddEdges = append(d.AddEdges, [2]NodeID{100, 0}, [2]NodeID{101, 100})
	view, err := g.WithOverlay(d)
	if err != nil {
		t.Fatal(err)
	}
	touched := view.TouchedNodes()
	if 2*touched <= view.NumNodes() {
		t.Fatalf("fixture touches %d of %d nodes, want over half", touched, view.NumNodes())
	}
	assertIdenticalBase(t, view.compactFull(), view.Compact())
	aux, err := BuildAux(g).PatchedFor(view)
	if err != nil {
		t.Fatal(err)
	}
	ng, na := CompactIncremental(view, aux)
	assertIdenticalBase(t, view.compactFull(), ng)
	assertIdenticalAux(t, BuildAux(ng), na)
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
		ng, na := CompactIncremental(view, patched)
		assertIdenticalBase(t, view.compactFull(), ng)
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
	other, err := g.WithOverlay(OverlayDelta{AddEdges: [][2]NodeID{{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	otherAux, err := baseAux.PatchedFor(other)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		view *Graph
		aux  *Aux
	}{
		{"a base graph", g, baseAux},
		{"an unpatched base Aux", view, baseAux},
		{"an Aux patched for a different overlay", view, otherAux},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("accepted %s", tc.name)
				}
			}()
			CompactIncremental(tc.view, tc.aux)
		}()
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

// FuzzSpliceCompact pins the CSR splicer to the reference rebuild: any
// sealable delta must splice to the exact arrays compactFull produces,
// and the spliced Aux must match a from-scratch BuildAux.
func FuzzSpliceCompact(f *testing.F) {
	f.Add([]byte{5, 2, 3, 0, 1, 1, 2, 2, 0, 0, 0, 0, 1, 3, 4, 3, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 5, 0})
	f.Add([]byte{24, 4, 3, 1, 2, 3, 4, 5, 6, 0, 1, 0, 3, 1, 0, 2, 9, 9, 1, 20, 21})
	// One added edge at the front of 6 nodes: the untouched tail shifts.
	f.Add([]byte{5, 1, 3, 0, 1, 1, 2, 4, 5, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d, ok := decodeSpliceFuzz(data)
		if !ok {
			t.Skip()
		}
		view, err := g.WithOverlay(d)
		if err != nil {
			t.Fatalf("decoder produced an invalid delta: %v", err)
		}
		spliced := view.Compact()
		assertIdenticalBase(t, view.compactFull(), spliced)
		if err := spliced.Validate(); err != nil {
			t.Fatalf("spliced Validate: %v", err)
		}
		patched, err := BuildAux(g).PatchedFor(view)
		if err != nil {
			t.Fatal(err)
		}
		ng, na := CompactIncremental(view, patched)
		assertIdenticalBase(t, spliced, ng)
		assertIdenticalAux(t, BuildAux(ng), na)
	})
}
