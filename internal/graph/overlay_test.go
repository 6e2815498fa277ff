package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomBase builds a random labeled base graph for overlay tests.
func randomBase(t *testing.T, nodes, edges int, labels int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(nodes, edges)
	for i := 0; i < nodes; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes)))
	}
	return b.Build()
}

// randomDelta draws a valid OverlayDelta against g: some new nodes (a
// mix of existing and brand-new labels), edge additions over the grown
// node set (skipping ones already present) and deletions of existing
// base edges.
func randomDelta(g *Graph, newNodes, addTries, dels int, seed int64) OverlayDelta {
	rng := rand.New(rand.NewSource(seed))
	var d OverlayDelta
	for i := 0; i < newNodes; i++ {
		if rng.Intn(3) == 0 {
			d.NewNodeLabels = append(d.NewNodeLabels, fmt.Sprintf("NEW%d", rng.Intn(3)))
		} else {
			d.NewNodeLabels = append(d.NewNodeLabels, g.LabelName(LabelID(rng.Intn(g.NumLabels()))))
		}
	}
	n := g.NumNodes() + newNodes
	added := make(map[[2]NodeID]bool)
	for i := 0; i < addTries; i++ {
		e := [2]NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
		if added[e] {
			continue
		}
		if int(e[0]) < g.NumNodes() && int(e[1]) < g.NumNodes() && g.HasEdge(e[0], e[1]) {
			continue
		}
		added[e] = true
		d.AddEdges = append(d.AddEdges, e)
	}
	deleted := make(map[[2]NodeID]bool)
	for i := 0; i < dels && g.NumEdges() > 0; i++ {
		v := NodeID(rng.Intn(g.NumNodes()))
		out := g.Out(v)
		if len(out) == 0 {
			continue
		}
		e := [2]NodeID{v, out[rng.Intn(len(out))]}
		if deleted[e] {
			continue
		}
		deleted[e] = true
		d.DelEdges = append(d.DelEdges, e)
	}
	return d
}

// rebuilt constructs, from scratch, the graph the overlay view claims to
// be: base nodes in id order, new nodes appended, the merged edge set.
func rebuilt(g *Graph, d OverlayDelta) *Graph {
	dels := make(map[[2]NodeID]bool, len(d.DelEdges))
	for _, e := range d.DelEdges {
		dels[e] = true
	}
	b := NewBuilder(g.NumNodes()+len(d.NewNodeLabels), g.NumEdges()+len(d.AddEdges))
	// The merged view keeps the base's label table and appends to it.
	for l := 0; l < g.NumLabels(); l++ {
		b.Intern(g.LabelName(LabelID(l)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(g.Label(NodeID(v)))
	}
	for _, l := range d.NewNodeLabels {
		b.AddNode(l)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(NodeID(v)) {
			if !dels[[2]NodeID{NodeID(v), w}] {
				b.AddEdge(NodeID(v), w)
			}
		}
	}
	for _, e := range d.AddEdges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// assertSameGraph compares every accessor the engines use between the
// overlay view and the from-scratch rebuild.
func assertSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size: got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("MaxDegree: got %d, want %d", got.MaxDegree(), want.MaxDegree())
	}
	if got.NumLabels() != want.NumLabels() {
		t.Fatalf("NumLabels: got %d, want %d", got.NumLabels(), want.NumLabels())
	}
	for v := 0; v < want.NumNodes(); v++ {
		id := NodeID(v)
		if got.Label(id) != want.Label(id) {
			t.Fatalf("node %d label: got %q, want %q", v, got.Label(id), want.Label(id))
		}
		if got.LabelOf(id) != want.LabelOf(id) {
			t.Fatalf("node %d label id: got %d, want %d", v, got.LabelOf(id), want.LabelOf(id))
		}
		if !reflect.DeepEqual(emptyNorm(got.Out(id)), emptyNorm(want.Out(id))) {
			t.Fatalf("node %d out: got %v, want %v", v, got.Out(id), want.Out(id))
		}
		if !reflect.DeepEqual(emptyNorm(got.In(id)), emptyNorm(want.In(id))) {
			t.Fatalf("node %d in: got %v, want %v", v, got.In(id), want.In(id))
		}
		if got.OutDegree(id) != want.OutDegree(id) || got.InDegree(id) != want.InDegree(id) ||
			got.Degree(id) != want.Degree(id) {
			t.Fatalf("node %d degrees diverge", v)
		}
	}
	for l := 0; l < want.NumLabels(); l++ {
		name := want.LabelName(LabelID(l))
		if got.LabelIDOf(name) != LabelID(l) {
			t.Fatalf("label %q: got id %d, want %d", name, got.LabelIDOf(name), l)
		}
		if !reflect.DeepEqual(emptyNorm(got.NodesWithLabel(LabelID(l))), emptyNorm(want.NodesWithLabel(LabelID(l)))) {
			t.Fatalf("label %q nodes: got %v, want %v",
				name, got.NodesWithLabel(LabelID(l)), want.NodesWithLabel(LabelID(l)))
		}
	}
}

func emptyNorm(s []NodeID) []NodeID {
	if len(s) == 0 {
		return nil
	}
	return s
}

// deepDelta draws a delta over g, a base of a few hundred nodes, whose
// adds touch nearly every base node, so whole words of the touched bitset
// are set.
func deepDelta(t *testing.T, g *Graph, seed int64) OverlayDelta {
	t.Helper()
	d := randomDelta(g, 10, 1000, 100, seed)
	view, err := g.WithOverlay(d)
	if err != nil {
		t.Fatal(err)
	}
	if ov := view.ov; 2*len(ov.touched) <= g.NumNodes() || !slices.Contains(ov.touchedBits, ^uint64(0)) {
		t.Fatalf("deep delta touches %d of %d nodes and sets no whole word", len(ov.touched), g.NumNodes())
	}
	return d
}

func TestWithOverlayMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 9; seed++ {
		g := randomBase(t, 200, 600, 6, seed)
		d := randomDelta(g, 10, 60, 40, seed+100)
		if seed == 8 {
			d = deepDelta(t, g, seed+100)
		}
		view, err := g.WithOverlay(d)
		if err != nil {
			t.Fatalf("seed %d: WithOverlay: %v", seed, err)
		}
		want := rebuilt(g, d)
		assertSameGraph(t, want, view)
		if err := view.Validate(); err != nil {
			t.Fatalf("seed %d: overlay Validate: %v", seed, err)
		}
		// The overlay must not have mutated the base.
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: base Validate after overlay: %v", seed, err)
		}
	}
}

// slotBySearch is the reference slot lookup: a binary search over the
// sorted touched set.
func slotBySearch(ov *overlay, v NodeID) int {
	if int(v) >= ov.baseN {
		return len(ov.touched) + int(v) - ov.baseN
	}
	lo, hi := 0, len(ov.touched)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ov.touched[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ov.touched) && ov.touched[lo] == v {
		return lo
	}
	return -1
}

// touching returns a delta over g that touches exactly the base nodes
// vs: one new node, and an edge from each of vs to it.
func touching(g *Graph, vs ...NodeID) OverlayDelta {
	d := OverlayDelta{NewNodeLabels: []string{"NEW0"}}
	for _, v := range vs {
		d.AddEdges = append(d.AddEdges, [2]NodeID{v, NodeID(g.NumNodes())})
	}
	return d
}

// TestOverlaySlotMatchesSearch: the bitset-and-rank slot lookup equals
// the binary search over the sorted touched set at every node of the
// view, and the touched set WithOverlay lists from the bits is the sorted
// set of base endpoints of the changed edges.
func TestOverlaySlotMatchesSearch(t *testing.T) {
	word := func(lo NodeID) []NodeID {
		vs := make([]NodeID, 64)
		for i := range vs {
			vs[i] = lo + NodeID(i)
		}
		return vs
	}
	cases := []struct {
		name  string
		nodes int
		d     func(g *Graph) OverlayDelta
	}{
		{"under one word, ends", 37, func(g *Graph) OverlayDelta { return touching(g, 0, 5, 36) }},
		{"under one word, random", 37, func(g *Graph) OverlayDelta { return randomDelta(g, 3, 20, 10, 1) }},
		{"word boundaries, partial last word", 150, func(g *Graph) OverlayDelta { return touching(g, 0, 63, 64, 149) }},
		{"random, partial last word", 150, func(g *Graph) OverlayDelta { return randomDelta(g, 5, 60, 30, 2) }},
		{"full word, empty word, partial last word", 200, func(g *Graph) OverlayDelta {
			return touching(g, append(word(0), 130, 191, 192, 199)...)
		}},
		{"random, |V| a multiple of 64", 256, func(g *Graph) OverlayDelta { return randomDelta(g, 4, 120, 40, 3) }},
		{"deep, whole words", 200, func(g *Graph) OverlayDelta { return deepDelta(t, g, 4) }},
		{"new nodes only", 150, func(*Graph) OverlayDelta {
			return OverlayDelta{NewNodeLabels: []string{"L0", "NEW0", "L1"}, AddEdges: [][2]NodeID{{150, 151}, {152, 150}}}
		}},
	}
	for i, tc := range cases {
		g := randomBase(t, tc.nodes, 3*tc.nodes, 4, int64(i))
		d := tc.d(g)
		view, err := g.WithOverlay(d)
		if err != nil {
			t.Fatalf("%s: WithOverlay: %v", tc.name, err)
		}
		ov := view.ov
		var want []NodeID
		for _, e := range append(slices.Clone(d.AddEdges), d.DelEdges...) {
			for _, v := range e {
				if int(v) < tc.nodes {
					want = append(want, v)
				}
			}
		}
		slices.Sort(want)
		if want = slices.Compact(want); !slices.Equal(ov.touched, want) {
			t.Fatalf("%s: touched %v, want %v", tc.name, ov.touched, want)
		}
		for v := 0; v < view.NumNodes(); v++ {
			id := NodeID(v)
			s := ov.slotOf(id)
			if ref := slotBySearch(ov, id); s != ref {
				t.Fatalf("%s: slotOf(%d) = %d, binary search %d", tc.name, v, s, ref)
			}
			if v < tc.nodes && s >= 0 && ov.touched[s] != id {
				t.Fatalf("%s: slotOf(%d) = %d holds touched node %d", tc.name, v, s, ov.touched[s])
			}
		}
	}
}

func TestCompactMatchesRebuild(t *testing.T) {
	g := randomBase(t, 150, 450, 5, 3)
	d := randomDelta(g, 8, 50, 30, 7)
	view, err := g.WithOverlay(d)
	if err != nil {
		t.Fatal(err)
	}
	compact := view.Compact()
	if compact.HasOverlay() {
		t.Fatal("Compact returned an overlay view")
	}
	assertSameGraph(t, rebuilt(g, d), compact)
	if err := compact.Validate(); err != nil {
		t.Fatalf("compact Validate: %v", err)
	}
	// MaxDegree bookkeeping survives the round trip: the view's exact
	// degree histogram must agree with the rebuilt one.
	if compact.MaxDegree() != view.MaxDegree() {
		t.Fatalf("MaxDegree: compact %d, view %d", compact.MaxDegree(), view.MaxDegree())
	}
	// Compacting a base graph is the identity.
	if g.Compact() != g {
		t.Fatal("Compact of a base graph did not return it unchanged")
	}
}

func TestPatchedAuxMatchesBuildAux(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomBase(t, 180, 540, 6, seed)
		baseAux := BuildAux(g)
		d := randomDelta(g, 8, 50, 30, seed+50)
		if seed == 4 {
			d = deepDelta(t, g, seed+50)
		}
		view, err := g.WithOverlay(d)
		if err != nil {
			t.Fatal(err)
		}
		patched, err := baseAux.PatchedFor(view)
		if err != nil {
			t.Fatal(err)
		}
		want := BuildAux(rebuilt(g, d))
		requireLabelIndex(t, fmt.Sprintf("seed %d patched", seed), patched)
		for v := 0; v < view.NumNodes(); v++ {
			id := NodeID(v)
			if !reflect.DeepEqual(histNorm(patched.OutLabelHist(id)), histNorm(want.OutLabelHist(id))) {
				t.Fatalf("seed %d node %d out hist: got %v, want %v",
					seed, v, patched.OutLabelHist(id), want.OutLabelHist(id))
			}
			if !reflect.DeepEqual(histNorm(patched.InLabelHist(id)), histNorm(want.InLabelHist(id))) {
				t.Fatalf("seed %d node %d in hist: got %v, want %v",
					seed, v, patched.InLabelHist(id), want.InLabelHist(id))
			}
			if patched.Degree(id) != want.Degree(id) {
				t.Fatalf("seed %d node %d degree: got %d, want %d",
					seed, v, patched.Degree(id), want.Degree(id))
			}
		}
	}
}

func histNorm(h []LabelCount) []LabelCount {
	if len(h) == 0 {
		return nil
	}
	return h
}

func TestWithOverlayRejectsInvalidDeltas(t *testing.T) {
	g := FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})
	cases := []struct {
		name string
		d    OverlayDelta
	}{
		{"add existing edge", OverlayDelta{AddEdges: [][2]NodeID{{0, 1}}}},
		{"duplicate add", OverlayDelta{AddEdges: [][2]NodeID{{0, 2}, {0, 2}}}},
		{"add out of range", OverlayDelta{AddEdges: [][2]NodeID{{0, 7}}}},
		{"delete missing edge", OverlayDelta{DelEdges: [][2]NodeID{{0, 2}}}},
		{"duplicate delete", OverlayDelta{DelEdges: [][2]NodeID{{0, 1}, {0, 1}}}},
		{"delete new-node edge", OverlayDelta{NewNodeLabels: []string{"D"}, DelEdges: [][2]NodeID{{3, 0}}}},
	}
	for _, tc := range cases {
		if _, err := g.WithOverlay(tc.d); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	view, err := g.WithOverlay(OverlayDelta{AddEdges: [][2]NodeID{{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.WithOverlay(OverlayDelta{}); err == nil {
		t.Error("stacked overlay: no error")
	}
	if _, err := BuildAux(g).PatchedFor(g); err == nil {
		t.Error("PatchedFor on a base graph: no error")
	}
}

// TestOverlayTraversalAndBalls: the pooled traversal machinery (Walk,
// BFS, BallInto/CSRInto) must see the merged adjacency, since the exact
// baselines extract balls straight from the view.
func TestOverlayTraversalAndBalls(t *testing.T) {
	g := randomBase(t, 120, 360, 5, 11)
	d := randomDelta(g, 6, 40, 25, 13)
	view, err := g.WithOverlay(d)
	if err != nil {
		t.Fatal(err)
	}
	want := rebuilt(g, d)
	for v := 0; v < view.NumNodes(); v += 7 {
		gotN := view.BFS(NodeID(v), Both, 2, nil)
		wantN := want.BFS(NodeID(v), Both, 2, nil)
		if !reflect.DeepEqual(gotN, wantN) {
			t.Fatalf("BFS(%d, Both, 2): got %v, want %v", v, gotN, wantN)
		}
		var gotC, wantC FragCSR
		view.BallInto(NodeID(v), 2, &gotC, nil)
		want.BallInto(NodeID(v), 2, &wantC, nil)
		if gotC.NumNodes() != wantC.NumNodes() || gotC.NumEdges() != wantC.NumEdges() {
			t.Fatalf("BallInto(%d): got %d/%d nodes/edges, want %d/%d",
				v, gotC.NumNodes(), gotC.NumEdges(), wantC.NumNodes(), wantC.NumEdges())
		}
		// The label-closed region reads labels through the overlay too
		// (NEW0 exists only on overlay nodes).
		names := []string{"L0", "L1", "NEW0"}
		view.RegionInto(NodeID(v), 3, view.InternLabels(names, nil), &gotC, nil)
		want.RegionInto(NodeID(v), 3, want.InternLabels(names, nil), &wantC, nil)
		if !reflect.DeepEqual(gotC.Orig, wantC.Orig) || gotC.NumEdges() != wantC.NumEdges() {
			t.Fatalf("RegionInto(%d): got %v (%d edges), want %v (%d edges)",
				v, gotC.Orig, gotC.NumEdges(), wantC.Orig, wantC.NumEdges())
		}
	}
}

// TestBallIntoInterruptibleStopsExtraction: a fired done channel aborts
// the ball-extraction BFS itself (not just downstream matching), within
// one probe stride of dequeued nodes.
func TestBallIntoInterruptibleStopsExtraction(t *testing.T) {
	// A hub with many leaves: the depth-1 ball dequeues every node.
	leaves := 4096
	b := NewBuilder(leaves+1, leaves)
	hub := b.AddNode("P")
	for i := 0; i < leaves; i++ {
		b.AddEdge(hub, b.AddNode("C"))
	}
	g := b.Build()
	var c FragCSR
	done := make(chan struct{})
	if !g.BallInto(hub, 1, &c, done) {
		t.Fatal("open channel aborted the extraction")
	}
	if c.NumNodes() != leaves+1 {
		t.Fatalf("full ball has %d nodes, want %d", c.NumNodes(), leaves+1)
	}
	close(done)
	if g.BallInto(hub, 1, &c, done) {
		t.Fatal("closed channel did not abort the extraction")
	}
}

// Scratch pools belong to the lineage: the patched view of a snapshot and
// the spliced base that succeeds it hand out the base Aux's pools, and a
// pooled Fragment or FragCSR moves between those graphs — smaller to
// larger and back — without losing an answer.
func TestScratchFollowsTheLineage(t *testing.T) {
	g := randomBase(t, 200, 600, 6, 1)
	aux := BuildAux(g)
	view, err := g.WithOverlay(randomDelta(g, 40, 80, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	patched, err := aux.PatchedFor(view)
	if err != nil {
		t.Fatal(err)
	}
	base2, aux2 := CompactIncremental(view, patched)
	for slot := 0; slot < scratchSlots; slot++ {
		if patched.ScratchPool(slot) != aux.ScratchPool(slot) || aux2.ScratchPool(slot) != aux.ScratchPool(slot) {
			t.Fatalf("slot %d: the view or the spliced base has pools of its own", slot)
		}
	}
	if BuildAux(base2).ScratchPool(ScratchBounded) == aux.ScratchPool(ScratchBounded) {
		t.Fatal("an unrelated BuildAux shares the lineage's pools")
	}

	frag := NewFragment(g)
	var csr FragCSR
	for round, h := range []*Graph{g, view, g, base2} {
		frag.Rebind(h)
		fresh := NewFragment(h)
		if frag.Parent() != h || frag.Size() != 0 {
			t.Fatalf("round %d: Rebind left parent %p size %d", round, frag.Parent(), frag.Size())
		}
		for v := h.NumNodes() - 1; v >= 0; v -= 3 { // the view's new nodes first
			if frag.Contains(NodeID(v)) {
				t.Fatalf("round %d: node %d is set in an empty fragment", round, v)
			}
			if got, want := frag.Add(NodeID(v)), fresh.Add(NodeID(v)); got != want {
				t.Fatalf("round %d: Add(%d) = %d on the rebound fragment, %d on a fresh one", round, v, got, want)
			}
		}
		frag.CSRInto(&csr)
		var freshCSR FragCSR
		fresh.CSRInto(&freshCSR)
		if !reflect.DeepEqual(csr.Orig, freshCSR.Orig) || !reflect.DeepEqual(csr.OutAdj, freshCSR.OutAdj) ||
			!reflect.DeepEqual(csr.InAdj, freshCSR.InAdj) || !reflect.DeepEqual(csr.Labels, freshCSR.Labels) {
			t.Fatalf("round %d: the reused FragCSR differs from a fresh one", round)
		}
		if round%2 == 1 { // as a pooled scratch does between borrowers
			frag.Release()
			if frag.Parent() != nil || frag.Size() != 0 {
				t.Fatalf("round %d: Release left parent %p size %d", round, frag.Parent(), frag.Size())
			}
		}
	}
}
