package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// diamond is A -> B, A -> C, B -> D, C -> D.
func diamond() *Graph {
	return FromEdges([]string{"A", "B", "C", "D"}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, 0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.Size() != 0 {
		t.Fatalf("empty graph has nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderBasics(t *testing.T) {
	g := diamond()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 || g.Size() != 8 {
		t.Fatalf("got nodes=%d edges=%d size=%d", g.NumNodes(), g.NumEdges(), g.Size())
	}
	if g.Label(0) != "A" || g.Label(3) != "D" {
		t.Fatalf("labels wrong: %q %q", g.Label(0), g.Label(3))
	}
	if got := g.Out(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("Out(0) = %v", got)
	}
	if got := g.In(3); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("In(3) = %v", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 || g.Degree(0) != 2 {
		t.Fatalf("degrees of 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.Degree(1) != 2 { // one in, one out
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	b := NewBuilder(2, 4)
	b.AddNode("X")
	b.AddNode("Y")
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("expected 1 edge after dedup, got %d", g.NumEdges())
	}
}

func TestBuilderSelfLoop(t *testing.T) {
	g := FromEdges([]string{"A"}, [][2]int{{0, 0}})
	if !g.HasEdge(0, 0) {
		t.Fatal("self-loop missing")
	}
	if g.Degree(0) != 2 {
		t.Fatalf("self-loop degree = %d, want 2 (in+out)", g.Degree(0))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgePanicsOnUnknownNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(1, 1)
	b.AddNode("A")
	b.AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {1, 3, true}, {2, 3, true},
		{1, 0, false}, {3, 0, false}, {0, 3, false}, {0, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestLabelLookup(t *testing.T) {
	g := diamond()
	if g.NumLabels() != 4 {
		t.Fatalf("NumLabels = %d", g.NumLabels())
	}
	a := g.LabelIDOf("A")
	if a == NoLabel {
		t.Fatal("label A missing")
	}
	if got := g.NodesWithLabel(a); !reflect.DeepEqual(got, []NodeID{0}) {
		t.Fatalf("NodesWithLabel(A) = %v", got)
	}
	if g.LabelIDOf("missing") != NoLabel {
		t.Fatal("expected NoLabel for unknown label")
	}
}

func TestSharedLabels(t *testing.T) {
	g := FromEdges([]string{"P", "C", "C", "C"}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	c := g.LabelIDOf("C")
	if got := g.NodesWithLabel(c); len(got) != 3 {
		t.Fatalf("NodesWithLabel(C) = %v", got)
	}
	if g.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d", g.NumLabels())
	}
}

func TestBFSFollowsBothDirections(t *testing.T) {
	// 0 -> 1 -> 2, and 3 -> 1. N_1(1) must include 0, 2 and 3.
	g := FromEdges([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {1, 2}, {3, 1}})
	got := g.BFS(1, Both, 1, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []NodeID{0, 1, 2, 3}) {
		t.Fatalf("N_1(1) = %v", got)
	}
	if got := g.BFS(0, Both, 0, nil); !reflect.DeepEqual(got, []NodeID{0}) {
		t.Fatalf("N_0(0) = %v", got)
	}
}

func TestBFSDirections(t *testing.T) {
	g := diamond()
	fwd := g.BFS(0, Forward, -1, nil)
	if len(fwd) != 4 {
		t.Fatalf("forward BFS from 0 reached %v", fwd)
	}
	bwd := g.BFS(0, Backward, -1, nil)
	if len(bwd) != 1 {
		t.Fatalf("backward BFS from 0 reached %v", bwd)
	}
	if got := g.BFS(3, Backward, 1, nil); len(got) != 3 {
		t.Fatalf("backward depth-1 BFS from 3 reached %v", got)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := diamond()
	count := 0
	g.BFS(0, Forward, -1, func(v NodeID, d int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visit called %d times, want 2", count)
	}
}

func TestReachable(t *testing.T) {
	g := diamond()
	if !g.Reachable(0, 3) {
		t.Fatal("0 should reach 3")
	}
	if g.Reachable(3, 0) {
		t.Fatal("3 should not reach 0")
	}
	if !g.Reachable(2, 2) {
		t.Fatal("trivial reachability failed")
	}
}

func TestCSRIntoInduced(t *testing.T) {
	g := diamond()
	var c FragCSR
	g.CSRInto([]NodeID{0, 1, 3}, &c)
	if c.NumNodes() != 3 {
		t.Fatalf("induced nodes = %d", c.NumNodes())
	}
	// Edges (0,1) and (1,3) survive; (0,2),(2,3) do not.
	if c.NumEdges() != 2 {
		t.Fatalf("induced edges = %d", c.NumEdges())
	}
	if c.PosOf(2) != -1 {
		t.Fatal("node 2 should not be in the subgraph")
	}
	sv := c.PosOf(3)
	if sv < 0 || c.Orig[sv] != 3 || g.LabelName(c.Labels[sv]) != "D" {
		t.Fatalf("mapping for node 3 broken: pos=%d", sv)
	}
}

func TestCSRIntoIgnoresDuplicates(t *testing.T) {
	g := diamond()
	var c FragCSR
	g.CSRInto([]NodeID{1, 1, 1, 0}, &c)
	if c.NumNodes() != 2 || c.NumEdges() != 1 {
		t.Fatalf("nodes=%d edges=%d", c.NumNodes(), c.NumEdges())
	}
	if c.Orig[0] != 1 || c.Orig[1] != 0 {
		t.Fatalf("positions must follow first occurrence: %v", c.Orig)
	}
}

func TestBallInto(t *testing.T) {
	// star: center 0 with children 1..3; plus a far node 4 behind 3.
	g := FromEdges([]string{"c", "x", "x", "x", "far"},
		[][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	var b FragCSR
	g.BallInto(0, 1, &b, nil)
	if b.NumNodes() != 4 {
		t.Fatalf("ball nodes = %d, want 4", b.NumNodes())
	}
	if b.PosOf(0) != 0 {
		t.Fatalf("ball center must sit at position 0, got %d", b.PosOf(0))
	}
	if b.PosOf(4) != -1 {
		t.Fatal("node 4 must be outside the 1-ball of 0")
	}
	g.BallInto(0, 2, &b, nil)
	if b.NumNodes() != 5 || b.NumEdges() != 4 {
		t.Fatalf("2-ball nodes=%d edges=%d", b.NumNodes(), b.NumEdges())
	}
}

func TestRegionInto(t *testing.T) {
	// 0:c -> 1:x -> 2:y, 0 -> 3:n -> 4:x, 5:x -> 0: node 4 is within two
	// hops of 0, but only through 3, whose label the region excludes.
	g := FromEdges([]string{"c", "x", "y", "n", "x", "x"},
		[][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {5, 0}})
	ids := func(names ...string) []LabelID { return g.InternLabels(names, nil) }
	nodes := func(c *FragCSR) []NodeID {
		out := slices.Clone(c.Orig)
		slices.Sort(out)
		return out
	}
	var c FragCSR
	g.RegionInto(0, 2, ids("c", "x", "y"), &c, nil)
	if got := nodes(&c); !slices.Equal(got, []NodeID{0, 1, 2, 5}) || c.NumEdges() != 3 {
		t.Fatalf("region of {c,x,y} = %v with %d edges, want [0 1 2 5] with 3", got, c.NumEdges())
	}
	if c.PosOf(0) != 0 {
		t.Fatalf("the start must sit at position 0, got %d", c.PosOf(0))
	}
	// The start is in whatever its label; an absent label constrains
	// nothing further; the radius still bounds the walk.
	g.RegionInto(0, 2, ids("x", "absent"), &c, nil)
	if got := nodes(&c); !slices.Equal(got, []NodeID{0, 1, 5}) {
		t.Fatalf("region of {x} = %v, want [0 1 5]", got)
	}
	g.RegionInto(0, 1, ids("c", "x", "y"), &c, nil)
	if got := nodes(&c); !slices.Equal(got, []NodeID{0, 1, 5}) {
		t.Fatalf("1-region of {c,x,y} = %v, want [0 1 5]", got)
	}
	// An empty constraint keeps the start alone; nil is no constraint.
	g.RegionInto(0, 2, []LabelID{}, &c, nil)
	if got := nodes(&c); !slices.Equal(got, []NodeID{0}) {
		t.Fatalf("region of {} = %v, want [0]", got)
	}
	g.RegionInto(0, 2, nil, &c, nil)
	if c.NumNodes() != 6 {
		t.Fatalf("nil labels must give the whole 2-ball, got %d nodes", c.NumNodes())
	}
}

// Property: the region is exactly what a label-filtered BFS over the
// ball reaches, in that BFS's discovery order.
func TestRegionIntoMatchesFilteredBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var c FragCSR
	for i := 0; i < 40; i++ {
		g := randomGraph(rng, 40, 120, 4)
		labels := []LabelID{LabelID(rng.Intn(g.NumLabels())), LabelID(rng.Intn(g.NumLabels()))}
		v := NodeID(rng.Intn(g.NumNodes()))
		r := 1 + rng.Intn(3)
		type item struct {
			v NodeID
			d int
		}
		want := []NodeID{v}
		seen := map[NodeID]bool{v: true}
		for q := []item{{v, 0}}; len(q) > 0; q = q[1:] {
			if q[0].d == r {
				continue
			}
			for _, adj := range [2][]NodeID{g.Out(q[0].v), g.In(q[0].v)} {
				for _, w := range adj {
					if !seen[w] && slices.Contains(labels, g.LabelOf(w)) {
						seen[w] = true
						want = append(want, w)
						q = append(q, item{w, q[0].d + 1})
					}
				}
			}
		}
		g.RegionInto(v, r, labels, &c, nil)
		if !slices.Equal(c.Orig, want) {
			t.Fatalf("iteration %d: region %v, filtered BFS %v", i, c.Orig, want)
		}
	}
}

// TestCSRIntoOnePassLayout: the out-CSR is built by appending segments in
// position order; the arrays must be exactly what counting first and
// filling second lays out, on node lists that repeat nodes.
func TestCSRIntoOnePassLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var c FragCSR // reused, so stale contents of a larger build are in play
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(5*n), 3)
		nodes := make([]NodeID, 1+rng.Intn(2*n))
		for k := range nodes {
			nodes[k] = NodeID(rng.Intn(n))
		}
		g.CSRInto(nodes, &c)

		orig, outStart, outAdj, inStart, inAdj := listScanCSR(g, nodes)
		if !slices.Equal(c.Orig, orig) ||
			!slices.Equal(c.OutStart, outStart) || !slices.Equal(c.OutAdj, outAdj) ||
			!slices.Equal(c.InStart, inStart) || !slices.Equal(c.InAdj, inAdj) {
			t.Fatalf("iteration %d: nodes %v\none-pass out %v %v in %v %v\nlist scan out %v %v in %v %v",
				i, nodes, c.OutStart, c.OutAdj, c.InStart, c.InAdj, outStart, outAdj, inStart, inAdj)
		}
		for k, v := range orig {
			if c.Labels[k] != g.LabelOf(v) {
				t.Fatalf("iteration %d: label of position %d", i, k)
			}
		}
	}
}

func TestMaxDegree(t *testing.T) {
	g := diamond()
	if got := g.MaxDegree(); got != 2 {
		t.Fatalf("MaxDegree = %d", got)
	}
	star := FromEdges([]string{"c", "x", "x", "x"}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	if got := star.MaxDegree(); got != 3 {
		t.Fatalf("star MaxDegree = %d", got)
	}
}

func TestAuxHistograms(t *testing.T) {
	// Michael-like node: 1 parent labeled HG, children CC, CC, CL.
	g := FromEdges([]string{"M", "HG", "CC", "CC", "CL"},
		[][2]int{{1, 0}, {0, 2}, {0, 3}, {0, 4}})
	a := BuildAux(g)
	cc := g.LabelIDOf("CC")
	hg := g.LabelIDOf("HG")
	cl := g.LabelIDOf("CL")
	if got := a.OutLabelCount(0, cc); got != 2 {
		t.Fatalf("OutLabelCount(M,CC) = %d", got)
	}
	if got := a.InLabelCount(0, hg); got != 1 {
		t.Fatalf("InLabelCount(M,HG) = %d", got)
	}
	if got := a.LabelCountBoth(0, cl); got != 1 {
		t.Fatalf("LabelCountBoth(M,CL) = %d", got)
	}
	if got := a.LabelCountBoth(0, g.LabelIDOf("M")); got != 0 {
		t.Fatalf("LabelCountBoth(M,M) = %d", got)
	}
	if a.Degree(0) != 4 {
		t.Fatalf("Aux.Degree = %d", a.Degree(0))
	}
	if a.Graph() != g {
		t.Fatal("Aux.Graph mismatch")
	}
}

func TestAuxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60, 180, 4)
	a := BuildAux(g)
	for v := 0; v < g.NumNodes(); v++ {
		want := map[LabelID]int32{}
		for _, w := range g.Out(NodeID(v)) {
			want[g.LabelOf(w)]++
		}
		for l := 0; l < g.NumLabels(); l++ {
			if got := a.OutLabelCount(NodeID(v), LabelID(l)); got != want[LabelID(l)] {
				t.Fatalf("node %d label %d: aux=%d brute=%d", v, l, got, want[LabelID(l)])
			}
		}
	}
}

func TestFragmentGrowth(t *testing.T) {
	g := diamond()
	f := NewFragment(g)
	if f.Size() != 0 {
		t.Fatal("new fragment not empty")
	}
	if inc := f.Add(0); inc != 1 {
		t.Fatalf("adding isolated first node: inc=%d", inc)
	}
	if cost := f.InducedEdgeCost(1); cost != 1 {
		t.Fatalf("InducedEdgeCost(1) = %d", cost)
	}
	if inc := f.Add(1); inc != 2 { // node + edge (0,1)
		t.Fatalf("adding 1: inc=%d", inc)
	}
	if inc := f.Add(3); inc != 2 { // node + edge (1,3)
		t.Fatalf("adding 3: inc=%d", inc)
	}
	if inc := f.Add(2); inc != 3 { // node + edges (0,2),(2,3)
		t.Fatalf("adding 2: inc=%d", inc)
	}
	if f.Size() != 4+4 {
		t.Fatalf("fragment size = %d, want 8", f.Size())
	}
	if inc := f.Add(2); inc != 0 {
		t.Fatalf("re-adding node: inc=%d", inc)
	}
	var c FragCSR
	f.CSRInto(&c)
	if c.NumNodes() != 4 || c.NumEdges() != 4 {
		t.Fatalf("materialized fragment nodes=%d edges=%d", c.NumNodes(), c.NumEdges())
	}
}

func TestFragmentSelfLoop(t *testing.T) {
	g := FromEdges([]string{"A", "B"}, [][2]int{{0, 0}, {0, 1}})
	f := NewFragment(g)
	if inc := f.Add(0); inc != 2 { // node + self-loop
		t.Fatalf("self-loop add inc = %d", inc)
	}
	if f.NumEdges() != 1 {
		t.Fatalf("self-loop counted %d times", f.NumEdges())
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(rng *rand.Rand, n, m, labels int) *Graph {
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(labels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func TestRandomGraphsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(80)
		g := randomGraph(rng, n, rng.Intn(4*n), 5)
		if err := g.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// Property: for every graph, the ball of radius >= diameter centered at any
// node of a weakly-connected graph contains the whole component of v.
func TestBallCoversComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ball FragCSR
	for i := 0; i < 10; i++ {
		g := randomGraph(rng, 30, 60, 3)
		v := NodeID(rng.Intn(g.NumNodes()))
		comp := g.BFS(v, Both, -1, nil)
		g.BallInto(v, g.NumNodes(), &ball, nil) // radius larger than any diameter
		if ball.NumNodes() != len(comp) {
			t.Fatalf("ball nodes=%d, component=%d", ball.NumNodes(), len(comp))
		}
	}
}

// Property (testing/quick): an induced CSR never contains an edge absent
// from the parent, and contains every parent edge among its nodes.
func TestCSRIntoClosureQuick(t *testing.T) {
	var c FragCSR
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%40
		m := int(mRaw) % 120
		g := randomGraph(rng, n, m, 3)
		k := 1 + rng.Intn(n)
		var nodes []NodeID
		for i := 0; i < k; i++ {
			nodes = append(nodes, NodeID(rng.Intn(n)))
		}
		g.CSRInto(nodes, &c)
		// Every subgraph edge exists in the parent.
		for i := int32(0); i < int32(c.NumNodes()); i++ {
			for _, j := range c.Out(i) {
				if !g.HasEdge(c.Orig[i], c.Orig[j]) {
					return false
				}
			}
		}
		// Every parent edge between included nodes appears.
		for i, u := range c.Orig {
			for _, w := range g.Out(u) {
				if p := c.PosOf(w); p >= 0 && !c.HasEdge(int32(i), p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): fragment size equals the materialized CSR
// size, and fragments are always induced subgraphs.
func TestFragmentSizeConsistencyQuick(t *testing.T) {
	var c FragCSR
	f := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%30
		m := int(mRaw) % 90
		g := randomGraph(rng, n, m, 3)
		fr := NewFragment(g)
		k := int(kRaw) % n
		for i := 0; i < k; i++ {
			fr.Add(NodeID(rng.Intn(n)))
		}
		fr.CSRInto(&c)
		return fr.Size() == c.Size() &&
			fr.NumNodes() == c.NumNodes() &&
			fr.NumEdges() == c.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSOrderIsBreadthFirst(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2, 2 -> 3: depths must be non-decreasing.
	g := FromEdges([]string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	last := -1
	g.BFS(0, Forward, -1, func(_ NodeID, d int) bool {
		if d < last {
			t.Fatalf("depth decreased: %d after %d", d, last)
		}
		last = d
		return true
	})
}
