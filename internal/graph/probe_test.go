package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// hubGraph is a random graph with a few hubs — nodes linked both ways to
// about half the graph — and self-loops, so that neighbor lists of every
// length meet node sets of every size.
func hubGraph(rng *rand.Rand, n, labels int) *Graph {
	_, g := buildFrom(hubEdges(rng, n, labels))
	return g
}

// probeViews returns a hub graph and an overlay view over it.
func probeViews(t *testing.T, rng *rand.Rand, n int) []*Graph {
	t.Helper()
	g := hubGraph(rng, n, 5)
	view, err := g.WithOverlay(randomDelta(g, 6, 3*n, n/2, rng.Int63()))
	if err != nil {
		t.Fatal(err)
	}
	return []*Graph{g, view}
}

// listScanCost is InducedEdgeCost by scanning both of v's lists.
func listScanCost(g *Graph, f *Fragment, v NodeID) int {
	if f.Contains(v) {
		return 0
	}
	cost := 0
	for _, w := range g.Out(v) {
		if w == v || f.Contains(w) {
			cost++
		}
	}
	for _, w := range g.In(v) {
		if w != v && f.Contains(w) {
			cost++
		}
	}
	return cost
}

// TestInducedEdgeCostEqualsListScan: pricing by the smaller side —
// scanning v's lists, or probing them for each fragment node — equals
// the list scan, on base and overlay views, for fragments both smaller
// and larger than a quarter of a hub's lists. The per-label member
// lists follow the fragment through Add and Reset.
func TestInducedEdgeCostEqualsListScan(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	probed, scanned := 0, 0
	for gi := 0; gi < 6; gi++ {
		for _, g := range probeViews(t, rng, 80+rng.Intn(80)) {
			n := g.NumNodes()
			f := NewFragment(g)
			for _, size := range []int{0, 1, 3, 10, n / 3} {
				f.Reset()
				for f.NumNodes() < size {
					f.Add(NodeID(rng.Intn(n)))
				}
				for l := LabelID(0); int(l) < g.NumLabels(); l++ {
					want := slices.DeleteFunc(slices.Clone(f.Nodes()), func(w NodeID) bool { return g.LabelOf(w) != l })
					if got := f.NodesLabeled(l); !slices.Equal(got, want) {
						t.Fatalf("graph %d overlay=%v: members labelled %d: got %v, want %v", gi, g.HasOverlay(), l, got, want)
					}
				}
				for v := NodeID(0); int(v) < n; v++ {
					if got, want := f.InducedEdgeCost(v), listScanCost(g, f, v); got != want {
						t.Fatalf("graph %d overlay=%v fragment %v: InducedEdgeCost(%d) = %d, list scan %d", gi, g.HasOverlay(), f.Nodes(), v, got, want)
					}
					if len(g.Out(v)) > ScanRatio*f.NumNodes() {
						probed++
					} else {
						scanned++
					}
				}
			}
		}
	}
	if probed == 0 || scanned == 0 {
		t.Fatalf("one side untested: %d probed lists, %d scanned", probed, scanned)
	}
}

// listScanCSR is CSRInto's layout by scanning every node's lists: the
// distinct nodes in first-occurrence order, and each direction's
// segments sorted by position.
func listScanCSR(g *Graph, nodes []NodeID) (orig []NodeID, outStart, outAdj, inStart, inAdj []int32) {
	pos := map[NodeID]int32{}
	for _, v := range nodes {
		if _, dup := pos[v]; !dup {
			pos[v] = int32(len(orig))
			orig = append(orig, v)
		}
	}
	layout := func(adjOf func(NodeID) []NodeID) (start, adj []int32) {
		start = []int32{0}
		for _, v := range orig {
			k := len(adj)
			for _, w := range adjOf(v) {
				if p, in := pos[w]; in {
					adj = append(adj, p)
				}
			}
			slices.Sort(adj[k:])
			start = append(start, int32(len(adj)))
		}
		return start, adj
	}
	outStart, outAdj = layout(g.Out)
	inStart, inAdj = layout(g.In)
	return orig, outStart, outAdj, inStart, inAdj
}

// TestCSRIntoEqualsListScan: CSRInto probes a hub's out-list for each
// position instead of scanning it; the layout equals the list scan's on
// base and overlay views, for node sets on both sides of the rule.
func TestCSRIntoEqualsListScan(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var c FragCSR // reused across sizes and views
	probed := 0
	for gi := 0; gi < 6; gi++ {
		for _, g := range probeViews(t, rng, 80+rng.Intn(80)) {
			n := g.NumNodes()
			for _, size := range []int{1, 2, 5, 12, n / 2, 2 * n} {
				nodes := make([]NodeID, size)
				for i := range nodes {
					nodes[i] = NodeID(rng.Intn(n))
				}
				g.CSRInto(nodes, &c)
				orig, outStart, outAdj, inStart, inAdj := listScanCSR(g, nodes)
				if !slices.Equal(c.Orig, orig) ||
					!slices.Equal(c.OutStart, outStart) || !slices.Equal(c.OutAdj, outAdj) ||
					!slices.Equal(c.InStart, inStart) || !slices.Equal(c.InAdj, inAdj) {
					t.Fatalf("graph %d overlay=%v nodes %v:\ngot  out %v %v in %v %v\nwant out %v %v in %v %v",
						gi, g.HasOverlay(), nodes, c.OutStart, c.OutAdj, c.InStart, c.InAdj, outStart, outAdj, inStart, inAdj)
				}
				for _, v := range orig {
					if len(g.Out(v)) > ScanRatio*len(orig) {
						probed++
					}
				}
			}
		}
	}
	if probed == 0 {
		t.Fatal("no hub list was probed")
	}
}

// csrEqual reports whether two views hold the same arrays.
func csrEqual(a, b *FragCSR) bool {
	return slices.Equal(a.Orig, b.Orig) && slices.Equal(a.Labels, b.Labels) &&
		slices.Equal(a.OutStart, b.OutStart) && slices.Equal(a.OutAdj, b.OutAdj) &&
		slices.Equal(a.InStart, b.InStart) && slices.Equal(a.InAdj, b.InAdj)
}

// TestFragmentCSRIntoEqualsGraphCSRInto: a fragment's view, built from
// the edges InducedEdgeCost found, equals Graph.CSRInto over its nodes
// array for array — on base and overlay views of graphs with hubs and
// self-loops, with nodes priced on both sides of ScanRatio, priced and
// then committed after other nodes were added (so the staged edges are
// stale), and with one FragCSR alternating between the two builders.
func TestFragmentCSRIntoEqualsGraphCSRInto(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var got, want FragCSR
	probed, scanned, restaged, loops := 0, 0, 0, 0
	for gi := 0; gi < 6; gi++ {
		for _, g := range probeViews(t, rng, 80+rng.Intn(80)) {
			n := g.NumNodes()
			f := NewFragment(g)
			for _, size := range []int{1, 2, 5, 12, n / 3} {
				f.Reset()
				for f.NumNodes() < size {
					v := NodeID(rng.Intn(n))
					if f.Contains(v) {
						continue
					}
					if len(g.Out(v)) > ScanRatio*f.NumNodes() {
						probed++
					} else {
						scanned++
					}
					if g.HasEdge(v, v) {
						loops++
					}
					cost := f.InducedEdgeCost(v)
					if w := NodeID(rng.Intn(n)); rng.Intn(4) == 0 && !f.Contains(w) && w != v {
						f.Add(w) // v's staged edges are stale now
						cost = f.InducedEdgeCost(v)
						f.InducedEdgeCost(w)
						restaged++
					}
					before := f.Size()
					f.AddCost(v)
					if f.Size() != before+1+cost {
						t.Fatalf("graph %d: AddCost(%d) grew the fragment by %d, priced %d", gi, v, f.Size()-before, 1+cost)
					}
				}
				g.CSRInto(f.Nodes(), &want)
				f.CSRInto(&got)
				if !csrEqual(&got, &want) {
					t.Fatalf("graph %d overlay=%v nodes %v:\ngot  out %v %v in %v %v\nwant out %v %v in %v %v",
						gi, g.HasOverlay(), f.Nodes(), got.OutStart, got.OutAdj, got.InStart, got.InAdj,
						want.OutStart, want.OutAdj, want.InStart, want.InAdj)
				}
				if f.NumEdges() != want.NumEdges() {
					t.Fatalf("graph %d: the fragment counts %d edges, its view holds %d", gi, f.NumEdges(), want.NumEdges())
				}
				for v := NodeID(0); int(v) < n; v++ {
					if got.PosOf(v) != want.PosOf(v) || f.PosOf(v) != want.PosOf(v) {
						t.Fatalf("graph %d: PosOf(%d) = %d on the fragment's view, %d on the fragment, %d on the list's",
							gi, v, got.PosOf(v), f.PosOf(v), want.PosOf(v))
					}
				}
				// The same FragCSR serves both builders in turn.
				g.CSRInto(f.Nodes(), &got)
				if !csrEqual(&got, &want) || got.PosOf(f.Nodes()[0]) != 0 {
					t.Fatal("a fragment's view left state that Graph.CSRInto reused")
				}
			}
		}
	}
	if probed == 0 || scanned == 0 || restaged == 0 || loops == 0 {
		t.Fatalf("a case untested: %d probed, %d scanned, %d restaged, %d self-loops", probed, scanned, restaged, loops)
	}
}

// TestRegionIntoEqualsWalkAndCSRInto: RegionInto, whose walk claims
// positions in the view's own index, equals the walk's discovery order
// materialized by Graph.CSRInto — also on a view a cancelled extraction
// left behind.
func TestRegionIntoEqualsWalkAndCSRInto(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var got, want FragCSR
	cancelled := 0
	closed := make(chan struct{})
	close(closed)
	for gi := 0; gi < 3; gi++ {
		// Large enough for a hub's ball to pass the cancellation probe,
		// which polls every interrupt.Stride dequeued nodes.
		for _, g := range probeViews(t, rng, 2500+rng.Intn(500)) {
			n := g.NumNodes()
			for i := 0; i < 20; i++ {
				v, r := NodeID(rng.Intn(n)), 1+rng.Intn(3)
				var labels []LabelID
				if i%3 != 0 {
					labels = []LabelID{LabelID(rng.Intn(g.NumLabels())), LabelID(rng.Intn(g.NumLabels()))}
				}
				if i%2 == 1 && !g.RegionInto(v, 3, nil, &got, closed) {
					cancelled++
				}
				var within []uint64
				if labels != nil {
					within = labelSet(nil, g.NumLabels(), labels)
				}
				nodes, _ := g.walk(v, Both, r, nil, []NodeID{}, nil, within, nil)
				g.CSRInto(nodes, &want)
				if !g.RegionInto(v, r, labels, &got, nil) {
					t.Fatal("an uncancellable extraction reported cancelled")
				}
				if !csrEqual(&got, &want) {
					t.Fatalf("graph %d overlay=%v region(%d, %d, %v): got %v, want %v", gi, g.HasOverlay(), v, r, labels, got.Orig, want.Orig)
				}
				for w := NodeID(0); int(w) < n; w++ {
					if got.PosOf(w) != want.PosOf(w) {
						t.Fatalf("graph %d: PosOf(%d) = %d, want %d", gi, w, got.PosOf(w), want.PosOf(w))
					}
				}
			}
		}
	}
	if cancelled == 0 {
		t.Fatal("no extraction was cancelled")
	}
}
