package subiso

import (
	"math/rand"
	"reflect"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

func trianglePattern(t *testing.T) *pattern.Pattern {
	t.Helper()
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	c := b.AddNode("C")
	b.AddEdge(a, bb).AddEdge(bb, c).AddEdge(c, a)
	b.SetPersonalized(a).SetOutput(c)
	return b.MustBuild()
}

func TestTriangleFound(t *testing.T) {
	g := graph.FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	got, complete := Match(g, trianglePattern(t), 0, nil)
	if !complete || !reflect.DeepEqual(got, []graph.NodeID{2}) {
		t.Fatalf("got %v complete=%v", got, complete)
	}
}

func TestTriangleMissingEdge(t *testing.T) {
	g := graph.FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}})
	got, complete := Match(g, trianglePattern(t), 0, nil)
	if !complete || got != nil {
		t.Fatalf("got %v", got)
	}
}

func TestInjectivityRequired(t *testing.T) {
	// Pattern: P* with two distinct C children, output one of them. Data
	// with a single C child has a simulation match but no isomorphism.
	g := graph.FromEdges([]string{"P", "C"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	pp := b.AddNode("P")
	c1 := b.AddNode("C")
	c2 := b.AddNode("C")
	b.AddEdge(pp, c1).AddEdge(pp, c2)
	b.SetPersonalized(pp).SetOutput(c2)
	p := b.MustBuild()
	got, _ := Match(g, p, 0, nil)
	if got != nil {
		t.Fatalf("isomorphism must be injective, got %v", got)
	}
	// With two distinct C children both are answers.
	g2 := graph.FromEdges([]string{"P", "C", "C"}, [][2]int{{0, 1}, {0, 2}})
	got2, _ := Match(g2, p, 0, nil)
	if !reflect.DeepEqual(got2, []graph.NodeID{1, 2}) {
		t.Fatalf("got %v", got2)
	}
}

func TestNonInducedSemantics(t *testing.T) {
	// Pattern A* -> B (no back edge). Data a <-> b: extra data edges are
	// allowed because matches are subgraphs, not induced subgraphs.
	g := graph.FromEdges([]string{"A", "B"}, [][2]int{{0, 1}, {1, 0}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	b.AddEdge(a, bb)
	b.SetPersonalized(a).SetOutput(bb)
	p := b.MustBuild()
	got, _ := Match(g, p, 0, nil)
	if !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Fatalf("got %v", got)
	}
}

func TestPinnedRoot(t *testing.T) {
	// Two disjoint A -> B components; pinning u_p to the first A must only
	// return the first B.
	g := graph.FromEdges([]string{"A", "B", "A", "B"}, [][2]int{{0, 1}, {2, 3}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	b.AddEdge(a, bb)
	b.SetPersonalized(a).SetOutput(bb)
	p := b.MustBuild()
	got, _ := Match(g, p, 0, nil)
	if !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Fatalf("got %v", got)
	}
	got, _ = Match(g, p, 2, nil)
	if !reflect.DeepEqual(got, []graph.NodeID{3}) {
		t.Fatalf("got %v", got)
	}
}

func TestWrongPinLabel(t *testing.T) {
	g := graph.FromEdges([]string{"A", "B"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	b.AddEdge(a, bb)
	b.SetPersonalized(a).SetOutput(bb)
	p := b.MustBuild()
	got, complete := Match(g, p, 1, nil) // node 1 is labeled B
	if got != nil || !complete {
		t.Fatalf("got %v", got)
	}
}

func TestBackwardEdgePattern(t *testing.T) {
	// Pattern: X -> P*, output X (an edge INTO the personalized node).
	g := graph.FromEdges([]string{"X", "P", "X"}, [][2]int{{0, 1}, {2, 1}})
	b := pattern.NewBuilder()
	x := b.AddNode("X")
	pp := b.AddNode("P")
	b.AddEdge(x, pp)
	b.SetPersonalized(pp).SetOutput(x)
	p := b.MustBuild()
	got, _ := Match(g, p, 1, nil)
	if !reflect.DeepEqual(got, []graph.NodeID{0, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestMaxStepsTruncates(t *testing.T) {
	// A hub with many children; a tiny budget cannot finish.
	b := graph.NewBuilder(40, 40)
	hub := b.AddNode("P")
	for i := 0; i < 39; i++ {
		b.AddEdge(hub, b.AddNode("C"))
	}
	g := b.Build()
	pb := pattern.NewBuilder()
	pp := pb.AddNode("P")
	c1 := pb.AddNode("C")
	c2 := pb.AddNode("C")
	pb.AddEdge(pp, c1).AddEdge(pp, c2)
	pb.SetPersonalized(pp).SetOutput(c2)
	p := pb.MustBuild()
	_, complete := Match(g, p, hub, &Options{MaxSteps: 3})
	if complete {
		t.Fatal("expected truncation with MaxSteps=3")
	}
	full, complete := Match(g, p, hub, nil)
	if !complete || len(full) != 39 {
		t.Fatalf("unbounded search found %d answers, complete=%v", len(full), complete)
	}
}

func TestMatchOptAgreesWithMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		g := randomLabeled(rng, 25, 60, 3)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		whole, c1 := Match(g, p, vp, nil)
		ball, c2 := MatchOpt(g, p, labelsOf(g, p), vp, nil)
		if !c1 || !c2 {
			t.Fatalf("unexpected truncation")
		}
		if !reflect.DeepEqual(whole, ball) {
			t.Fatalf("iteration %d: Match=%v MatchOpt=%v", i, whole, ball)
		}
	}
}

// Brute-force reference: try all injective label-respecting assignments.
func bruteForce(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) []graph.NodeID {
	n := p.NumNodes()
	assign := make([]graph.NodeID, n)
	used := map[graph.NodeID]bool{}
	answers := map[graph.NodeID]bool{}
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			answers[assign[p.Output()]] = true
			return
		}
		uq := pattern.NodeID(u)
		var cands []graph.NodeID
		if uq == p.Personalized() {
			cands = []graph.NodeID{vp}
		} else {
			for v := 0; v < g.NumNodes(); v++ {
				cands = append(cands, graph.NodeID(v))
			}
		}
		for _, v := range cands {
			if used[v] || g.Label(v) != p.Label(uq) {
				continue
			}
			assign[u] = v
			ok := true
			for _, w := range p.Out(uq) {
				if int(w) < u || w == uq {
					tgt := assign[w]
					if int(w) == u {
						tgt = v
					}
					if !g.HasEdge(v, tgt) {
						ok = false
						break
					}
				}
			}
			if ok {
				for _, w := range p.In(uq) {
					if int(w) < u || w == uq {
						src := assign[w]
						if int(w) == u {
							src = v
						}
						if !g.HasEdge(src, v) {
							ok = false
							break
						}
					}
				}
			}
			if ok {
				used[v] = true
				rec(u + 1)
				delete(used, v)
			}
		}
	}
	rec(0)
	var out []graph.NodeID
	for v := range answers {
		out = append(out, v)
	}
	sortNodes(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

func sortNodes(v []graph.NodeID) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for i := 0; i < 400; i++ {
		g := randomLabeled(rng, 8, 16, 2)
		// Odd iterations put a self-loop on one query node: its image
		// needs a self-loop too (randomLabeled's data has them, since
		// both endpoints of an edge are drawn independently).
		p := randomPatternLoops(rng, 2, i%2)
		if p.NumNodes() > 4 {
			continue
		}
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Label(vp) != p.Label(p.Personalized()) {
			continue
		}
		want := bruteForce(g, p, vp)
		got, complete := Match(g, p, vp, nil)
		if !complete {
			t.Fatal("truncated")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d:\npattern:\n%s\ngot  %v\nwant %v", i, p, got, want)
		}
		// The pooled matcher must agree on the whole graph as one view.
		var csr graph.FragCSR
		var sc Scratch
		g.CSRInto(allNodes(g), &csr)
		frag, complete := MatchFragment(&csr, p, labelsOf(g, p), csr.PosOf(vp), nil, &sc)
		if !complete || !reflect.DeepEqual(frag, want) {
			t.Fatalf("iteration %d: MatchFragment = %v (complete=%v), want %v\npattern:\n%s", i, frag, complete, want, p)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d cases survived the filters", checked)
	}
}

// labelsOf resolves p's labels to g's interned ids, as the plan layer does
// once per template.
func labelsOf(g *graph.Graph, p *pattern.Pattern) []graph.LabelID {
	return g.InternLabels(p.Labels(), nil)
}

func allNodes(g *graph.Graph) []graph.NodeID {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}

func randomLabeled(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + rng.Intn(labels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func randomPattern(rng *rand.Rand, labels int) *pattern.Pattern {
	return randomPatternLoops(rng, labels, 0)
}

// randomPatternLoops is a random path pattern with `loops` self-loops
// added on randomly chosen query nodes.
func randomPatternLoops(rng *rand.Rand, labels, loops int) *pattern.Pattern {
	for {
		b := pattern.NewBuilder()
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			b.AddNode(string(rune('a' + rng.Intn(labels))))
		}
		for i := 1; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.AddEdge(pattern.NodeID(i-1), pattern.NodeID(i))
			} else {
				b.AddEdge(pattern.NodeID(i), pattern.NodeID(i-1))
			}
		}
		for i := 0; i < loops; i++ {
			u := pattern.NodeID(rng.Intn(n))
			b.AddEdge(u, u)
		}
		b.SetPersonalized(0).SetOutput(pattern.NodeID(n - 1))
		if p, err := b.Build(); err == nil {
			return p
		}
	}
}
