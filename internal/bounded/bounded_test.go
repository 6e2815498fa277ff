package bounded

import (
	"math/rand"
	"reflect"
	"testing"

	"rbq/internal/accuracy"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
	"rbq/internal/subiso"
)

func figure1Pattern(t *testing.T) *pattern.Pattern {
	t.Helper()
	b := pattern.NewBuilder()
	m := b.AddNode("Michael")
	cc := b.AddNode("CC")
	hg := b.AddNode("HG")
	cl := b.AddNode("CL")
	b.AddEdge(m, cc).AddEdge(m, hg).AddEdge(cc, cl).AddEdge(hg, cl)
	b.SetPersonalized(m).SetOutput(cl)
	return b.MustBuild()
}

// example2Graph builds the Example 2/3/4 setting at scale: Michael with m
// HG friends and 3 CC friends; cc1 has 3 CL children without HG parents,
// cc2 none, cc3 has the two answers cl_{n-1}, cl_n which also have the HG
// parent hg_m; the remaining CL nodes hang off the other HG members.
func example2Graph(m, n int) (g *graph.Graph, michael, cln1, cln graph.NodeID) {
	b := graph.NewBuilder(m+n+4, 2*(m+n))
	michael = b.AddNode("Michael")
	hgs := make([]graph.NodeID, m)
	for i := range hgs {
		hgs[i] = b.AddNode("HG")
		b.AddEdge(michael, hgs[i])
	}
	cc1 := b.AddNode("CC")
	cc2 := b.AddNode("CC")
	cc3 := b.AddNode("CC")
	b.AddEdge(michael, cc1)
	b.AddEdge(michael, cc2)
	b.AddEdge(michael, cc3)
	cls := make([]graph.NodeID, n)
	for i := range cls {
		cls[i] = b.AddNode("CL")
	}
	// cc1's three children: CL nodes with no HG parent.
	for i := 0; i < 3 && i < n; i++ {
		b.AddEdge(cc1, cls[i])
	}
	// The two answers, children of cc3 and of hg_m (the last HG node).
	cln1, cln = cls[n-2], cls[n-1]
	hgm := hgs[m-1]
	b.AddEdge(cc3, cln1)
	b.AddEdge(cc3, cln)
	b.AddEdge(hgm, cln1)
	b.AddEdge(hgm, cln)
	// Remaining CL nodes: children of the other HG members (no CC parent),
	// spread round-robin.
	for i := 3; i < n-2; i++ {
		b.AddEdge(hgs[i%(m-1)], cls[i])
	}
	return b.Build(), michael, cln1, cln
}

// runSim is RBSim on freshly bound semantics.
func runSim(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, opts reduce.Options) Result {
	return Run(aux, p, vp, Compile(aux.Graph(), p, Simulation), opts, nil)
}

// runSub is RBSub on freshly bound semantics.
func runSub(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, opts reduce.Options) Result {
	return Run(aux, p, vp, Compile(aux.Graph(), p, Subgraph), opts, nil)
}

func TestExample2ExactAnswerUnderSmallAlpha(t *testing.T) {
	g, michael, cln1, cln := example2Graph(96, 900)
	aux := graph.BuildAux(g)
	p := figure1Pattern(t)
	// Paper Example 2 allows ~16 data items; our induced-edge accounting
	// needs a little more headroom.
	alpha := 24.0 / float64(g.Size())
	res := runSim(aux, p, michael, reduce.Options{Alpha: alpha})
	want := []graph.NodeID{cln1, cln}
	if !reflect.DeepEqual(res.Matches, want) {
		t.Fatalf("matches = %v, want %v (stats %+v)", res.Matches, want, res.Stats)
	}
	exact := simulation.MatchInGraph(g, p, michael)
	if acc := accuracy.Matches(exact, res.Matches); acc.F != 1 {
		t.Fatalf("accuracy = %+v, want 1", acc)
	}
	if res.Stats.FragmentSize > res.Stats.Budget {
		t.Fatalf("budget violated: %+v", res.Stats)
	}
	// The whole point: the fragment is a tiny part of G.
	if res.Stats.FragmentSize > g.Size()/10 {
		t.Fatalf("fragment suspiciously large: %+v of |G|=%d", res.Stats, g.Size())
	}
}

func TestBudgetAlwaysRespected(t *testing.T) {
	g, michael, _, _ := example2Graph(30, 100)
	aux := graph.BuildAux(g)
	p := figure1Pattern(t)
	for _, alpha := range []float64{0.01, 0.05, 0.2, 0.8} {
		res := runSim(aux, p, michael, reduce.Options{Alpha: alpha})
		if res.Stats.FragmentSize > res.Stats.Budget {
			t.Fatalf("alpha=%v: %+v", alpha, res.Stats)
		}
	}
}

func TestGuardSemantics(t *testing.T) {
	g, michael, _, _ := example2Graph(10, 20)
	aux := graph.BuildAux(g)
	p := figure1Pattern(t)
	sem := NewSemantics(aux, p, Simulation)
	// Michael passes for u_p.
	if !sem.Guard(michael, p.Personalized()) {
		t.Fatal("Michael fails its own guard")
	}
	// A CL node with only an HG parent fails the CL guard (needs CC too).
	var clNoCC graph.NodeID = graph.NoNode
	clLabel := g.LabelIDOf("CL")
	ccLabel := g.LabelIDOf("CC")
	for _, v := range g.NodesWithLabel(clLabel) {
		hasCC := false
		for _, par := range g.In(v) {
			if g.LabelOf(par) == ccLabel {
				hasCC = true
			}
		}
		if !hasCC {
			clNoCC = v
			break
		}
	}
	if clNoCC == graph.NoNode {
		t.Fatal("test graph lacks a CC-less CL node")
	}
	if sem.Guard(clNoCC, 3) {
		t.Fatal("guard admitted a CL node without a CC parent")
	}
}

func TestPotentialCountsDirectionally(t *testing.T) {
	// p(v, u) for Michael under u_p: children CC (3) + children HG (m).
	g, michael, _, _ := example2Graph(5, 20)
	aux := graph.BuildAux(g)
	p := figure1Pattern(t)
	sem := NewSemantics(aux, p, Simulation)
	if got := sem.Potential(michael, p.Personalized()); got != 8 { // 3 CC + 5 HG
		t.Fatalf("potential = %v, want 8", got)
	}
}

// Precision property (Section 4.1 analysis): any dual simulation on a
// subgraph is a dual simulation on G, so RBSim's answers are always a
// subset of the exact answers — precision 1 whenever RBSim answers at all.
func TestSimPrecisionAlwaysOne(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 30; i++ {
		g := randomLabeled(rng, 50, 140, 3)
		aux := graph.BuildAux(g)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Label(vp) != p.Label(p.Personalized()) {
			continue
		}
		res := runSim(aux, p, vp, reduce.Options{Alpha: 0.3})
		exact := map[graph.NodeID]bool{}
		for _, v := range simulation.MatchInGraph(g, p, vp) {
			exact[v] = true
		}
		for _, v := range res.Matches {
			if !exact[v] {
				t.Fatalf("iteration %d: false positive %d (pattern\n%s)", i, v, p)
			}
		}
	}
}

func TestLargerAlphaNeverHurtsOnExample(t *testing.T) {
	g, michael, _, _ := example2Graph(40, 200)
	aux := graph.BuildAux(g)
	p := figure1Pattern(t)
	exact := simulation.MatchInGraph(g, p, michael)
	prev := -1.0
	for _, alpha := range []float64{0.005, 0.02, 0.1, 0.5} {
		res := runSim(aux, p, michael, reduce.Options{Alpha: alpha})
		acc := accuracy.Matches(exact, res.Matches).F
		if acc < prev-1e-9 {
			t.Fatalf("accuracy regressed from %v to %v at alpha=%v", prev, acc, alpha)
		}
		prev = acc
	}
	if prev != 1 {
		t.Fatalf("accuracy at alpha=0.5 is %v, want 1", prev)
	}
}

func TestNoMatchGraphGivesEmptyAnswer(t *testing.T) {
	// No CL nodes at all: exact answer empty, RBSim must return empty.
	b := graph.NewBuilder(3, 2)
	m := b.AddNode("Michael")
	b.AddEdge(m, b.AddNode("CC"))
	b.AddEdge(m, b.AddNode("HG"))
	g := b.Build()
	aux := graph.BuildAux(g)
	p := figure1Pattern(t)
	res := runSim(aux, p, m, reduce.Options{Alpha: 1.0})
	if res.Matches != nil {
		t.Fatalf("matches = %v", res.Matches)
	}
	if acc := accuracy.Matches(nil, res.Matches); acc.F != 1 {
		t.Fatalf("empty-vs-empty accuracy = %+v", acc)
	}
}

func twoChildPattern(t *testing.T) *pattern.Pattern {
	t.Helper()
	b := pattern.NewBuilder()
	pp := b.AddNode("P")
	c1 := b.AddNode("C")
	c2 := b.AddNode("C")
	b.AddEdge(pp, c1).AddEdge(pp, c2)
	b.SetPersonalized(pp).SetOutput(c2)
	return b.MustBuild()
}

func TestGuardRequiresDistinctNeighbors(t *testing.T) {
	// p has only ONE C child: the isomorphism guard (two distinct C
	// children needed) must reject it, while the simulation guard passes.
	g := graph.FromEdges([]string{"P", "C"}, [][2]int{{0, 1}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	if NewSemantics(aux, p, Subgraph).Guard(0, p.Personalized()) {
		t.Fatal("guard admitted a node with too few distinct children")
	}
	if !NewSemantics(aux, p, Simulation).Guard(0, p.Personalized()) {
		t.Fatal("the simulation guard demanded distinct children")
	}
	g2 := graph.FromEdges([]string{"P", "C", "C"}, [][2]int{{0, 1}, {0, 2}})
	aux2 := graph.BuildAux(g2)
	if !NewSemantics(aux2, p, Subgraph).Guard(0, p.Personalized()) {
		t.Fatal("guard rejected a node with enough distinct children")
	}
}

func TestGuardDegreeConstraint(t *testing.T) {
	// Query node with 2 children: data node with out-degree 1 fails even
	// before label counting.
	g := graph.FromEdges([]string{"P", "C"}, [][2]int{{0, 1}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	if NewSemantics(aux, p, Subgraph).Guard(0, p.Personalized()) {
		t.Fatal("degree constraint not enforced")
	}
}

func TestRunFindsIsomorphicMatches(t *testing.T) {
	g := graph.FromEdges([]string{"P", "C", "C", "X"}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	res := runSub(aux, p, 0, reduce.Options{Alpha: 1.0})
	if !res.Complete {
		t.Fatal("truncated")
	}
	if !reflect.DeepEqual(res.Matches, []graph.NodeID{1, 2}) {
		t.Fatalf("matches = %v (stats %+v)", res.Matches, res.Stats)
	}
}

func TestRunEmptyWhenNoEmbedding(t *testing.T) {
	g := graph.FromEdges([]string{"P", "C"}, [][2]int{{0, 1}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	res := runSub(aux, p, 0, reduce.Options{Alpha: 1.0})
	if res.Matches != nil {
		t.Fatalf("matches = %v", res.Matches)
	}
}

func TestBudgetRespected(t *testing.T) {
	b := graph.NewBuilder(101, 100)
	hub := b.AddNode("P")
	for i := 0; i < 100; i++ {
		b.AddEdge(hub, b.AddNode("C"))
	}
	g := b.Build()
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	res := runSub(aux, p, hub, reduce.Options{Alpha: 0.1})
	if res.Stats.FragmentSize > res.Stats.Budget {
		t.Fatalf("%+v", res.Stats)
	}
}

// Precision property: an embedding inside the fragment is an embedding in
// G, so RBSub never reports a false match.
func TestSubPrecisionAlwaysOne(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		g := randomLabeled(rng, 40, 100, 3)
		aux := graph.BuildAux(g)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Label(vp) != p.Label(p.Personalized()) {
			continue
		}
		res := runSub(aux, p, vp, reduce.Options{Alpha: 0.3})
		exactSlice, complete := subiso.Match(g, p, vp, nil)
		if !complete {
			continue
		}
		exact := map[graph.NodeID]bool{}
		for _, v := range exactSlice {
			exact[v] = true
		}
		for _, v := range res.Matches {
			if !exact[v] {
				t.Fatalf("iteration %d: false positive %d", i, v)
			}
		}
	}
}

func TestPotentialPositiveForViableNodes(t *testing.T) {
	g := graph.FromEdges([]string{"P", "C", "C"}, [][2]int{{0, 1}, {0, 2}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	// Potential sums label-candidates per pattern neighbor: 2 query
	// children x 2 data candidates each, under either class.
	for _, c := range []Class{Simulation, Subgraph} {
		if got := NewSemantics(aux, p, c).Potential(0, p.Personalized()); got != 4 {
			t.Fatalf("class %d: potential = %v, want 4", c, got)
		}
	}
}

// TestIdleScratchPinsNoSnapshot: the pools outlive the snapshots of their
// lineage, so a scratch at rest in one must reference neither the graph
// nor the Aux it last served — and must serve the next borrower, of
// whichever snapshot and class, as a fresh one would.
func TestIdleScratchPinsNoSnapshot(t *testing.T) {
	g, michael, _, _ := example2Graph(30, 100)
	aux := graph.BuildAux(g)
	p := figure1Pattern(t)
	opts := reduce.Options{Alpha: 0.2}
	for _, c := range []Class{Simulation, Subgraph} {
		want := Run(aux, p, michael, Compile(g, p, c), opts, nil)

		sc := Borrow(aux, Compile(g, p, c))
		sc.Run(p, michael, opts, nil)
		sc.Release()
		if sc.frag.Parent() != nil || sc.frag.Size() != 0 || sc.sem.aux != nil || sc.aux != nil {
			t.Fatalf("class %d: a released scratch still references its snapshot: parent %p", c, sc.frag.Parent())
		}
		if got := Run(aux, p, michael, Compile(g, p, c), opts, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("class %d after a release: %+v, want %+v", c, got, want)
		}
	}
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
		b.SetPersonalized(0).SetOutput(pattern.NodeID(n - 1))
		if p, err := b.Build(); err == nil {
			return p
		}
	}
}
