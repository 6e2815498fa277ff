package simulation

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// figure1Graph reproduces the data graph of the paper's Fig. 1 / Example 4:
// Michael with hiking-group (HG) and cycling-club (CC) neighbors, cycling
// lovers (CL) behind them. Returns the graph and the ids of interest.
func figure1Graph() (g *graph.Graph, michael, cc3, cln1, cln graph.NodeID) {
	b := graph.NewBuilder(12, 16)
	michael = b.AddNode("Michael")
	hg1 := b.AddNode("HG")
	hg2 := b.AddNode("HG")
	hgm := b.AddNode("HG")
	cc1 := b.AddNode("CC")
	cc2 := b.AddNode("CC")
	cc3 = b.AddNode("CC")
	cl1 := b.AddNode("CL")
	cl2 := b.AddNode("CL")
	cl3 := b.AddNode("CL")
	cln1 = b.AddNode("CL")
	cln = b.AddNode("CL")
	for _, h := range []graph.NodeID{hg1, hg2, hgm} {
		b.AddEdge(michael, h)
	}
	for _, c := range []graph.NodeID{cc1, cc2, cc3} {
		b.AddEdge(michael, c)
	}
	b.AddEdge(cc1, cl1)
	b.AddEdge(cc1, cl2)
	b.AddEdge(cc1, cl3)
	b.AddEdge(cc3, cln1)
	b.AddEdge(cc3, cln)
	b.AddEdge(hgm, cln1)
	b.AddEdge(hgm, cln)
	return b.Build(), michael, cc3, cln1, cln
}

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

func TestFigure1StrongSimulationAnswer(t *testing.T) {
	g, michael, _, cln1, cln := figure1Graph()
	p := figure1Pattern(t)
	vp, ok := PersonalizedMatch(g, p)
	if !ok || vp != michael {
		t.Fatalf("personalized match = %d, %v", vp, ok)
	}
	got := MatchInGraph(g, p, vp)
	want := []graph.NodeID{cln1, cln}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Q(G) = %v, want %v (the paper's {cl_{n-1}, cl_n})", got, want)
	}
}

func TestFigure1MatchOptAgrees(t *testing.T) {
	g, michael, _, cln1, cln := figure1Graph()
	p := figure1Pattern(t)
	got, _ := MatchOpt(g, p, labelsOf(g, p), michael, nil)
	if !reflect.DeepEqual(got, []graph.NodeID{cln1, cln}) {
		t.Fatalf("MatchOpt = %v", got)
	}
}

func TestFigure1StrongSimAgrees(t *testing.T) {
	g, michael, _, cln1, cln := figure1Graph()
	p := figure1Pattern(t)
	got := StrongSim(g, p, michael)
	if !reflect.DeepEqual(got, []graph.NodeID{cln1, cln}) {
		t.Fatalf("StrongSim = %v", got)
	}
}

func TestFigure1FullRelation(t *testing.T) {
	g, michael, cc3, _, _ := figure1Graph()
	p := figure1Pattern(t)
	rel, ok := DualSimulation(g, p, michael)
	if !ok {
		t.Fatal("no relation")
	}
	// sim(CC) must be exactly {cc3}: cc1's CL children all lack an HG parent
	// and cc2 has no CL child at all.
	if got := rel.Matches(1); !reflect.DeepEqual(got, []graph.NodeID{cc3}) {
		t.Fatalf("sim(CC) = %v, want {%d}", got, cc3)
	}
	if got := rel.Matches(0); !reflect.DeepEqual(got, []graph.NodeID{michael}) {
		t.Fatalf("sim(Michael) = %v", got)
	}
}

func TestNoMatchWhenLabelMissing(t *testing.T) {
	g := graph.FromEdges([]string{"A", "B"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	z := b.AddNode("Z") // label absent from G
	b.AddEdge(a, z)
	b.SetPersonalized(a).SetOutput(z)
	p := b.MustBuild()
	if got := MatchInGraph(g, p, 0); got != nil {
		t.Fatalf("expected no matches, got %v", got)
	}
}

func TestNoMatchWhenStructureMissing(t *testing.T) {
	// G: A -> B. Pattern: A -> B -> C where no C exists downstream.
	g := graph.FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	c := b.AddNode("C")
	b.AddEdge(a, bb).AddEdge(bb, c)
	b.SetPersonalized(a).SetOutput(c)
	p := b.MustBuild()
	if got := MatchInGraph(g, p, 0); got != nil {
		t.Fatalf("expected no matches, got %v", got)
	}
}

func TestParentConditionEnforced(t *testing.T) {
	// Pattern: X -> P* -> Y (P has a parent X). Data: p has child y but no
	// X parent -> no match.
	g := graph.FromEdges([]string{"P", "Y"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	x := b.AddNode("X")
	pp := b.AddNode("P")
	y := b.AddNode("Y")
	b.AddEdge(x, pp).AddEdge(pp, y)
	b.SetPersonalized(pp).SetOutput(y)
	p := b.MustBuild()
	if got := MatchInGraph(g, p, 0); got != nil {
		t.Fatalf("expected no matches, got %v", got)
	}
}

func TestSingleNodePattern(t *testing.T) {
	g := graph.FromEdges([]string{"A", "B"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	b.SetPersonalized(a).SetOutput(a)
	p := b.MustBuild()
	got := MatchInGraph(g, p, 0)
	if !reflect.DeepEqual(got, []graph.NodeID{0}) {
		t.Fatalf("got %v", got)
	}
}

func TestPinnedMismatchLabel(t *testing.T) {
	g := graph.FromEdges([]string{"A", "B"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	b.SetPersonalized(a).SetOutput(a)
	p := b.MustBuild()
	// Pin u_p to node 1, whose label is B, not A.
	if got := MatchInGraph(g, p, 1); got != nil {
		t.Fatalf("got %v", got)
	}
}

func TestSimulationAllowsManyToOne(t *testing.T) {
	// Unlike isomorphism, simulation lets two query nodes share a match:
	// pattern P* -> C, P -> C' (both labeled C); data has a single C child.
	g := graph.FromEdges([]string{"P", "C"}, [][2]int{{0, 1}})
	b := pattern.NewBuilder()
	pp := b.AddNode("P")
	c1 := b.AddNode("C")
	c2 := b.AddNode("C")
	b.AddEdge(pp, c1).AddEdge(pp, c2)
	b.SetPersonalized(pp).SetOutput(c2)
	p := b.MustBuild()
	got := MatchInGraph(g, p, 0)
	if !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Fatalf("got %v", got)
	}
}

func TestCyclicPatternOnCyclicData(t *testing.T) {
	// Pattern: A* <-> B (2-cycle), output B. Data: a <-> b.
	g := graph.FromEdges([]string{"A", "B"}, [][2]int{{0, 1}, {1, 0}})
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	b.AddEdge(a, bb).AddEdge(bb, a)
	b.SetPersonalized(a).SetOutput(bb)
	p := b.MustBuild()
	got := MatchInGraph(g, p, 0)
	if !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Fatalf("got %v", got)
	}
	// Data missing the back edge must not match.
	g2 := graph.FromEdges([]string{"A", "B"}, [][2]int{{0, 1}})
	if got := MatchInGraph(g2, p, 0); got != nil {
		t.Fatalf("got %v on acyclic data", got)
	}
}

func TestPersonalizedMatchUniqueness(t *testing.T) {
	g := graph.FromEdges([]string{"A", "A"}, nil)
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	b.SetPersonalized(a).SetOutput(a)
	p := b.MustBuild()
	if _, ok := PersonalizedMatch(g, p); ok {
		t.Fatal("two candidates should not count as a unique personalized match")
	}
}

// relationIsDualSimulation verifies the defining conditions of dual
// simulation for every pair in rel.
func relationIsDualSimulation(g *graph.Graph, p *pattern.Pattern, rel Relation) bool {
	inRel := make([]map[graph.NodeID]bool, p.NumNodes())
	for u := range inRel {
		inRel[u] = make(map[graph.NodeID]bool)
		for _, v := range rel[u] {
			inRel[u][v] = true
		}
	}
	for u := 0; u < p.NumNodes(); u++ {
		uq := pattern.NodeID(u)
		for _, v := range rel[u] {
			if g.Label(v) != p.Label(uq) {
				return false
			}
			for _, uc := range p.Out(uq) {
				found := false
				for _, vc := range g.Out(v) {
					if inRel[uc][vc] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			for _, ua := range p.In(uq) {
				found := false
				for _, va := range g.In(v) {
					if inRel[ua][va] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
	}
	return true
}

// labelsOf resolves p's labels to g's interned ids, as the plan layer does
// once per template.
func labelsOf(g *graph.Graph, p *pattern.Pattern) []graph.LabelID {
	return g.InternLabels(p.Labels(), nil)
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
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			b.AddNode(string(rune('a' + rng.Intn(labels))))
		}
		// Chain to guarantee connectivity, plus random extra edges.
		for i := 1; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.AddEdge(pattern.NodeID(i-1), pattern.NodeID(i))
			} else {
				b.AddEdge(pattern.NodeID(i), pattern.NodeID(i-1))
			}
		}
		for i := 0; i < rng.Intn(3); i++ {
			b.AddEdge(pattern.NodeID(rng.Intn(n)), pattern.NodeID(rng.Intn(n)))
		}
		b.SetPersonalized(0).SetOutput(pattern.NodeID(n - 1))
		if p, err := b.Build(); err == nil {
			return p
		}
	}
}

// Property: the fixpoint output is always a genuine dual simulation.
func TestDualSimulationSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		g := randomLabeled(rng, 20, 50, 3)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		rel, ok := DualSimulation(g, p, vp)
		if !ok {
			continue
		}
		if !relationIsDualSimulation(g, p, rel) {
			t.Fatalf("iteration %d: output is not a dual simulation", i)
		}
	}
}

// naiveDualSimulation is the maximum dual simulation of p in g with u_p
// pinned to vp, computed the textbook way and independently of refine:
// start from every label-compatible pair, then sweep all pairs, dropping
// each that violates the child or the parent condition, until a sweep
// changes nothing.
func naiveDualSimulation(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) (Relation, bool) {
	sim := make([]map[graph.NodeID]bool, p.NumNodes())
	for u := range sim {
		sim[u] = map[graph.NodeID]bool{}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			pinned := pattern.NodeID(u) == p.Personalized()
			if g.Label(v) == p.Label(pattern.NodeID(u)) && (!pinned || v == vp) {
				sim[u][v] = true
			}
		}
	}
	anyIn := func(vs []graph.NodeID, set map[graph.NodeID]bool) bool {
		for _, v := range vs {
			if set[v] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for u := range sim {
			uq := pattern.NodeID(u)
			for v := range sim[u] {
				ok := true
				for _, uc := range p.Out(uq) {
					ok = ok && anyIn(g.Out(v), sim[uc])
				}
				for _, ua := range p.In(uq) {
					ok = ok && anyIn(g.In(v), sim[ua])
				}
				if !ok {
					delete(sim[u], v)
					changed = true
				}
			}
		}
	}
	rel := make(Relation, len(sim))
	for u := range sim {
		if len(sim[u]) == 0 {
			return nil, false
		}
		for v := range sim[u] {
			rel[u] = append(rel[u], v)
		}
		slices.Sort(rel[u])
	}
	return rel, true
}

// Property: DualSimulation — MatchFragment's fixpoint on the whole-graph
// view — is the maximum dual simulation, on random graphs with
// self-loops, patterns with extra edges and self-loops, and (every third
// case) a pattern label the graph does not have, at every pin.
func TestDualSimulationEqualsNaiveFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nonEmpty := 0
	for i := 0; i < 80; i++ {
		g := randomLabeled(rng, 25, 70, 3)
		labels := 3
		if i%3 == 2 {
			labels = 4 // 'd' never occurs in g
		}
		p := randomPattern(rng, labels)
		for vp := graph.NodeID(0); int(vp) < g.NumNodes(); vp++ {
			got, gotOK := DualSimulation(g, p, vp)
			want, wantOK := naiveDualSimulation(g, p, vp)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d pin %d:\npattern:\n%sgot  %v (%v)\nwant %v (%v)", i, vp, p, got, gotOK, want, wantOK)
			}
			if gotOK {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every relation was empty; the fixture checks nothing")
	}
}

// Property: StrongSim (ball-per-center) is a subset of MatchOpt (single
// ball): restricting matching to smaller balls can only remove matches.
func TestStrongSimSubsetOfMatchOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		g := randomLabeled(rng, 18, 40, 3)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Label(vp) != p.Label(p.Personalized()) {
			continue
		}
		strong := StrongSim(g, p, vp)
		opt := make(map[graph.NodeID]bool)
		optMatches, _ := MatchOpt(g, p, labelsOf(g, p), vp, nil)
		for _, v := range optMatches {
			opt[v] = true
		}
		for _, v := range strong {
			if !opt[v] {
				t.Fatalf("iteration %d: StrongSim match %d missing from MatchOpt", i, v)
			}
		}
	}
}

// Property: MatchOpt on the ball equals MatchInGraph on the whole graph
// when the graph fits inside the ball (locality sanity check).
func TestMatchOptEqualsWholeGraphWhenLocal(t *testing.T) {
	g, michael, _, _, _ := figure1Graph()
	p := figure1Pattern(t)
	whole := MatchInGraph(g, p, michael)
	opt, _ := MatchOpt(g, p, labelsOf(g, p), michael, nil)
	if !reflect.DeepEqual(whole, opt) {
		t.Fatalf("whole=%v opt=%v", whole, opt)
	}
}
