package reduce

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// labelSemantics is a minimal Semantics for engine-level tests: guard by
// label only, potential by degree.
type labelSemantics struct {
	g *graph.Graph
	p *pattern.Pattern
}

func (s labelSemantics) GuardLabeled(v graph.NodeID, u pattern.NodeID) bool {
	return s.g.Label(v) == s.p.Label(u)
}

func (s labelSemantics) Potential(v graph.NodeID, u pattern.NodeID) float64 {
	return float64(s.g.Degree(v))
}

func (s labelSemantics) Labels() []graph.LabelID {
	return s.g.InternLabels(s.p.Labels(), nil)
}

func chainPattern(t *testing.T, labels ...string) *pattern.Pattern {
	t.Helper()
	b := pattern.NewBuilder()
	var prev pattern.NodeID
	for i, l := range labels {
		u := b.AddNode(l)
		if i > 0 {
			b.AddEdge(prev, u)
		}
		prev = u
	}
	b.SetPersonalized(0).SetOutput(prev)
	return b.MustBuild()
}

func starGraph(hub string, leaves int, leafLabel string) (*graph.Graph, graph.NodeID) {
	b := graph.NewBuilder(leaves+1, leaves)
	h := b.AddNode(hub)
	for i := 0; i < leaves; i++ {
		b.AddEdge(h, b.AddNode(leafLabel))
	}
	return b.Build(), h
}

func TestBudgetRespected(t *testing.T) {
	g, h := starGraph("P", 50, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	for _, alpha := range []float64{0.05, 0.1, 0.3, 0.9} {
		frag, stats := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: alpha})
		if frag.Size() > stats.Budget {
			t.Fatalf("alpha=%v: fragment %d exceeds budget %d", alpha, frag.Size(), stats.Budget)
		}
		if stats.FragmentSize != frag.Size() {
			t.Fatalf("stats size mismatch")
		}
	}
}

func TestPersonalizedNodeAlwaysIncluded(t *testing.T) {
	g, h := starGraph("P", 10, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	frag, _ := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 0.2})
	if !frag.Contains(h) {
		t.Fatal("v_p missing from fragment")
	}
}

func TestZeroBudgetYieldsEmptyFragment(t *testing.T) {
	g, h := starGraph("P", 10, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	frag, stats := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 0.01})
	if stats.Budget != 0 || frag.Size() != 0 {
		t.Fatalf("budget=%d size=%d", stats.Budget, frag.Size())
	}
}

func TestGuardPrunes(t *testing.T) {
	// P -> {C, X, X, X}: a chain pattern P->C must never pull X nodes in.
	b := graph.NewBuilder(5, 4)
	h := b.AddNode("P")
	c := b.AddNode("C")
	b.AddEdge(h, c)
	for i := 0; i < 3; i++ {
		b.AddEdge(h, b.AddNode("X"))
	}
	g := b.Build()
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	frag, _ := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0})
	for _, v := range frag.Nodes() {
		if g.Label(v) == "X" {
			t.Fatalf("guard failed to prune X node %d", v)
		}
	}
	if !frag.Contains(c) {
		t.Fatal("candidate C missing")
	}
}

func TestDisableGuardStillLabelFiltered(t *testing.T) {
	b := graph.NewBuilder(4, 3)
	h := b.AddNode("P")
	c := b.AddNode("C")
	x := b.AddNode("X")
	b.AddEdge(h, c)
	b.AddEdge(h, x)
	g := b.Build()
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	frag, _ := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0, DisableGuard: true})
	if frag.Contains(x) {
		t.Fatal("label check must survive DisableGuard")
	}
}

func TestFairnessBoundLimitsPerExpansion(t *testing.T) {
	// A hub with 30 C children and budget for everything: with MaxBound=2
	// and a single round (bound never escalates because everything the
	// round wants fits), only 2 children are taken per expansion round.
	g, h := starGraph("P", 30, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	frag, stats := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0, MaxBound: 2})
	// Round 1 (b=2) adds hub + 2 children; escalation is capped, so the
	// search stops even though changed was true.
	if frag.NumNodes() != 3 {
		t.Fatalf("nodes=%d, want 3 (hub + bound b=2 children); stats=%+v", frag.NumNodes(), stats)
	}
}

func TestBoundEscalationReachesAll(t *testing.T) {
	g, h := starGraph("P", 12, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	frag, stats := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0})
	if frag.NumNodes() != 13 {
		t.Fatalf("escalation stopped early: nodes=%d stats=%+v", frag.NumNodes(), stats)
	}
	if stats.Rounds < 2 || stats.FinalBound <= 2 {
		t.Fatalf("expected multiple escalation rounds, got %+v", stats)
	}
}

func TestVisitBudgetStopsSearch(t *testing.T) {
	g, h := starGraph("P", 100, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	_, stats := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0, VisitBudget: 5})
	if !stats.VisitsExhausted {
		t.Fatalf("visit budget ignored: %+v", stats)
	}
	if stats.Visited > 5+1 { // one final increment detects exhaustion
		t.Fatalf("visited %d with budget 5", stats.Visited)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomLabeled(rng, 60, 150, 3)
	aux := graph.BuildAux(g)
	p := chainPattern(t, "a", "b", "c")
	vp := graph.NodeID(0)
	frag1, s1 := Search(aux, p, vp, labelSemantics{g, p}, Options{Alpha: 0.3})
	frag2, s2 := Search(aux, p, vp, labelSemantics{g, p}, Options{Alpha: 0.3})
	if !reflect.DeepEqual(frag1.Nodes(), frag2.Nodes()) || s1 != s2 {
		t.Fatal("reduction is not deterministic")
	}
}

func TestWeightStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomLabeled(rng, 50, 120, 3)
	aux := graph.BuildAux(g)
	p := chainPattern(t, "a", "b")
	for _, st := range []WeightStrategy{WeightPotentialCost, WeightDegree, WeightRandom} {
		frag, stats := Search(aux, p, 0, labelSemantics{g, p}, Options{Alpha: 0.2, Strategy: st, Seed: 1})
		if frag.Size() > stats.Budget {
			t.Fatalf("strategy %d exceeded budget", st)
		}
	}
}

func TestFragmentStaysWithinGuardedReach(t *testing.T) {
	// Every fragment node other than v_p must be label-compatible with
	// some query node (the traversal only picks guarded candidates).
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 15; i++ {
		g := randomLabeled(rng, 40, 100, 4)
		aux := graph.BuildAux(g)
		p := chainPattern(t, "a", "b", "c")
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		frag, _ := Search(aux, p, vp, labelSemantics{g, p}, Options{Alpha: 0.5})
		valid := map[string]bool{"a": true, "b": true, "c": true}
		for _, v := range frag.Nodes() {
			if v == vp {
				continue
			}
			if !valid[g.Label(v)] {
				t.Fatalf("fragment contains unguarded node %d label %q", v, g.Label(v))
			}
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

// Property (testing/quick): the fragment never exceeds its budget, for
// arbitrary graphs, alphas and strategies.
func TestBudgetPropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw, mRaw, alphaRaw uint8, strategyRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%50
		m := int(mRaw) % 150
		g := randomLabeled(rng, n, m, 3)
		aux := graph.BuildAux(g)
		p := chainPattern(t, "a", "b")
		alpha := float64(1+int(alphaRaw)%99) / 100
		opts := Options{
			Alpha:    alpha,
			Strategy: WeightStrategy(int(strategyRaw) % 3),
			Seed:     seed,
		}
		vp := graph.NodeID(rng.Intn(n))
		frag, stats := Search(aux, p, vp, labelSemantics{g, p}, opts)
		// v_p joins the fragment whenever its own footprint (1 node plus
		// a possible self-loop edge) fits the budget.
		footprint := 1
		if g.HasEdge(vp, vp) {
			footprint = 2
		}
		vpFits := stats.Budget >= footprint
		return frag.Size() <= stats.Budget &&
			stats.FragmentSize == frag.Size() &&
			(!vpFits || frag.Contains(vp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// costFixtures returns the graphs the cost tests price on, as a base Aux
// and a patched overlay view of it: iteration iter picks a small
// alphabet, a 40-label one with hubs, or a larger graph with hubs.
func costFixtures(t *testing.T, rng *rand.Rand, iter int) []*graph.Aux {
	t.Helper()
	n, labels, hubs := 30, 2, 0
	switch iter % 3 {
	case 1:
		labels, hubs = 40, 2
	case 2:
		n, hubs = 60, 2
	}
	base := randomLabeled(rng, n, 4*n, labels)
	if hubs > 0 {
		base = withHubs(rng, base, hubs)
	}
	baseAux := graph.BuildAux(base)
	view, err := base.WithOverlay(graph.OverlayDelta{
		NewNodeLabels: []string{"a", "b"},
		AddEdges:      [][2]graph.NodeID{{graph.NodeID(base.NumNodes()), 0}, {1, graph.NodeID(base.NumNodes() + 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	patched, err := baseAux.PatchedFor(view)
	if err != nil {
		t.Fatal(err)
	}
	return []*graph.Aux{baseAux, patched}
}

// bruteHas reports whether some dir-neighbour of v in frag is labelled
// label, by a scan of v's whole list.
func bruteHas(g *graph.Graph, frag *graph.Fragment, v graph.NodeID, label string, dir graph.Direction) bool {
	adj := g.Out(v)
	if dir == graph.Backward {
		adj = g.In(v)
	}
	for _, w := range adj {
		if frag.Contains(w) && g.Label(w) == label {
			return true
		}
	}
	return false
}

// bruteCost is c(v,u) by brute force: the pattern neighbours of u with no
// neighbour of v in frag carrying their label.
func bruteCost(g *graph.Graph, p *pattern.Pattern, frag *graph.Fragment, v graph.NodeID, u pattern.NodeID) float64 {
	misses := 0
	for _, uc := range p.Out(u) {
		if !bruteHas(g, frag, v, p.Label(uc), graph.Forward) {
			misses++
		}
	}
	for _, ua := range p.In(u) {
		if !bruteHas(g, frag, v, p.Label(ua), graph.Backward) {
			misses++
		}
	}
	return float64(misses)
}

// Cost inversion: hasFragCandidate must agree between its two scan
// strategies (the label block of v's list vs the fragment's members of
// the label, binary-searched in it) and a brute-force scan of v's lists —
// on small alphabets and on a 40-label one, with and without hubs, on a
// base Aux and on a patched overlay view.
func TestCostAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	probed := 0
	for iter := 0; iter < 30; iter++ {
		for _, aux := range costFixtures(t, rng, iter) {
			g := aux.Graph()
			p := chainPattern(t, "a", "b", "a")
			e := newTestEngine(g, aux, p)
			// Populate a random fragment.
			for i := 0; i < 8; i++ {
				e.frag.Add(graph.NodeID(rng.Intn(g.NumNodes())))
			}
			for v := 0; v < g.NumNodes(); v++ {
				id := graph.NodeID(v)
				for _, l := range e.plabels {
					if m := len(e.frag.NodesLabeled(l)); m > 0 && len(aux.OutBlock(id, l)) > graph.ScanRatio*m {
						probed++
					}
				}
				for u := 0; u < p.NumNodes(); u++ {
					uq := pattern.NodeID(u)
					if got, want := e.cost(id, uq), bruteCost(g, p, e.frag, id, uq); got != want {
						t.Fatalf("iteration %d overlay=%v: cost(%d,%d) = %v, brute force %v", iter, g.HasOverlay(), v, u, got, want)
					}
				}
			}
		}
	}
	if probed == 0 {
		t.Fatal("no hub list was large enough to take the probing side")
	}
}

// TestCostMemoEqualsBruteForceAsFragmentGrows: the cost memo must answer
// as a probe of the whole fragment does while the fragment grows under
// it, as it does within a query. Admissions (InducedEdgeCost, then
// AddCost) alternate with probes of every (v, pattern edge, direction),
// so a miss is asked again after members of its label arrived — and
// checked against those alone, by both sides of the smaller-side rule —
// and every answer, and every c(v,u), is compared with brute force.
func TestCostMemoEqualsBruteForceAsFragmentGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var rescans, researches, settled int
	for iter := 0; iter < 30; iter++ {
		for _, aux := range costFixtures(t, rng, iter) {
			g := aux.Graph()
			p := chainPattern(t, "a", "b", "a")
			e := newTestEngine(g, aux, p)
			for step := 0; step < 12; step++ {
				for i := 1 + rng.Intn(3); i > 0; i-- {
					if v := graph.NodeID(rng.Intn(g.NumNodes())); !e.frag.Contains(v) {
						e.frag.InducedEdgeCost(v)
						e.frag.AddCost(v)
					}
				}
				for v := 0; v < g.NumNodes(); v++ {
					id := graph.NodeID(v)
					for u := 0; u < p.NumNodes(); u++ {
						uq := pattern.NodeID(u)
						for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
							pn := p.Out(uq)
							if dir == graph.Backward {
								pn = p.In(uq)
							}
							for _, un := range pn {
								want := e.plabels[un]
								members := len(e.frag.NodesLabeled(want))
								checked, ok := e.sc.fragCands.lookup(candKey(id, want, dir))
								if ok && checked != candFound && int(checked) < members {
									block := aux.OutBlock(id, want)
									if dir == graph.Backward {
										block = aux.InBlock(id, want)
									}
									if len(block) <= graph.ScanRatio*(members-int(checked)) {
										rescans++
									} else {
										researches++
									}
								} else if ok {
									settled++
								}
								if got, bf := e.hasFragCandidate(id, un, dir), bruteHas(g, e.frag, id, p.Label(un), dir); got != bf {
									t.Fatalf("iteration %d overlay=%v step %d: hasFragCandidate(%d, %d, %v) = %v after %d of %d members checked, brute force %v",
										iter, g.HasOverlay(), step, v, un, dir, got, checked, members, bf)
								}
							}
						}
						if got, bf := e.cost(id, uq), bruteCost(g, p, e.frag, id, uq); got != bf {
							t.Fatalf("iteration %d overlay=%v step %d: cost(%d,%d) = %v, brute force %v", iter, g.HasOverlay(), step, v, u, got, bf)
						}
					}
				}
			}
		}
	}
	if rescans == 0 || researches == 0 || settled == 0 {
		t.Fatalf("re-probes of a miss: %d scanned the block, %d searched it for the new members; %d answered from the memo — each must be reached",
			rescans, researches, settled)
	}
}

// withHubs rebuilds g with hubs extra nodes labelled "a", each linked both
// ways to about three quarters of g's nodes.
func withHubs(rng *rand.Rand, g *graph.Graph, hubs int) *graph.Graph {
	n := g.NumNodes()
	b := graph.NewBuilder(n+hubs, g.NumEdges()+2*n*hubs)
	for v := 0; v < n; v++ {
		b.AddNode(g.Label(graph.NodeID(v)))
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			b.AddEdge(graph.NodeID(v), w)
		}
	}
	for h := 0; h < hubs; h++ {
		hub := b.AddNode("a")
		for v := 0; v < n; v++ {
			if rng.Intn(4) > 0 {
				b.AddEdge(hub, graph.NodeID(v))
				b.AddEdge(graph.NodeID(v), hub)
			}
		}
	}
	return b.Build()
}

// Force the fragment-scan branch of hasFragCandidate: a hub whose
// neighborhood is much larger than the fragment.
func TestCostHubUsesFragmentScan(t *testing.T) {
	b := graph.NewBuilder(102, 101)
	hub := b.AddNode("a")
	first := b.AddNode("b")
	b.AddEdge(hub, first)
	for i := 0; i < 100; i++ {
		b.AddEdge(hub, b.AddNode("b"))
	}
	g := b.Build()
	aux := graph.BuildAux(g)
	p := chainPattern(t, "a", "b")
	e := newTestEngine(g, aux, p)
	e.frag.Add(first) // tiny fragment, huge neighborhood -> HasEdge path
	if got := e.cost(hub, 0); got != 0 {
		t.Fatalf("cost = %v, want 0 (fragment holds a b-child)", got)
	}
	e2 := newTestEngine(g, aux, p)
	if got := e2.cost(hub, 0); got != 1 {
		t.Fatalf("cost = %v, want 1 (empty fragment)", got)
	}
}

// newTestEngine builds an engine the way SearchInto does, for tests that
// exercise internal methods directly (cost/hasFragCandidate need the
// resolved pattern labels and a Scratch whose memos a query has reset).
func newTestEngine(g *graph.Graph, aux *graph.Aux, p *pattern.Pattern) *engine {
	e := &engine{g: g, aux: aux, p: p, frag: graph.NewFragment(g), sc: NewScratch()}
	e.sc.resetMemo(1)
	for u := 0; u < p.NumNodes(); u++ {
		e.plabels = append(e.plabels, g.LabelIDOf(p.Label(pattern.NodeID(u))))
	}
	return e
}
