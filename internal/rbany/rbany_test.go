package rbany

import (
	"math/rand"
	"reflect"
	"testing"

	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
)

// evaluate compiles p and evaluates it unanchored under class c.
func evaluate(aux *graph.Aux, p *pattern.Pattern, c bounded.Class, opts Options) Result {
	return prepare(aux, p).Run(aux, bounded.Compile(aux.Graph(), p, c), opts, nil)
}

// prepare re-roots p at the anchor PickAnchor chooses in aux's graph.
func prepare(aux *graph.Aux, p *pattern.Pattern) *Prepared {
	anchor, _ := PickAnchor(aux.Graph(), aux.Graph().InternLabels(p.Labels(), nil))
	return Prepare(p, anchor)
}

// multiMatchGraph has the A->B motif in three places; no label is unique.
func multiMatchGraph() *graph.Graph {
	return graph.FromEdges(
		[]string{"A", "B", "A", "B", "A", "B", "C"},
		[][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 0}})
}

func abPattern(t *testing.T) *pattern.Pattern {
	t.Helper()
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	bb := b.AddNode("B")
	b.AddEdge(a, bb)
	b.SetPersonalized(a).SetOutput(bb)
	return b.MustBuild()
}

func TestUnanchoredFindsAllMotifs(t *testing.T) {
	g := multiMatchGraph()
	p := abPattern(t)
	res := evaluate(graph.BuildAux(g), p, bounded.Simulation, Options{Alpha: 1.0})
	want := []graph.NodeID{1, 3, 5}
	if !reflect.DeepEqual(res.Matches, want) {
		t.Fatalf("matches = %v, want %v (res %+v)", res.Matches, want, res)
	}
	if res.Candidates != 3 || res.Evaluated != 3 {
		t.Fatalf("candidates=%d evaluated=%d", res.Candidates, res.Evaluated)
	}
}

func TestAnchorIsMostSelective(t *testing.T) {
	// Label C occurs once; A and B thrice. Anchor must be the C node.
	b := pattern.NewBuilder()
	c := b.AddNode("C")
	a := b.AddNode("A")
	b.AddEdge(c, a)
	b.SetPersonalized(c).SetOutput(a)
	p := b.MustBuild()
	g := graph.FromEdges([]string{"A", "B", "A", "B", "A", "B", "C"},
		[][2]int{{6, 0}})
	anchor, cands := PickAnchor(g, g.InternLabels(p.Labels(), nil))
	if p.Label(anchor) != "C" || len(cands) != 1 {
		t.Fatalf("anchor label %q with %d candidates", p.Label(anchor), len(cands))
	}
}

func TestMissingLabelEmptyAnswer(t *testing.T) {
	g := multiMatchGraph()
	b := pattern.NewBuilder()
	a := b.AddNode("A")
	z := b.AddNode("Z")
	b.AddEdge(a, z)
	b.SetPersonalized(a).SetOutput(z)
	p := b.MustBuild()
	res := evaluate(graph.BuildAux(g), p, bounded.Simulation, Options{Alpha: 1.0})
	if res.Matches != nil {
		t.Fatalf("matches = %v", res.Matches)
	}
}

func TestBudgetBoundsTotalFragments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomLabeled(rng, 300, 900, 3)
	p := randomPattern(rng, 3)
	aux := graph.BuildAux(g)
	for _, alpha := range []float64{0.02, 0.1, 0.5} {
		res := evaluate(aux, p, bounded.Simulation, Options{Alpha: alpha})
		budget := int(alpha * float64(g.Size()))
		// Adaptive splitting may overshoot by at most one candidate's
		// share (the last run is capped by its own per-run budget).
		if res.FragmentSize > budget+budget/2+2 {
			t.Fatalf("alpha=%v: total fragments %d ≫ budget %d", alpha, res.FragmentSize, budget)
		}
	}
}

// Precision: every unanchored RBSim match is in the exact unanchored
// answer (per-anchor precision composes under union).
func TestUnanchoredPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		g := randomLabeled(rng, 60, 150, 3)
		p := randomPattern(rng, 3)
		aux := graph.BuildAux(g)
		res := evaluate(aux, p, bounded.Simulation, Options{Alpha: 0.4})
		exact := map[graph.NodeID]bool{}
		all, _ := SimulationExact(g, p, nil)
		for _, v := range all {
			exact[v] = true
		}
		for _, v := range res.Matches {
			if !exact[v] {
				t.Fatalf("iteration %d: false positive %d", i, v)
			}
		}
	}
}

func TestUnanchoredRecallAtFullBudget(t *testing.T) {
	// With α=1 and all anchors tried, the A->B motif graph is fully
	// recovered (the reduction has enough budget per anchor).
	g := multiMatchGraph()
	p := abPattern(t)
	got := evaluate(graph.BuildAux(g), p, bounded.Simulation, Options{Alpha: 1.0}).Matches
	want, _ := SimulationExact(g, p, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// A pre-fired interrupt stops the anchor loop before any anchor runs;
// the guard scan still counts the candidates.
func TestUnanchoredPreFiredInterrupt(t *testing.T) {
	g := multiMatchGraph()
	done := make(chan struct{})
	close(done)
	for _, c := range []bounded.Class{bounded.Simulation, bounded.Subgraph} {
		res := evaluate(graph.BuildAux(g), abPattern(t), c, Options{Alpha: 1.0, Reduce: reduce.Options{Interrupt: done}})
		if res.Evaluated != 0 || res.Matches != nil || res.Candidates != 3 {
			t.Fatalf("class %d: pre-fired interrupt: %+v", c, res)
		}
	}
}

func TestSubgraphUnanchored(t *testing.T) {
	// Diamond motif requiring two DISTINCT mid nodes, present once.
	g := graph.FromEdges([]string{"P", "I", "I", "B", "P", "I"},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {4, 5}, {5, 3}})
	b := pattern.NewBuilder()
	pp := b.AddNode("P")
	i1 := b.AddNode("I")
	i2 := b.AddNode("I")
	bb := b.AddNode("B")
	b.AddEdge(pp, i1).AddEdge(pp, i2).AddEdge(i1, bb).AddEdge(i2, bb)
	b.SetPersonalized(pp).SetOutput(pp)
	p := b.MustBuild()
	res := evaluate(graph.BuildAux(g), p, bounded.Subgraph, Options{Alpha: 1.0})
	if !reflect.DeepEqual(res.Matches, []graph.NodeID{0}) {
		t.Fatalf("matches = %v (res %+v)", res.Matches, res)
	}
	exact, complete := SubgraphExact(g, p, nil)
	if !complete || !reflect.DeepEqual(exact, []graph.NodeID{0}) {
		t.Fatalf("exact = %v", exact)
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
