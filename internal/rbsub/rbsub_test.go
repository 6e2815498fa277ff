package rbsub

import (
	"math/rand"
	"reflect"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
	"rbq/internal/subiso"
)

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
	// children needed) must reject it, while the simulation-style guard
	// would pass.
	g := graph.FromEdges([]string{"P", "C"}, [][2]int{{0, 1}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	sem := NewSemantics(aux, p)
	if sem.Guard(0, p.Personalized()) {
		t.Fatal("guard admitted a node with too few distinct children")
	}
	g2 := graph.FromEdges([]string{"P", "C", "C"}, [][2]int{{0, 1}, {0, 2}})
	aux2 := graph.BuildAux(g2)
	sem2 := NewSemantics(aux2, p)
	if !sem2.Guard(0, p.Personalized()) {
		t.Fatal("guard rejected a node with enough distinct children")
	}
}

func TestGuardDegreeConstraint(t *testing.T) {
	// Query node with 2 children: data node with out-degree 1 fails even
	// before label counting.
	g := graph.FromEdges([]string{"P", "C"}, [][2]int{{0, 1}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	sem := NewSemantics(aux, p)
	if sem.Guard(0, p.Personalized()) {
		t.Fatal("degree constraint not enforced")
	}
}

func TestRunFindsIsomorphicMatches(t *testing.T) {
	g := graph.FromEdges([]string{"P", "C", "C", "X"}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	aux := graph.BuildAux(g)
	p := twoChildPattern(t)
	res := Run(aux, p, 0, NewSemantics(aux, p), reduce.Options{Alpha: 1.0}, nil)
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
	res := Run(aux, p, 0, NewSemantics(aux, p), reduce.Options{Alpha: 1.0}, nil)
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
	res := Run(aux, p, hub, NewSemantics(aux, p), reduce.Options{Alpha: 0.1}, nil)
	if res.Stats.FragmentSize > res.Stats.Budget {
		t.Fatalf("%+v", res.Stats)
	}
}

// Precision property: an embedding inside the fragment is an embedding in
// G, so RBSub never reports a false match.
func TestPrecisionAlwaysOne(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 30; i++ {
		g := randomLabeled(rng, 40, 100, 3)
		aux := graph.BuildAux(g)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Label(vp) != p.Label(p.Personalized()) {
			continue
		}
		res := Run(aux, p, vp, NewSemantics(aux, p), reduce.Options{Alpha: 0.3}, nil)
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
	sem := NewSemantics(aux, p)
	// Potential sums label-candidates per pattern neighbor: 2 query
	// children x 2 data candidates each.
	if got := sem.Potential(0, p.Personalized()); got != 4 {
		t.Fatalf("potential = %v, want 4", got)
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
