package rbreach

import (
	"math/rand"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/landmark"
)

func randomGraph(rng *rand.Rand, n, m int, acyclic bool) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode("x")
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if acyclic && u > v {
			u, v = v, u
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.Build()
}

func TestChainReachability(t *testing.T) {
	// 0 -> 1 -> ... -> 9 with a full-alpha index: RBReach must be exact.
	n := 10
	b := graph.NewBuilder(n, n-1)
	for i := 0; i < n; i++ {
		b.AddNode("x")
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	o := New(g, landmark.BuildOptions{Alpha: 1.0})
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := u <= v
			got := o.Query(graph.NodeID(u), graph.NodeID(v))
			if got.Answer != want {
				t.Fatalf("chain (%d,%d): got %v want %v", u, v, got.Answer, want)
			}
		}
	}
}

func TestSameSCCAlwaysTrue(t *testing.T) {
	g := graph.FromEdges([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 0}, {1, 2}})
	o := New(g, landmark.BuildOptions{Alpha: 0.5})
	if !o.Query(0, 1).Answer || !o.Query(1, 0).Answer {
		t.Fatal("same-SCC query must be true")
	}
	if !o.Query(0, 2).Answer {
		t.Fatal("cross-SCC reachable query missed on a trivially small index")
	}
	if o.Query(2, 0).Answer {
		t.Fatal("false positive on unreachable pair")
	}
}

// The central guarantee (Theorem 4c): RBReach NEVER returns a false
// positive, at any alpha, on any graph.
func TestNoFalsePositivesEver(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		acyclic := iter%2 == 0
		g := randomGraph(rng, 60, 150, acyclic)
		for _, alpha := range []float64{0.02, 0.1, 0.5, 1.0} {
			o := New(g, landmark.BuildOptions{Alpha: alpha})
			for q := 0; q < 60; q++ {
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				res := o.Query(u, v)
				if res.Answer && !g.Reachable(u, v) {
					t.Fatalf("false positive: alpha=%v pair=(%d,%d)", alpha, u, v)
				}
			}
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 300, 900, false)
	o := New(g, landmark.BuildOptions{Alpha: 0.05})
	for q := 0; q < 100; q++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		res := o.Query(u, v)
		if res.Visited > o.Budget+1 {
			t.Fatalf("visited %d > budget %d", res.Visited, o.Budget)
		}
	}
}

func TestAccuracyReasonableAtModestAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 400, 1000, false)
	o := New(g, landmark.BuildOptions{Alpha: 0.3})
	correct, total := 0, 0
	for q := 0; q < 200; q++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		want := g.Reachable(u, v)
		got := o.Query(u, v).Answer
		total++
		if got == want {
			correct++
		}
	}
	if ratio := float64(correct) / float64(total); ratio < 0.8 {
		t.Fatalf("accuracy %.2f below 0.8 at alpha=0.3", ratio)
	}
}

func TestRankGuardShortCircuit(t *testing.T) {
	// v deeper in the DAG than u (higher rank) can never be reached:
	// the rank guard must answer false in O(1) visits.
	g := graph.FromEdges([]string{"a", "b", "c"}, [][2]int{{0, 1}, {1, 2}})
	o := New(g, landmark.BuildOptions{Alpha: 1.0})
	res := o.Query(2, 0)
	if res.Answer {
		t.Fatal("false positive")
	}
	if res.Visited > 1 {
		t.Fatalf("rank guard did not short-circuit: visited %d", res.Visited)
	}
}

func TestAgreesWithBFSOptOnTrue(t *testing.T) {
	// Every true from RBReach must agree with the exact BFSOpt baseline.
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 200, 600, false)
	o := New(g, landmark.BuildOptions{Alpha: 0.2})
	for q := 0; q < 150; q++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if o.Query(u, v).Answer && !o.Cond.Reachable(u, v) {
			t.Fatalf("RBReach true but BFSOpt false on (%d,%d)", u, v)
		}
	}
}

func TestHierarchyImprovesOverFlat(t *testing.T) {
	// On a deep layered DAG, the hierarchical index should answer at
	// least as many reachable pairs as the flat (MaxLevels=1) ablation.
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 500, 1200, true)
	full := New(g, landmark.BuildOptions{Alpha: 0.15})
	flat := New(g, landmark.BuildOptions{Alpha: 0.15, MaxLevels: 1})
	fullHits, flatHits := 0, 0
	for q := 0; q < 400; q++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !g.Reachable(u, v) {
			continue
		}
		if full.Query(u, v).Answer {
			fullHits++
		}
		if flat.Query(u, v).Answer {
			flatHits++
		}
	}
	if fullHits < flatHits {
		t.Fatalf("hierarchy (%d hits) worse than flat (%d hits)", fullHits, flatHits)
	}
}

func TestSelfQuery(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(19)), 20, 40, false)
	o := New(g, landmark.BuildOptions{Alpha: 0.5})
	for v := 0; v < g.NumNodes(); v++ {
		if !o.Query(graph.NodeID(v), graph.NodeID(v)).Answer {
			t.Fatalf("self query false for %d", v)
		}
	}
}

func TestQueryDAGMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 80, 200, false)
	o := New(g, landmark.BuildOptions{Alpha: 0.3})
	for q := 0; q < 50; q++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		a := o.Query(u, v).Answer
		b := o.QueryDAG(o.Cond.ComponentOf[u], o.Cond.ComponentOf[v]).Answer
		if a != b {
			t.Fatalf("Query and QueryDAG disagree on (%d,%d)", u, v)
		}
	}
}
