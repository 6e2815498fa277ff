package rbq

// Cross-module integration tests: end-to-end pipelines, metamorphic
// properties that span packages, and exhaustive checks on small graphs.

import (
	"context"
	"math/rand"
	"testing"

	"rbq/internal/compress"
	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/landmark"
	"rbq/internal/pattern"
	"rbq/internal/rbreach"
	"rbq/internal/simulation"
	"rbq/internal/subiso"
)

func randomSmall(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + rng.Intn(labels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func randomSmallPattern(rng *rand.Rand, labels int) *pattern.Pattern {
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

// addRandomEdge returns a copy of g with one extra random edge.
func addRandomEdge(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes(), g.NumEdges()+1)
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(g.Label(graph.NodeID(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			b.AddEdge(graph.NodeID(v), w)
		}
	}
	b.AddEdge(graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes())))
	return b.Build()
}

// Metamorphic: the maximum dual simulation relation is monotone under edge
// addition — extra data edges can only create matches, never destroy them.
func TestSimulationMonotoneUnderEdgeAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 40; i++ {
		g := randomSmall(rng, 20, 40, 2)
		p := randomSmallPattern(rng, 2)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Label(vp) != p.Label(p.Personalized()) {
			continue
		}
		before := simulation.MatchInGraph(g, p, vp)
		g2 := addRandomEdge(g, rng)
		after := map[graph.NodeID]bool{}
		for _, v := range simulation.MatchInGraph(g2, p, vp) {
			after[v] = true
		}
		for _, v := range before {
			if !after[v] {
				t.Fatalf("iteration %d: match %d vanished after adding an edge", i, v)
			}
		}
	}
}

// Metamorphic: non-induced subgraph isomorphism is likewise monotone.
func TestSubisoMonotoneUnderEdgeAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 40; i++ {
		g := randomSmall(rng, 14, 28, 2)
		p := randomSmallPattern(rng, 2)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Label(vp) != p.Label(p.Personalized()) {
			continue
		}
		before, ok1 := subiso.Match(g, p, vp, nil)
		g2 := addRandomEdge(g, rng)
		afterSlice, ok2 := subiso.Match(g2, p, vp, nil)
		if !ok1 || !ok2 {
			continue
		}
		after := map[graph.NodeID]bool{}
		for _, v := range afterSlice {
			after[v] = true
		}
		for _, v := range before {
			if !after[v] {
				t.Fatalf("iteration %d: embedding output %d vanished after adding an edge", i, v)
			}
		}
	}
}

// Metamorphic: reachability is monotone under edge addition, and RBReach
// must stay sound (no false positives) on both graphs.
func TestReachabilityMonotoneAndSound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 15; i++ {
		g := randomSmall(rng, 30, 60, 1)
		g2 := addRandomEdge(g, rng)
		o1 := rbreach.New(g, landmark.BuildOptions{Alpha: 0.3})
		o2 := rbreach.New(g2, landmark.BuildOptions{Alpha: 0.3})
		for q := 0; q < 40; q++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if g.Reachable(u, v) && !g2.Reachable(u, v) {
				t.Fatal("BFS reachability not monotone (graph copy broken)")
			}
			if o1.Query(u, v).Answer && !g.Reachable(u, v) {
				t.Fatalf("false positive on base graph (%d,%d)", u, v)
			}
			if o2.Query(u, v).Answer && !g2.Reachable(u, v) {
				t.Fatalf("false positive on extended graph (%d,%d)", u, v)
			}
		}
	}
}

// Exhaustive all-pairs check of the whole reachability pipeline on small
// graphs: condensation + index + RBReach vs plain BFS.
func TestReachPipelineExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 8; i++ {
		g := randomSmall(rng, 18, 40, 1)
		cond := compress.Condense(g)
		oracle := rbreach.FromCondensation(cond, landmark.BuildOptions{Alpha: 1.0}, g.Size())
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				uu, vv := graph.NodeID(u), graph.NodeID(v)
				truth := g.Reachable(uu, vv)
				if cond.Reachable(uu, vv) != truth {
					t.Fatalf("BFSOpt wrong on (%d,%d)", u, v)
				}
				if oracle.Query(uu, vv).Answer && !truth {
					t.Fatalf("RBReach false positive on (%d,%d)", u, v)
				}
			}
		}
	}
}

// The paper's Example 2 at its stated scale (m=96 HG members, n=900 CL
// members, ~1000 nodes within 2 hops of Michael), through the public API:
// RBSim must find exactly {cl_{n-1}, cl_n} with a budget of a few dozen
// items.
func TestExample2ThroughPublicAPI(t *testing.T) {
	gb := NewGraphBuilder(1000, 1100)
	michael := gb.AddNode("Michael")
	var hgs []NodeID
	for i := 0; i < 96; i++ {
		h := gb.AddNode("HG")
		hgs = append(hgs, h)
		gb.AddEdge(michael, h)
	}
	cc1 := gb.AddNode("CC")
	cc2 := gb.AddNode("CC")
	cc3 := gb.AddNode("CC")
	gb.AddEdge(michael, cc1)
	gb.AddEdge(michael, cc2)
	gb.AddEdge(michael, cc3)
	var cls []NodeID
	for i := 0; i < 900; i++ {
		cls = append(cls, gb.AddNode("CL"))
	}
	for i := 0; i < 3; i++ {
		gb.AddEdge(cc1, cls[i])
	}
	answer1, answer2 := cls[898], cls[899]
	hgm := hgs[95]
	gb.AddEdge(cc3, answer1)
	gb.AddEdge(cc3, answer2)
	gb.AddEdge(hgm, answer1)
	gb.AddEdge(hgm, answer2)
	for i := 3; i < 898; i++ {
		gb.AddEdge(hgs[i%95], cls[i])
	}
	db := NewDB(gb.Build())

	q, err := ParsePattern(`
		node 0 Michael*
		node 1 CC
		node 2 HG
		node 3 CL!
		edge 0 1
		edge 0 2
		edge 1 3
		edge 2 3
	`)
	if err != nil {
		t.Fatal(err)
	}
	alpha := 30.0 / float64(db.Graph().Size())
	ctx := context.Background()
	res, err := db.Query(ctx, q, Request{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Matches[0] != answer1 || res.Matches[1] != answer2 {
		t.Fatalf("matches = %v, want [%d %d] (res %+v)", res.Matches, answer1, answer2, res)
	}
	exact, err := db.Query(ctx, q, Request{Mode: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if acc := MatchAccuracy(exact.Matches, res.Matches); acc.F != 1 {
		t.Fatalf("accuracy %+v at budget %d", acc, res.Budget)
	}
	// RBSub agrees on this workload.
	sub, err := db.Query(ctx, q, Request{Semantics: Subgraph, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if acc := MatchAccuracy(exact.Matches, sub.Matches); acc.F != 1 {
		t.Fatalf("RBSub accuracy %+v", acc)
	}
}

// Full pattern pipeline determinism: generate, extract, reduce, match —
// twice — and compare everything observable.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() ([]NodeID, int, int) {
		g := YoutubeLike(8000, 5)
		q, g2, _, err := ExtractPattern(g, 4, 8, 9)
		if err != nil {
			t.Fatal(err)
		}
		db := NewDB(g2)
		res, err := db.Query(context.Background(), q, Request{Alpha: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		return res.Matches, res.FragmentSize, res.Visited
	}
	m1, f1, v1 := run()
	m2, f2, v2 := run()
	if f1 != f2 || v1 != v2 || len(m1) != len(m2) {
		t.Fatalf("pipeline not deterministic: (%v,%d,%d) vs (%v,%d,%d)", m1, f1, v1, m2, f2, v2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("match sets differ across runs")
		}
	}
}

// The LM baseline and RBReach bracket the truth from below: both are
// sound (no false positives) but RBReach should answer at least as many
// reachable pairs on a shared workload.
func TestRBReachDominatesLM(t *testing.T) {
	g := gen.Random(gen.GraphConfig{Nodes: 3000, Edges: 9000, Seed: 61, PowerLaw: true})
	cond := compress.Condense(g)
	oracle := rbreach.FromCondensation(cond, landmark.BuildOptions{Alpha: 0.05}, g.Size())
	lm := landmark.BuildLM(cond.DAG, 30, 3)
	qs := gen.ReachQueries(g, 300, 17)
	rbHits, lmHits := 0, 0
	for _, q := range qs {
		if !q.Truth {
			continue
		}
		if oracle.Query(q.From, q.To).Answer {
			rbHits++
		}
		if lm.Query(cond.ComponentOf[q.From], cond.ComponentOf[q.To]) {
			lmHits++
		}
	}
	if rbHits < lmHits {
		t.Fatalf("RBReach recalled %d reachable pairs, LM %d", rbHits, lmHits)
	}
}
