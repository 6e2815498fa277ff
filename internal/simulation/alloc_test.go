//go:build !race
// +build !race

package simulation

import (
	"math/rand"
	"slices"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// TestMatchFragmentAllocBudget: a dual-simulation call on a pooled
// fragment (warm FragCSR + warm Scratch) allocates at most its result
// slice.
func TestMatchFragmentAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(300, 1200)
	labels := []string{"p", "a", "b", "c"}
	b.AddNode("p") // unique personalized label on node 0
	b.AddNode("a") // node 1
	b.AddNode("b") // node 2
	for i := 3; i < 300; i++ {
		b.AddNode(labels[1+rng.Intn(3)])
	}
	// A guaranteed embedding of the test pattern p -> a <-> b ...
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1)
	for i := 0; i < 1200; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(300)), graph.NodeID(rng.Intn(300)))
	}
	g := b.Build()

	p := pattern.NewBuilder()
	up := p.AddNode("p")
	ua := p.AddNode("a")
	ub := p.AddNode("b")
	p.AddEdge(up, ua).AddEdge(ua, ub).AddEdge(ub, ua)
	p.SetPersonalized(up).SetOutput(ub)
	q := p.MustBuild()

	frag := graph.NewFragment(g)
	frag.Add(0)
	for v := graph.NodeID(1); v < 150; v++ {
		frag.Add(v)
	}
	var csr graph.FragCSR
	frag.CSRInto(&csr)
	pin := csr.PosOf(0)
	if pin < 0 {
		t.Fatal("personalized node missing from fragment")
	}

	var sc Scratch
	ql := labelsOf(g, q)
	want, _, _ := MatchFragment(&csr, q, ql, pin, &sc, nil) // warm up scratch
	if len(want) == 0 {
		t.Fatal("fixture query has no matches; pick a denser fixture")
	}
	avg := testing.AllocsPerRun(100, func() {
		MatchFragment(&csr, q, ql, pin, &sc, nil)
	})
	if avg > 1 { // the returned match slice is the only permitted allocation
		t.Fatalf("MatchFragment allocates %.1f times per run, want ≤ 1", avg)
	}

	// The pooled path must agree with materialize-then-DualSimulation on a
	// test-local map-backed materialization (the seed's deleted Sub path).
	sub := buildRefSub(g, frag.Nodes())
	ref := MatchInGraph(sub.g, q, sub.fromOrig[0])
	mapped := make([]graph.NodeID, len(ref))
	for i, v := range ref {
		mapped[i] = sub.toOrig[v]
	}
	slices.Sort(mapped)
	if len(mapped) != len(want) {
		t.Fatalf("MatchFragment disagrees with MatchInGraph: %v vs %v", want, mapped)
	}
	for i := range mapped {
		if mapped[i] != want[i] {
			t.Fatalf("MatchFragment disagrees with MatchInGraph: %v vs %v", want, mapped)
		}
	}
}

// TestMatchOptAllocBudget: the exact path — pooled RegionInto (label
// bitset included) plus MatchFragment — allocates at most its result
// slice once the pools are warm.
func TestMatchOptAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomLabeled(rng, 300, 1200, 3)
	var p *pattern.Pattern
	var vp graph.NodeID
	var want []graph.NodeID
	var labels []graph.LabelID
	for i := 0; i < 200 && len(want) == 0; i++ {
		p = randomPattern(rng, 3)
		vp = graph.NodeID(rng.Intn(g.NumNodes()))
		labels = labelsOf(g, p)
		want, _ = MatchOpt(g, p, labels, vp, nil) // also warms the ball pool
	}
	if len(want) == 0 {
		t.Skip("no matching fixture found; nothing to measure")
	}
	avg := testing.AllocsPerRun(100, func() {
		MatchOpt(g, p, labels, vp, nil)
	})
	if avg > 1 { // the returned match slice is the only permitted allocation
		t.Fatalf("MatchOpt allocates %.1f times per run, want ≤ 1", avg)
	}
}

// TestStrongSimAllocBudget: the ball-per-center loop reuses one pooled CSR
// across all centers; per call it may allocate only the union slice and
// the per-center result slices.
func TestStrongSimAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomLabeled(rng, 200, 700, 3)
	var p *pattern.Pattern
	var vp graph.NodeID
	var want []graph.NodeID
	for i := 0; i < 200 && len(want) == 0; i++ {
		p = randomPattern(rng, 3)
		vp = graph.NodeID(rng.Intn(g.NumNodes()))
		want = StrongSim(g, p, vp)
	}
	if len(want) == 0 {
		t.Skip("no matching fixture found; nothing to measure")
	}
	centers := len(g.NodesWithin(vp, p.Diameter()))
	avg := testing.AllocsPerRun(50, func() {
		StrongSim(g, p, vp)
	})
	// One union slice (plus growth) and at most one slice per matching
	// center; anything beyond that means a ball or matcher started
	// allocating again.
	budget := float64(centers + 4)
	if avg > budget {
		t.Fatalf("StrongSim allocates %.1f times per run, budget %.0f (centers=%d)", avg, budget, centers)
	}
}
