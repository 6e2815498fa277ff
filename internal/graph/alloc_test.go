//go:build !race
// +build !race

package graph

import (
	"math/rand"
	"testing"
)

// Allocation regression tests for the dense scratch structures: the hot
// query path must not touch the Go allocator once its buffers reach
// steady-state size.

func randomAllocGraph(t *testing.T) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(400, 1600)
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < 400; i++ {
		b.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < 1600; i++ {
		b.AddEdge(NodeID(rng.Intn(400)), NodeID(rng.Intn(400)))
	}
	return b.Build()
}

// TestFragmentMembershipAllocFree: steady-state fragment use — Reset,
// grow, Contains and InducedEdgeCost probes — performs zero allocations.
func TestFragmentMembershipAllocFree(t *testing.T) {
	g := randomAllocGraph(t)
	f := NewFragment(g)
	cycle := func() {
		f.Reset()
		for v := NodeID(0); v < 40; v++ {
			f.Add(v * 7)
		}
		for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
			if f.Contains(v) {
				f.InducedEdgeCost(v + 1)
			}
		}
	}
	cycle() // warm up order capacity
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("fragment membership cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestCSRIntoAllocFree: re-materializing a fragment into a warm FragCSR
// performs zero allocations.
func TestCSRIntoAllocFree(t *testing.T) {
	g := randomAllocGraph(t)
	f := NewFragment(g)
	for v := NodeID(0); v < 60; v++ {
		f.Add(v * 5)
	}
	var csr FragCSR
	f.CSRInto(&csr) // warm up
	if avg := testing.AllocsPerRun(100, func() { f.CSRInto(&csr) }); avg != 0 {
		t.Fatalf("CSRInto allocates %.1f times per run, want 0", avg)
	}
	// Sanity: the CSR must describe exactly the induced subgraph of the
	// fragment's nodes.
	if got, want := csr.NumNodes(), f.NumNodes(); got != want {
		t.Fatalf("CSR has %d nodes, fragment %d", got, want)
	}
	edges := 0
	for i := int32(0); i < int32(csr.NumNodes()); i++ {
		edges += csr.OutDegree(i)
		for _, j := range csr.Out(i) {
			if !g.HasEdge(csr.Orig[i], csr.Orig[j]) {
				t.Fatalf("CSR edge (%d,%d) missing from the parent graph", i, j)
			}
		}
	}
	if edges != f.NumEdges() {
		t.Fatalf("CSR has %d edges, fragment %d", edges, f.NumEdges())
	}
}

// TestFragmentGrowAndCSRIntoAllocFree: the bounded run's cycle on a warm
// fragment and FragCSR — Reset, price and commit every node with
// InducedEdgeCost and AddCost (the edge log and the position table), then
// Fragment.CSRInto from the log — performs zero allocations.
func TestFragmentGrowAndCSRIntoAllocFree(t *testing.T) {
	g := randomAllocGraph(t)
	f := NewFragment(g)
	var csr FragCSR
	cycle := func() {
		f.Reset()
		for v := NodeID(0); v < 80; v++ {
			f.InducedEdgeCost(v * 3)
			f.AddCost(v * 3)
		}
		f.CSRInto(&csr)
	}
	cycle() // warm up
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("the fragment cycle allocates %.1f times per run, want 0", avg)
	}
	if csr.NumEdges() == 0 || csr.NumEdges() != f.NumEdges() {
		t.Fatalf("the view holds %d edges, the fragment %d", csr.NumEdges(), f.NumEdges())
	}
}

// TestBallIntoAllocFree: repeated ball and region extraction into a warm
// FragCSR — the hot path of StrongSim and of MatchOpt/VF2Opt — performs
// zero allocations once the traversal pools (the region's label bitset
// is in them) and the CSR are warm.
func TestBallIntoAllocFree(t *testing.T) {
	g := randomAllocGraph(t)
	var ball FragCSR
	g.BallInto(0, 2, &ball, nil) // warm up pools and CSR capacity
	if avg := testing.AllocsPerRun(100, func() { g.BallInto(0, 2, &ball, nil) }); avg != 0 {
		t.Fatalf("BallInto allocates %.1f times per run, want 0", avg)
	}
	labels := []LabelID{g.LabelOf(0), g.LabelOf(1), NoLabel}
	g.RegionInto(0, 3, labels, &ball, nil)
	if avg := testing.AllocsPerRun(100, func() { g.RegionInto(0, 3, labels, &ball, nil) }); avg != 0 {
		t.Fatalf("RegionInto allocates %.1f times per run, want 0", avg)
	}
}

// TestWalkAllocFree: Walk (and therefore Reachable) must not allocate in
// steady state — visited marker and queue come from the graph's pools.
func TestWalkAllocFree(t *testing.T) {
	g := randomAllocGraph(t)
	g.Reachable(0, NodeID(g.NumNodes()-1)) // warm up
	if avg := testing.AllocsPerRun(100, func() {
		g.Reachable(0, NodeID(g.NumNodes()-1))
	}); avg != 0 {
		t.Fatalf("Reachable allocates %.1f times per run, want 0", avg)
	}
}
