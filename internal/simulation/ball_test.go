package simulation

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// This file cross-validates the pooled CSR-ball baselines against a
// test-local reimplementation of the representation they replaced: the
// seed's map-backed Sub (InducedSubgraph/Ball), materializing every ball
// as its own Graph with an id-correspondence map. The CSR path must be
// bit-for-bit identical on generated graphs.

// refSub replicates the seed's graph.Sub: a materialized subgraph plus the
// node-id correspondence back to the parent.
type refSub struct {
	g        *graph.Graph
	toOrig   []graph.NodeID
	fromOrig map[graph.NodeID]graph.NodeID
}

// buildRefSub replicates the seed's Graph.InducedSubgraph, maps and all.
func buildRefSub(g *graph.Graph, nodes []graph.NodeID) *refSub {
	s := &refSub{fromOrig: make(map[graph.NodeID]graph.NodeID, len(nodes))}
	b := graph.NewBuilder(len(nodes), 0)
	for _, v := range nodes {
		if _, dup := s.fromOrig[v]; dup {
			continue
		}
		s.fromOrig[v] = b.AddNode(g.Label(v))
		s.toOrig = append(s.toOrig, v)
	}
	for _, v := range s.toOrig {
		sv := s.fromOrig[v]
		for _, w := range g.Out(v) {
			if sw, ok := s.fromOrig[w]; ok {
				b.AddEdge(sv, sw)
			}
		}
	}
	s.g = b.Build()
	return s
}

func refBall(g *graph.Graph, v graph.NodeID, r int) *refSub {
	return buildRefSub(g, g.NodesWithin(v, r))
}

// refMatchOpt replicates the seed's MatchOpt on the map-backed ball.
func refMatchOpt(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) []graph.NodeID {
	ball := refBall(g, vp, p.Diameter())
	bvp, ok := ball.fromOrig[vp]
	if !ok {
		return nil
	}
	sub := MatchInGraph(ball.g, p, bvp)
	if len(sub) == 0 {
		return nil
	}
	out := make([]graph.NodeID, len(sub))
	for i, v := range sub {
		out[i] = ball.toOrig[v]
	}
	slices.Sort(out)
	return out
}

// refStrongSim replicates the seed's ball-per-center StrongSim.
func refStrongSim(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) []graph.NodeID {
	dQ := p.Diameter()
	out := []graph.NodeID{}
	for _, v0 := range g.NodesWithin(vp, dQ) {
		ball := refBall(g, v0, dQ)
		bvp, ok := ball.fromOrig[vp]
		if !ok {
			continue
		}
		for _, m := range MatchInGraph(ball.g, p, bvp) {
			out = append(out, ball.toOrig[m])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestMatchOptMatchesSeedSubPath: on generated graphs, the pooled CSR-ball
// MatchOpt answers bit-for-bit what the seed's Sub-based MatchOpt answered.
func TestMatchOptMatchesSeedSubPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 80; i++ {
		g := randomLabeled(rng, 24, 60, 3)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		got, _ := MatchOpt(g, p, labelsOf(g, p), vp, nil)
		want := refMatchOpt(g, p, vp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: CSR ball=%v, seed Sub path=%v", i, got, want)
		}
	}
}

// TestStrongSimMatchesSeedSubPath: same equivalence for the literal
// ball-per-center semantics.
func TestStrongSimMatchesSeedSubPath(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 40; i++ {
		g := randomLabeled(rng, 18, 44, 3)
		p := randomPattern(rng, 3)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		got := StrongSim(g, p, vp)
		want := refStrongSim(g, p, vp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: CSR ball=%v, seed Sub path=%v", i, got, want)
		}
	}
}
