package simulation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rbq/internal/dataset"
	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// MatchOpt evaluates on the label-closed d_Q-region of v_p, not on the
// whole ball. This file holds it to the two references it must equal:
// the same matcher on BallInto's full ball, and the whole-graph pinned
// DualSimulation.

// checkRegionEqualsBall compares the three answers for one (g, p, vp)
// and returns MatchOpt's.
func checkRegionEqualsBall(t *testing.T, name string, g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) []graph.NodeID {
	t.Helper()
	labels := labelsOf(g, p)
	region, complete := MatchOpt(g, p, labels, vp, nil)
	if !complete {
		t.Fatalf("%s: MatchOpt incomplete without an interrupt", name)
	}
	var csr graph.FragCSR
	var sc Scratch
	g.BallInto(vp, p.Diameter(), &csr, nil)
	ball, _, _ := MatchFragment(&csr, p, labels, csr.PosOf(vp), &sc, nil)
	whole := MatchInGraph(g, p, vp)
	if !slices.Equal(region, ball) || !slices.Equal(region, whole) {
		t.Fatalf("%s: pin %d\npattern:\n%sregion %v\nball   %v\nwhole  %v", name, vp, p, region, ball, whole)
	}
	return region
}

// TestMatchOptRegionEqualsBallRandom: random graphs with self-loops (both
// endpoints of an edge are drawn independently), few labels shared by
// many nodes, patterns with self-loops and parallel labels, and, every
// third case, a pattern label the graph does not have; every node is
// tried as the pin, matching label or not.
func TestMatchOptRegionEqualsBallRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 120; i++ {
		g := randomLabeled(rng, 30, 100, 3)
		labels := 3
		if i%3 == 2 {
			labels = 4 // 'd' never occurs in g
		}
		p := randomPattern(rng, labels)
		for v := 0; v < g.NumNodes(); v++ {
			checkRegionEqualsBall(t, fmt.Sprintf("case %d", i), g, p, graph.NodeID(v))
		}
	}
}

// TestMatchOptRegionEqualsBallOverlay: the same on a delta-patched
// snapshot — new nodes (one with a label the base lacks), added and
// deleted edges — whose adjacency and labels the extraction reads
// through the overlay.
func TestMatchOptRegionEqualsBallOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 40; i++ {
		base := randomLabeled(rng, 30, 80, 4)
		d := graph.OverlayDelta{NewNodeLabels: []string{"a", "b", "z", "c"}}
		n := base.NumNodes() + len(d.NewNodeLabels)
		seen := map[[2]graph.NodeID]bool{}
		for k := 0; k < 30; k++ {
			e := [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			if seen[e] || (int(e[0]) < base.NumNodes() && int(e[1]) < base.NumNodes() && base.HasEdge(e[0], e[1])) {
				continue
			}
			seen[e] = true
			d.AddEdges = append(d.AddEdges, e)
		}
		for k := 0; k < 15; k++ {
			v := graph.NodeID(rng.Intn(base.NumNodes()))
			if out := base.Out(v); len(out) > 0 {
				e := [2]graph.NodeID{v, out[rng.Intn(len(out))]}
				if !seen[e] {
					seen[e] = true
					d.DelEdges = append(d.DelEdges, e)
				}
			}
		}
		view, err := base.WithOverlay(d)
		if err != nil {
			t.Fatal(err)
		}
		p := randomPattern(rng, 4)
		for v := 0; v < view.NumNodes(); v++ {
			checkRegionEqualsBall(t, fmt.Sprintf("overlay case %d", i), view, p, graph.NodeID(v))
		}
	}
}

// TestMatchOptRegionEqualsBallYoutube: templates extracted from a
// YoutubeLike graph, each at the node it was extracted around (a match by
// construction) and at one plausible other pin of the same label.
func TestMatchOptRegionEqualsBallYoutube(t *testing.T) {
	g := dataset.YoutubeLike(20_000, 3)
	templates := 40
	if testing.Short() {
		templates = 12
	}
	rng := rand.New(rand.NewSource(33))
	matched := 0
	for i := 0; i < templates; i++ {
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		p := gen.PatternAt(g, root, gen.PatternConfig{Nodes: 4, Edges: 8, Seed: int64(i)})
		if p == nil {
			continue
		}
		pins := []graph.NodeID{root}
		if v, ok := plausiblePin(g, p, root); ok {
			pins = append(pins, v)
		}
		for k, vp := range pins {
			m := checkRegionEqualsBall(t, fmt.Sprintf("template %d", i), g, p, vp)
			if k == 0 && len(m) > 0 {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("no template matched at its own root; the fixture checks nothing")
	}
}

// plausiblePin returns a node other than root that carries u_p's label
// and has, for every pattern neighbour of u_p, a neighbour of that label
// on the same side — a pin an application could plausibly ask for, as
// opposed to one the label check alone turns away.
func plausiblePin(g *graph.Graph, p *pattern.Pattern, root graph.NodeID) (graph.NodeID, bool) {
	up := p.Personalized()
	hasLabeled := func(adj []graph.NodeID, label string) bool {
		for _, w := range adj {
			if g.Label(w) == label {
				return true
			}
		}
		return false
	}
next:
	for _, v := range g.NodesWithLabel(g.LabelIDOf(p.Label(up))) {
		if v == root {
			continue
		}
		for _, u := range p.Out(up) {
			if !hasLabeled(g.Out(v), p.Label(u)) {
				continue next
			}
		}
		for _, u := range p.In(up) {
			if !hasLabeled(g.In(v), p.Label(u)) {
				continue next
			}
		}
		return v, true
	}
	return graph.NoNode, false
}
