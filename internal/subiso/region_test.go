package subiso

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

// MatchOpt searches the label-closed d_Q-region of v_p, not the whole
// ball. This file holds complete runs to the two references they must
// equal — the same matcher on BallInto's full ball and the whole-graph
// Match — and truncated runs to the MaxSteps contract.

// checkRegionEqualsBall compares the three answers for one (g, p, vp)
// under opts, and reports whether all three searches completed; answers
// of runs that did not are not comparable (see MatchOpt) and are skipped.
func checkRegionEqualsBall(t *testing.T, name string, g *graph.Graph, p *pattern.Pattern, vp graph.NodeID, opts *Options) bool {
	t.Helper()
	labels := labelsOf(g, p)
	region, c1 := MatchOpt(g, p, labels, vp, opts)
	var csr graph.FragCSR
	var sc Scratch
	g.BallInto(vp, p.Diameter(), &csr, nil)
	ball, c2 := MatchFragment(&csr, p, labels, csr.PosOf(vp), opts, &sc)
	whole, c3 := Match(g, p, vp, opts)
	if !c1 || !c2 || !c3 {
		return false
	}
	if !slices.Equal(region, ball) || !slices.Equal(region, whole) {
		t.Fatalf("%s: pin %d\npattern:\n%sregion %v\nball   %v\nwhole  %v", name, vp, p, region, ball, whole)
	}
	return true
}

// TestMatchOptRegionEqualsBallRandom: random graphs with self-loops (both
// endpoints of an edge are drawn independently), few labels shared by
// many nodes, patterns with parallel labels and up to two self-loops,
// and, every third case, a pattern label the graph does not have; every
// node is tried as the pin, matching label or not.
func TestMatchOptRegionEqualsBallRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 120; i++ {
		g := randomLabeled(rng, 30, 100, 3)
		labels := 3
		if i%3 == 2 {
			labels = 4 // 'd' never occurs in g
		}
		p := randomPatternLoops(rng, labels, i%3)
		for v := 0; v < g.NumNodes(); v++ {
			if !checkRegionEqualsBall(t, fmt.Sprintf("case %d", i), g, p, graph.NodeID(v), nil) {
				t.Fatalf("case %d: uncapped search reported incomplete", i)
			}
		}
	}
}

// TestMatchOptRegionEqualsBallOverlay: the same on a delta-patched
// snapshot — new nodes (one with a label the base lacks), added and
// deleted edges — whose adjacency and labels the extraction reads
// through the overlay.
func TestMatchOptRegionEqualsBallOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		base := randomLabeled(rng, 30, 100, 3)
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
		p := randomPatternLoops(rng, 3, i%2)
		for v := 0; v < view.NumNodes(); v++ {
			if !checkRegionEqualsBall(t, fmt.Sprintf("overlay case %d", i), view, p, graph.NodeID(v), nil) {
				t.Fatalf("overlay case %d: uncapped search reported incomplete", i)
			}
		}
	}
}

// TestMatchOptRegionEqualsBallYoutube: templates extracted from a
// YoutubeLike graph, each at the node it was extracted around (a match by
// construction) and at one plausible other pin of the same label, under
// a step cap generous enough that nearly every search completes on all
// three views. The MatchOptMany fan runs the same pins through the
// pooled scratch on several workers.
func TestMatchOptRegionEqualsBallYoutube(t *testing.T) {
	g := dataset.YoutubeLike(20_000, 3)
	templates := 40
	if testing.Short() {
		templates = 12
	}
	opts := &Options{MaxSteps: 2_000_000}
	rng := rand.New(rand.NewSource(43))
	compared, matched := 0, 0
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
		labels := labelsOf(g, p)
		many, _ := MatchOptMany(g, p, labels, pins, 4, opts)
		for k, vp := range pins {
			if !checkRegionEqualsBall(t, fmt.Sprintf("template %d", i), g, p, vp, opts) {
				continue
			}
			compared++
			serial, _ := MatchOpt(g, p, labels, vp, opts)
			if !slices.Equal(many[k], serial) {
				t.Fatalf("template %d pin %d: MatchOptMany %v, MatchOpt %v", i, vp, many[k], serial)
			}
			if k == 0 && len(serial) > 0 {
				matched++
			}
		}
	}
	if compared < templates || matched == 0 {
		t.Fatalf("fixture too weak: %d complete comparisons, %d templates matched at their own root", compared, matched)
	}
}

// TestMatchOptMaxStepsContract: a MaxSteps-truncated answer is a subset
// of the complete one, complete=true is reported exactly when the answer
// is the complete one's, and once a cap is large enough to complete
// every larger cap completes too.
func TestMatchOptMaxStepsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	truncated := 0
	for i := 0; i < 60; i++ {
		g := randomLabeled(rng, 40, 200, 2)
		p := randomPatternLoops(rng, 2, 0)
		labels := labelsOf(g, p)
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		full, complete := MatchOpt(g, p, labels, vp, nil)
		if !complete {
			t.Fatalf("case %d: uncapped search reported incomplete", i)
		}
		completed := false
		for steps := int64(1); steps <= 1<<16; steps *= 2 {
			got, complete := MatchOpt(g, p, labels, vp, &Options{MaxSteps: steps})
			for _, v := range got {
				if !slices.Contains(full, v) {
					t.Fatalf("case %d MaxSteps=%d: answer %d is not in the complete answer %v", i, steps, v, full)
				}
			}
			if complete && !slices.Equal(got, full) {
				t.Fatalf("case %d MaxSteps=%d: reported complete with %v, complete answer is %v", i, steps, got, full)
			}
			if completed && !complete {
				t.Fatalf("case %d MaxSteps=%d: incomplete although a smaller cap completed", i, steps)
			}
			if !complete {
				truncated++
			}
			completed = complete
		}
		if !completed {
			t.Fatalf("case %d: still incomplete at the largest cap", i)
		}
	}
	if truncated == 0 {
		t.Fatal("no cap ever truncated a search; the fixture checks nothing")
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
