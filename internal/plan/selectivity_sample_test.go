package plan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// commonLabelFixture builds a graph where label "hot" has far more
// candidates than the sampling threshold and every node carries some
// real neighborhood structure, so Potential masses vary node to node.
func commonLabelFixture(t *testing.T) (*graph.Aux, *pattern.Pattern) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	n := 3*SelectivitySampleThreshold + 137
	// Dense enough that nearly every "hot" node carries Potential mass:
	// the guard then bounds estimator error, not sparse-distribution
	// sampling noise.
	b := graph.NewBuilder(n, 10*n)
	for i := 0; i < n; i++ {
		switch {
		case i == 0:
			b.AddNode("root")
		case i%17 == 0:
			b.AddNode("cold")
		default:
			b.AddNode("hot")
		}
	}
	for i := 0; i < 10*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.Build()

	pb := pattern.NewBuilder()
	r := pb.AddNode("root")
	h := pb.AddNode("hot")
	c := pb.AddNode("cold")
	pb.AddEdge(r, h).AddEdge(h, c)
	pb.SetPersonalized(r).SetOutput(c)
	return graph.BuildAux(g), pb.MustBuild()
}

// TestSelectivitySampleAccuracy: the sample-and-scale Potential-mass
// estimate stays within a tight relative error of the exact scan for a
// label far above the threshold, and labels at or below the threshold
// keep the exact scan.
func TestSelectivitySampleAccuracy(t *testing.T) {
	aux, p := commonLabelFixture(t)
	pl, err := New(aux, p)
	if err != nil {
		t.Fatal(err)
	}
	sel := pl.Selectivity(aux)

	g := aux.Graph()
	sem := bounded.NewSemantics(aux, p, bounded.Simulation)
	for u := 0; u < p.NumNodes(); u++ {
		cands := g.NodesWithLabel(pl.Labels()[u])
		wantSampled := len(cands) > SelectivitySampleThreshold
		if sel.Sampled[u] != wantSampled {
			t.Fatalf("node %d (%d candidates): Sampled=%v, want %v",
				u, len(cands), sel.Sampled[u], wantSampled)
		}
		var exact float64
		for _, v := range cands {
			exact += sem.Potential(v, pattern.NodeID(u))
		}
		if !wantSampled {
			if sel.Mass[u] != exact {
				t.Fatalf("node %d: exact-scan mass %v != reference %v", u, sel.Mass[u], exact)
			}
			continue
		}
		if exact == 0 {
			t.Fatalf("node %d: degenerate fixture, exact mass 0", u)
		}
		relErr := math.Abs(sel.Mass[u]-exact) / exact
		if relErr > 0.10 {
			t.Fatalf("node %d: sampled mass %v vs exact %v, relative error %.2f%% > 10%%",
				u, sel.Mass[u], exact, 100*relErr)
		}
		t.Logf("node %d: %d candidates, sampled mass %.1f vs exact %.1f (err %.3f%%)",
			u, len(cands), sel.Mass[u], exact, 100*relErr)
	}
}

// TestSelectivitySampleDeterministic: two builds of the table produce
// identical estimates (stride sampling has no RNG).
func TestSelectivitySampleDeterministic(t *testing.T) {
	aux, p := commonLabelFixture(t)
	a, err := New(aux, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(aux, p)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Selectivity(aux), b.Selectivity(aux)
	if fmt.Sprint(sa.Mass) != fmt.Sprint(sb.Mass) {
		t.Fatalf("mass estimates differ across builds:\n%v\n%v", sa.Mass, sb.Mass)
	}
}
