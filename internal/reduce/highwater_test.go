package reduce

import (
	"math/rand"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// labelSem is a minimal label-only Semantics for engine-level tests.
type labelSem struct {
	g      *graph.Graph
	labels []graph.LabelID
}

func newLabelSem(g *graph.Graph, p *pattern.Pattern) *labelSem {
	return &labelSem{g: g, labels: g.InternLabels(p.Labels(), nil)}
}

func (s *labelSem) GuardLabeled(v graph.NodeID, u pattern.NodeID) bool {
	return s.g.LabelOf(v) == s.labels[u]
}

func (s *labelSem) Potential(v graph.NodeID, u pattern.NodeID) float64 {
	return float64(s.g.Degree(v))
}

func (s *labelSem) Labels() []graph.LabelID { return s.labels }

// TestPairHighWaterRecorded: a run that extracts a non-trivial fragment
// reports a positive live-pair high-water mark, bounded by the pairs a
// round can possibly stamp (every stamped pair costs at least one visit).
func TestPairHighWaterRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(200, 600)
	for i := 0; i < 200; i++ {
		b.AddNode(string(rune('a' + rng.Intn(3))))
	}
	for i := 0; i < 600; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(200)), graph.NodeID(rng.Intn(200)))
	}
	g := b.Build()
	aux := graph.BuildAux(g)

	pb := pattern.NewBuilder()
	n0 := pb.AddNode(g.Label(0))
	n1 := pb.AddNode("a")
	n2 := pb.AddNode("b")
	pb.AddEdge(n0, n1).AddEdge(n1, n2)
	pb.SetPersonalized(n0).SetOutput(n2)
	p := pb.MustBuild()

	frag, stats := Search(aux, p, 0, newLabelSem(g, p), Options{Alpha: 0.3})
	if frag.NumNodes() < 2 {
		t.Skipf("fixture too sparse: fragment %d nodes", frag.NumNodes())
	}
	if stats.PairHighWater <= 0 {
		t.Fatalf("PairHighWater = %d, want > 0 (stats %+v)", stats.PairHighWater, stats)
	}
	if stats.PairHighWater > stats.Visited {
		t.Fatalf("PairHighWater %d exceeds visited items %d", stats.PairHighWater, stats.Visited)
	}
}
