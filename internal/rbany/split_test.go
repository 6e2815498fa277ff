package rbany

import (
	"reflect"
	"slices"
	"testing"

	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// skewedFixture builds a workload whose anchor candidates have wildly
// different selectivity. The pattern is the chain S -> T -> U -> W -> Y
// (output Y). One "good" S node fans out to ten T children, exactly one
// of which completes the chain; five "decoy" S nodes carry one T child
// each — low Potential mass — but fat, fully-matching subtrees and padded
// degree, so a split that ranks by degree and divides evenly would burn
// the budget on them before the good anchor's turn.
func skewedFixture(t *testing.T) (*graph.Graph, *pattern.Pattern) {
	t.Helper()
	b := graph.NewBuilder(128, 256)
	add := func(label string) graph.NodeID { return b.AddNode(label) }

	// Good anchor: 10 T children (Potential mass 10); only t* completes.
	good := add("S")
	tStar := add("T")
	b.AddEdge(good, tStar)
	for i := 0; i < 9; i++ {
		b.AddEdge(good, add("T")) // duds: no U child, guard-rejected later
	}
	uStar := add("U")
	wStar := add("W")
	yStar := add("Y")
	b.AddEdge(tStar, uStar)
	b.AddEdge(uStar, wStar)
	b.AddEdge(wStar, yStar)

	// Shared degree-padding targets for the decoys.
	var pads []graph.NodeID
	for i := 0; i < 10; i++ {
		pads = append(pads, add("X"))
	}
	// Decoys: one T child (Potential mass 1) whose subtree matches twice
	// over — plenty of guard-passing structure to absorb a budget share —
	// plus padding edges so their degree (11) tops the good anchor's (10).
	for d := 0; d < 5; d++ {
		s := add("S")
		dt := add("T")
		b.AddEdge(s, dt)
		for i := 0; i < 2; i++ {
			u := add("U")
			b.AddEdge(dt, u)
			w := add("W")
			b.AddEdge(u, w)
			b.AddEdge(w, add("Y"))
		}
		for _, x := range pads {
			b.AddEdge(s, x)
		}
	}
	// Label-frequency padding: keep S the rarest label (6 nodes) so it is
	// picked as the anchor over W and Y.
	for i := 0; i < 8; i++ {
		add("W")
		add("Y")
	}
	g := b.Build()

	pb := pattern.NewBuilder()
	s := pb.AddNode("S")
	tt := pb.AddNode("T")
	u := pb.AddNode("U")
	w := pb.AddNode("W")
	y := pb.AddNode("Y")
	pb.AddEdge(s, tt).AddEdge(tt, u).AddEdge(u, w).AddEdge(w, y)
	pb.SetPersonalized(s).SetOutput(y)
	return g, pb.MustBuild()
}

// TestWeightedSplitBeatsEven: with a budget too small for six equal
// shares, the selectivity-weighted split funds the high-mass anchor and
// finds its match (an even sixth of the budget would starve it).
func TestWeightedSplitBeatsEven(t *testing.T) {
	g, p := skewedFixture(t)
	aux := graph.BuildAux(g)
	// Budget of ~40 items: the good anchor's match needs a 9-item
	// fragment, an even sixth of 40 cannot cover it.
	alpha := 40.5 / float64(g.Size())
	res := evaluate(aux, p, bounded.Simulation, Options{Alpha: alpha})

	// yStar ends the one chain under the good anchor (node 0): S, its ten
	// T children, then U, W, Y.
	const yStar = graph.NodeID(13)
	if g.Label(yStar) != "Y" {
		t.Fatalf("fixture drifted: node %d is %q, not the good anchor's Y", yStar, g.Label(yStar))
	}
	if !slices.Contains(res.Matches, yStar) {
		t.Fatalf("the high-mass anchor's match %d was not found: matches %v (visited %d, evaluated %d)",
			yStar, res.Matches, res.Visited, res.Evaluated)
	}
}

// TestPreparedUnanchoredMatchesOneShot: a Prepared is compiled once and
// evaluated many times — reusing one across evaluations is bit-for-bit
// identical to compiling afresh for each.
func TestPreparedUnanchoredMatchesOneShot(t *testing.T) {
	g, p := skewedFixture(t)
	aux := graph.BuildAux(g)
	pr := prepare(aux, p)
	sim, sub := bounded.Compile(g, p, bounded.Simulation), bounded.Compile(g, p, bounded.Subgraph)
	for _, alpha := range []float64{0.05, 0.2, 0.8} {
		opts := Options{Alpha: alpha}
		if got, want := pr.Run(aux, sim, opts, nil), evaluate(aux, p, bounded.Simulation, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("alpha=%v: reused sim %+v != fresh %+v", alpha, got, want)
		}
		if got, want := pr.Run(aux, sub, opts, nil), evaluate(aux, p, bounded.Subgraph, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("alpha=%v: reused sub %+v != fresh %+v", alpha, got, want)
		}
	}
}
