package plan

import (
	"math/rand"
	"reflect"
	"testing"

	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/rbany"
	"rbq/internal/reduce"
)

// fixture: the Michael/CC/HG/CL motif of the paper's Fig. 1 plus padding.
func fixture(t *testing.T) (*graph.Aux, *pattern.Pattern) {
	t.Helper()
	b := graph.NewBuilder(16, 16)
	m := b.AddNode("Michael")
	cc := b.AddNode("CC")
	hg := b.AddNode("HG")
	cl := b.AddNode("CL")
	b.AddEdge(m, cc)
	b.AddEdge(m, hg)
	b.AddEdge(cc, cl)
	b.AddEdge(hg, cl)
	for i := 0; i < 6; i++ {
		b.AddNode("X")
	}
	g := b.Build()

	pb := pattern.NewBuilder()
	pm := pb.AddNode("Michael")
	pcc := pb.AddNode("CC")
	phg := pb.AddNode("HG")
	pcl := pb.AddNode("CL")
	pb.AddEdge(pm, pcc).AddEdge(pm, phg).AddEdge(pcc, pcl).AddEdge(phg, pcl)
	pb.SetPersonalized(pm).SetOutput(pcl)
	return graph.BuildAux(g), pb.MustBuild()
}

func TestNewCompilesLabelsAndPersonalized(t *testing.T) {
	aux, p := fixture(t)
	pl, err := New(aux, p)
	if err != nil {
		t.Fatal(err)
	}
	g := aux.Graph()
	labels := pl.Labels()
	if len(labels) != p.NumNodes() {
		t.Fatalf("labels len %d, want %d", len(labels), p.NumNodes())
	}
	for u, l := range labels {
		if want := g.LabelIDOf(p.Label(pattern.NodeID(u))); l != want {
			t.Fatalf("label[%d] = %d, want %d", u, l, want)
		}
	}
	vp, ok := pl.Personalized(aux)
	if !ok || vp != 0 {
		t.Fatalf("personalized = (%d, %v), want (0, true)", vp, ok)
	}
	if pl.Diameter() != p.Diameter() {
		t.Fatalf("diameter mismatch")
	}
}

func TestNewRejectsNil(t *testing.T) {
	aux, _ := fixture(t)
	if _, err := New(aux, nil); err == nil {
		t.Fatal("want error for nil pattern")
	}
}

func TestCheckPin(t *testing.T) {
	aux, p := fixture(t)
	pl, _ := New(aux, p)
	if err := pl.CheckPin(aux, 0); err != nil {
		t.Fatalf("valid pin rejected: %v", err)
	}
	if err := pl.CheckPin(aux, 1); err == nil {
		t.Fatal("label-mismatched pin accepted")
	}
	if err := pl.CheckPin(aux, -1); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if err := pl.CheckPin(aux, graph.NodeID(aux.Graph().NumNodes())); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}

// TestPreparedMatchesOneShotEngines: the plan's execute methods are
// bit-for-bit identical to the engines run on freshly bound Semantics,
// across random graphs and patterns.
func TestPreparedMatchesOneShotEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 15; iter++ {
		g := randomLabeled(rng, 120, 360, 4)
		p := randomPattern(rng, 4)
		aux := graph.BuildAux(g)
		pl, err := New(aux, p)
		if err != nil {
			t.Fatal(err)
		}
		opts := reduce.Options{Alpha: 0.3}
		// Pin at every candidate of the personalized label.
		l := g.LabelIDOf(p.Label(p.Personalized()))
		for _, vp := range g.NodesWithLabel(l) {
			if got, want := pl.Bounded(aux, bounded.Simulation, vp, opts, nil), bounded.Run(aux, p, vp, bounded.Compile(g, p, bounded.Simulation), opts, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d vp %d: plan sim %+v != bounded %+v", iter, vp, got, want)
			}
			if got, want := pl.Bounded(aux, bounded.Subgraph, vp, opts, nil), bounded.Run(aux, p, vp, bounded.Compile(g, p, bounded.Subgraph), opts, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d vp %d: plan sub %+v != bounded %+v", iter, vp, got, want)
			}
		}
		uo := rbany.Options{Alpha: 0.3}
		if got, want := pl.Unanchored(aux, bounded.Simulation, uo, nil), oneShotUnanchored(aux, p, bounded.Simulation, uo); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: plan unanchored %+v != rbany %+v", iter, got, want)
		}
		if got, want := pl.Unanchored(aux, bounded.Subgraph, uo, nil), oneShotUnanchored(aux, p, bounded.Subgraph, uo); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: plan sub-unanchored %+v != rbany %+v", iter, got, want)
		}
	}
}

// oneShotUnanchored is the unanchored engine with nothing reused: the
// anchor picked, the pattern re-rooted and its semantics compiled afresh.
func oneShotUnanchored(aux *graph.Aux, p *pattern.Pattern, c bounded.Class, opts rbany.Options) rbany.Result {
	g := aux.Graph()
	anchor, _ := rbany.PickAnchor(g, g.InternLabels(p.Labels(), nil))
	return rbany.Prepare(p, anchor).Run(aux, bounded.Compile(g, p, c), opts, nil)
}

// TestSelectivityTable: Anchor picks the query node with the fewest
// candidates, exactly as rbany.PickAnchor does, and reuses one
// re-rooting of the pattern there across calls.
func TestSelectivityTable(t *testing.T) {
	aux, p := fixture(t)
	pl, _ := New(aux, p)
	anchor, pr := pl.Anchor(aux)
	// Every label occurs once in the fixture graph, so the counts tie at
	// 1 and the anchor is the lowest-id node.
	wantAnchor, cands := rbany.PickAnchor(aux.Graph(), pl.Labels())
	if anchor != wantAnchor || len(cands) != 1 {
		t.Fatalf("anchor %d, want %d with 1 candidate (got %d)", anchor, wantAnchor, len(cands))
	}
	if pr == nil || pr.Anchor != wantAnchor || pr.Rooted == nil {
		t.Fatalf("unanchored prepared = %+v", pr)
	}
	if a2, pr2 := pl.Anchor(aux); a2 != anchor || pr2 != pr {
		t.Fatalf("second Anchor = (%d, %p), want (%d, %p): the re-rooting is built once", a2, pr2, anchor, pr)
	}
}

// TestSelectivityAbsentLabel: a query label absent from the graph is the
// anchor, with no candidate and no re-rooting, and the unanchored
// evaluation is empty.
func TestSelectivityAbsentLabel(t *testing.T) {
	aux, _ := fixture(t)
	pb := pattern.NewBuilder()
	a := pb.AddNode("Michael")
	z := pb.AddNode("Zzz")
	pb.AddEdge(a, z)
	pb.SetPersonalized(a).SetOutput(z)
	pl, err := New(aux, pb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if anchor, pr := pl.Anchor(aux); anchor != z || pr != nil {
		t.Fatalf("Anchor = (%d, %+v), want (%d, nil)", anchor, pr, z)
	}
	res := pl.Unanchored(aux, bounded.Simulation, rbany.Options{Alpha: 1}, nil)
	if res.Matches != nil || res.Candidates != 0 || res.Anchor != z {
		t.Fatalf("unanchored over absent label = %+v", res)
	}
}

// TestBindReuse: recycling one plan across patterns (the facade's
// one-shot path) yields the same answers as fresh plans.
func TestBindReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomLabeled(rng, 100, 300, 3)
	aux := graph.BuildAux(g)
	recycled := new(Plan)
	opts := reduce.Options{Alpha: 0.4}
	for i := 0; i < 10; i++ {
		p := randomPattern(rng, 3)
		recycled.Bind(aux, p)
		fresh, err := New(aux, p)
		if err != nil {
			t.Fatal(err)
		}
		l := g.LabelIDOf(p.Label(p.Personalized()))
		for _, vp := range g.NodesWithLabel(l) {
			if got, want := recycled.Bounded(aux, bounded.Simulation, vp, opts, nil), fresh.Bounded(aux, bounded.Simulation, vp, opts, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: recycled %+v != fresh %+v", i, got, want)
			}
		}
		if got, want := recycled.Unanchored(aux, bounded.Simulation, rbany.Options{Alpha: 0.4}, nil), fresh.Unanchored(aux, bounded.Simulation, rbany.Options{Alpha: 0.4}, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: recycled unanchored %+v != fresh %+v", i, got, want)
		}
	}
}

func randomLabeled(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + rng.Intn(labels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func randomPattern(rng *rand.Rand, labels int) *pattern.Pattern {
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
