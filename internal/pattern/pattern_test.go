package pattern

import (
	"strings"
	"testing"
)

// figure1 builds the pattern of the paper's Fig. 1: Michael* -> CC -> CL!,
// Michael -> HG -> CL.
func figure1(t *testing.T) *Pattern {
	t.Helper()
	b := NewBuilder()
	m := b.AddNode("Michael")
	cc := b.AddNode("CC")
	hg := b.AddNode("HG")
	cl := b.AddNode("CL")
	b.AddEdge(m, cc).AddEdge(m, hg).AddEdge(cc, cl).AddEdge(hg, cl)
	b.SetPersonalized(m).SetOutput(cl)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFigure1Pattern(t *testing.T) {
	p := figure1(t)
	if p.NumNodes() != 4 || p.NumEdges() != 4 || p.Size() != 8 {
		t.Fatalf("nodes=%d edges=%d", p.NumNodes(), p.NumEdges())
	}
	if p.Label(p.Personalized()) != "Michael" || p.Label(p.Output()) != "CL" {
		t.Fatalf("designated nodes wrong: %q %q", p.Label(p.Personalized()), p.Label(p.Output()))
	}
	if d := p.Diameter(); d != 2 {
		t.Fatalf("d_Q = %d, want 2", d)
	}
	if d := p.UndirectedDiameter(); d != 2 {
		t.Fatalf("undirected d = %d, want 2", d)
	}
	if r := p.Radius(); r != 2 {
		t.Fatalf("radius = %d, want 2", r)
	}
	if l := p.DistinctLabels(); l != 4 {
		t.Fatalf("l = %d, want 4", l)
	}
	if !p.HasEdge(0, 1) || p.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if p.Degree(3) != 2 {
		t.Fatalf("Degree(CL) = %d", p.Degree(3))
	}
}

func TestBuilderRequiresDesignatedNodes(t *testing.T) {
	b := NewBuilder()
	b.AddNode("A")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error without personalized/output nodes")
	}
}

func TestBuilderRejectsDisconnected(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("A")
	b.AddNode("B") // no edge to it
	b.SetPersonalized(a).SetOutput(a)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected connectivity error")
	}
}

func TestBuilderRejectsBadEdge(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("A")
	b.AddEdge(a, 7)
	b.SetPersonalized(a).SetOutput(a)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected range error")
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("A")
	c := b.AddNode("B")
	b.AddEdge(a, c).AddEdge(a, c)
	b.SetPersonalized(a).SetOutput(c)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 1 {
		t.Fatalf("edges = %d", p.NumEdges())
	}
}

func TestSingleNodePattern(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("A")
	b.SetPersonalized(a).SetOutput(a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Diameter() != 0 || p.Radius() != 0 {
		t.Fatalf("diameter=%d radius=%d", p.Diameter(), p.Radius())
	}
}

func TestPathPatternDiameter(t *testing.T) {
	// u0 -> u1 -> u2: a path of length 2, as in the NP-hardness proof of
	// Theorem 1(a).
	b := NewBuilder()
	u0 := b.AddNode("X")
	u1 := b.AddNode("Y")
	u2 := b.AddNode("Z")
	b.AddEdge(u0, u1).AddEdge(u1, u2)
	b.SetPersonalized(u0).SetOutput(u2)
	p := b.MustBuild()
	if p.Diameter() != 2 {
		t.Fatalf("path diameter = %d", p.Diameter())
	}
}

// A pattern whose only connection is via "backward" edges from u_p still
// has a finite radius because hops are undirected.
func TestRadiusWithBackwardEdges(t *testing.T) {
	b := NewBuilder()
	up := b.AddNode("P")
	x := b.AddNode("X")
	b.AddEdge(x, up) // edge points INTO the personalized node
	b.SetPersonalized(up).SetOutput(x)
	p := b.MustBuild()
	if p.Radius() != 1 {
		t.Fatalf("radius = %d", p.Radius())
	}
}

func TestRoundTripStringParse(t *testing.T) {
	p := figure1(t)
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("parse of String output: %v\n%s", err, p.String())
	}
	if q.NumNodes() != p.NumNodes() || q.NumEdges() != p.NumEdges() {
		t.Fatalf("round trip lost structure: %d/%d vs %d/%d",
			q.NumNodes(), q.NumEdges(), p.NumNodes(), p.NumEdges())
	}
	if q.Personalized() != p.Personalized() || q.Output() != p.Output() {
		t.Fatal("round trip lost designated nodes")
	}
	for u := 0; u < p.NumNodes(); u++ {
		if q.Label(NodeID(u)) != p.Label(NodeID(u)) {
			t.Fatalf("label mismatch at %d", u)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"node 5 A*!",           // non-dense id
		"node 0 A\nedge 0",     // short edge
		"frobnicate",           // unknown directive
		"node 0 A*!\nedge 0 9", // edge out of range
		"node 0",               // short node
		"node 0 A\nedge x y",   // non-numeric
		"node zero A*!",        // non-numeric id
		// Ids are whole decimal integers: what Sscanf("%d") let through —
		// a number followed by junk, digit-group underscores, an edge id
		// beyond int32 that wrapped onto a real node — is refused.
		"node 0x A*!",
		"node 0 A*!\nedge 0 0x",
		"node 0 A*!\nedge 0_0 0",
		"node 0 A*!\nedge 4294967296 0",
		"node 0 A*! trailing", // four fields
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

// Fields split on any Unicode white space, runs of it included, as they
// did under strings.Fields; signed ids still parse.
func TestParseFieldSeparators(t *testing.T) {
	p, err := Parse("  node\t0 \u00a0 A*\r\nnode +1\u2003B!\n\tedge\v0\f1  \n")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 2 || p.NumEdges() != 1 || p.Label(0) != "A" || p.Label(1) != "B" || !p.HasEdge(0, 1) {
		t.Fatalf("parsed %q", p.String())
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	p, err := Parse("# a comment\n\nnode 0 A*!\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 1 {
		t.Fatalf("nodes = %d", p.NumNodes())
	}
}

func TestStringContainsMarkers(t *testing.T) {
	p := figure1(t)
	s := p.String()
	if !strings.Contains(s, "Michael*") || !strings.Contains(s, "CL!") {
		t.Fatalf("markers missing from:\n%s", s)
	}
}

// BenchmarkParse times Parse on the (4,8) shape the serving benchmarks
// send: what a template costs whenever the plan cache's text index cannot
// answer for it.
func BenchmarkParse(b *testing.B) {
	text := "node 0 L3*\nnode 1 L7\nnode 2 L11\nnode 3 L2!\n" +
		"edge 0 1\nedge 0 2\nedge 1 3\nedge 2 3\nedge 1 2\nedge 3 0\nedge 2 0\nedge 3 1\n"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
