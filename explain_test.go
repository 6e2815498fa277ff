package rbq

import (
	"context"
	"strings"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

func TestExplainAnchored(t *testing.T) {
	db, q, vp := traceFixture(t)
	ex, err := db.Explain(q, Request{Anchor: &vp, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Pattern != q.String() {
		t.Errorf("pattern text %q, want %q", ex.Pattern, q.String())
	}
	if ex.Budget != int(0.01*float64(ex.GraphSize)) {
		t.Errorf("budget %d, |G| %d", ex.Budget, ex.GraphSize)
	}
	if len(ex.Nodes) != q.NumNodes() {
		t.Fatalf("%d selectivity rows for %d query nodes", len(ex.Nodes), q.NumNodes())
	}
	var personalized int
	for _, n := range ex.Nodes {
		if n.Label == "" || n.Candidates <= 0 {
			t.Errorf("node %d: empty row %+v", n.Node, n)
		}
		if n.Personalized {
			personalized++
		}
		if n.Anchor {
			t.Errorf("anchored explain marked an anchor node")
		}
	}
	if personalized != 1 {
		t.Errorf("%d personalized rows, want 1", personalized)
	}
	if ex.Personalized != vp {
		t.Errorf("pin %d, want %d", ex.Personalized, vp)
	}
	var sb strings.Builder
	ex.WriteText(&sb)
	for _, want := range []string{"pattern:", "budget:", "plan cache:", "query nodes:", "personalized pin:"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("WriteText missing %q:\n%s", want, sb.String())
		}
	}
	// A second explain hits the cache the first one warmed.
	ex2, err := db.Explain(q, Request{Anchor: &vp, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !ex2.CacheHit {
		t.Error("second Explain missed the plan cache")
	}
}

func TestExplainUnanchoredShares(t *testing.T) {
	g := gen.Random(gen.GraphConfig{Nodes: 3000, Edges: 9000, Seed: 7, PowerLaw: true})
	db := NewDB(g)
	q := gen.PatternAt(g, 101, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 3})
	if q == nil {
		t.Fatal("could not extract a test pattern")
	}
	req := Request{Mode: Unanchored, Alpha: 0.02}
	ex, err := db.Explain(q, req)
	if err != nil {
		t.Fatal(err)
	}
	if ex.AnchorNode < 0 {
		t.Fatal("no anchor chosen")
	}
	if !ex.Nodes[ex.AnchorNode].Anchor {
		t.Error("anchor row not flagged")
	}
	if len(ex.Shares) == 0 {
		t.Fatal("no predicted shares")
	}
	if len(ex.Shares) > MaxExplainShares {
		t.Fatalf("%d share rows, cap is %d", len(ex.Shares), MaxExplainShares)
	}
	for _, s := range ex.Shares {
		if s.Share < 1 {
			t.Errorf("anchor %d share %d, floor is 1", s.V, s.Share)
		}
	}
	// The predicted shares must match what the evaluation actually
	// grants: run serially and compare the trace's per-anchor spans.
	res, err := db.Query(context.Background(), q, Request{Mode: Unanchored, Alpha: 0.02, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	ws := res.Trace.Find("anchor-wave")
	if ws == nil {
		t.Fatal("no anchor-wave span")
	}
	checked := 0
	for i, c := range ws.Children {
		if c.Name != "anchor" || i >= len(ex.Shares) {
			break
		}
		v, _ := c.Counter("v")
		share, _ := c.Counter("share")
		if NodeID(v) != ex.Shares[i].V {
			t.Errorf("anchor %d: ran %d, explain predicted %d", i, v, ex.Shares[i].V)
		}
		// The serial rollover can only enlarge later shares relative to
		// the full-spend prediction; the first anchor must agree exactly.
		if i == 0 && int(share) != ex.Shares[0].Share {
			t.Errorf("first anchor share %d, explain predicted %d", share, ex.Shares[0].Share)
		}
		if int(share) < ex.Shares[i].Share {
			t.Errorf("anchor %d: actual share %d below prediction %d", i, share, ex.Shares[i].Share)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no anchor spans to check predictions against")
	}
}

// TestExplainShareTotalIsCandidates: ShareTotal counts the anchors that
// pass the guard, as the evaluation's Candidates does, however little of
// the split the budget reaches — and "none pass" is printed only when
// none does.
func TestExplainShareTotalIsCandidates(t *testing.T) {
	db, q, _ := traceFixture(t)
	for _, alpha := range []float64{0, 1e-4, 0.02} {
		req := Request{Mode: Unanchored, Alpha: alpha}
		ex, err := db.Explain(q, req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(context.Background(), q, req)
		if err != nil {
			t.Fatal(err)
		}
		if ex.ShareTotal != res.Candidates {
			t.Errorf("α=%g: ShareTotal %d, Result.Candidates %d", alpha, ex.ShareTotal, res.Candidates)
		}
		if res.Candidates == 0 {
			t.Fatalf("α=%g: no candidates; the fixture checks nothing", alpha)
		}
		var sb strings.Builder
		ex.WriteText(&sb)
		if strings.Contains(sb.String(), "none pass") {
			t.Errorf("α=%g: %d candidates pass, but EXPLAIN says none do:\n%s", alpha, res.Candidates, sb.String())
		}
	}
}

func TestExplainValidates(t *testing.T) {
	db, q, _ := traceFixture(t)
	if _, err := db.Explain(q, Request{Alpha: -1}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

// TestExplainRefusesPinsQueryRefuses: an explicit pin Query would refuse
// — out of range, or carrying the wrong label — fails Explain with the
// same error instead of being printed as the pin.
func TestExplainRefusesPinsQueryRefuses(t *testing.T) {
	db, q, vp := traceFixture(t)
	wrong := NoNode
	want := db.Graph().LabelIDOf(q.Label(q.Personalized()))
	for v := 0; v < db.Graph().NumNodes(); v++ {
		if db.Graph().LabelOf(NodeID(v)) != want {
			wrong = NodeID(v)
			break
		}
	}
	if wrong == NoNode {
		t.Fatal("fixture has no node with another label")
	}
	for _, tc := range []struct {
		name string
		pin  NodeID
	}{{"out of range", 12345}, {"wrong label", wrong}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range []Mode{Bounded, Exact} {
				req := Request{Mode: mode, Anchor: Pin(tc.pin)}
				if mode == Bounded {
					req.Alpha = 0.01
				}
				_, qerr := db.Query(context.Background(), q, req)
				_, eerr := db.Explain(q, req)
				if qerr == nil || eerr == nil || eerr.Error() != qerr.Error() {
					t.Errorf("mode %d: Explain error %v, Query error %v", mode, eerr, qerr)
				}
			}
		})
	}
	if _, err := db.Explain(q, Request{Anchor: &vp, Alpha: 0.01}); err != nil {
		t.Fatalf("a valid pin refused: %v", err)
	}
}

// TestExplainBudgetIsQueryBudget: EXPLAIN states the budget the
// evaluation runs under, in Bounded and Unanchored mode alike, across
// the empty, tiny, paper-range and whole-graph α.
func TestExplainBudgetIsQueryBudget(t *testing.T) {
	db, q, vp := traceFixture(t)
	for _, alpha := range []float64{0, 1e-4, 0.02, 1, 1.5} {
		for _, req := range []Request{
			{Anchor: &vp, Alpha: alpha},
			{Mode: Unanchored, Alpha: alpha},
		} {
			ex, err := db.Explain(q, req)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(context.Background(), q, req)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Budget != res.Budget {
				t.Errorf("mode %d α=%g: Explain budget %d, Query budget %d", req.Mode, alpha, ex.Budget, res.Budget)
			}
		}
	}
}

// TestExplainCandidatesAreLabelCounts: every query node's Candidates is
// the number of data nodes carrying its label — exactly, for a label
// with thousands of candidates too — and an absent label shows as
// LabelID -1 with no candidates.
func TestExplainCandidatesAreLabelCounts(t *testing.T) {
	const users = 5000
	gb := NewGraphBuilder(users+8, users+8)
	m := gb.AddNode("Michael")
	for i := 0; i < users; i++ {
		gb.AddEdge(m, gb.AddNode("user"))
	}
	gb.AddEdge(gb.AddNode("user"), gb.AddNode("post"))
	db := NewDB(gb.Build())
	q, err := ParsePattern("node 0 Michael*\nnode 1 user\nnode 2 post\nnode 3 Zzz!\nedge 0 1\nedge 1 2\nedge 1 3\n")
	if err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	for _, req := range []Request{{Alpha: 0.01}, {Mode: Unanchored, Alpha: 0.01}} {
		ex, err := db.Explain(q, req)
		if err != nil {
			t.Fatal(err)
		}
		var large, absent bool
		for _, n := range ex.Nodes {
			want := 0
			if l := g.LabelIDOf(n.Label); l != graph.NoLabel {
				want = len(g.NodesWithLabel(l))
			} else if n.LabelID != -1 {
				t.Errorf("node %d (%s): absent label has LabelID %d, want -1", n.Node, n.Label, n.LabelID)
			}
			if n.Candidates != want {
				t.Errorf("node %d (%s): %d candidates, want %d", n.Node, n.Label, n.Candidates, want)
			}
			large = large || n.Candidates > 4096
			absent = absent || n.LabelID == -1
		}
		if !large || !absent {
			t.Fatalf("mode %d: fixture lacks a label with > 4096 candidates (%v) or an absent one (%v)", req.Mode, large, absent)
		}
	}
}
