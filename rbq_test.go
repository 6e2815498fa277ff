package rbq

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// buildSocialDB builds the paper's Fig. 1 scenario through the public API.
func buildSocialDB(t *testing.T) (*DB, *Pattern, NodeID, NodeID) {
	t.Helper()
	gb := NewGraphBuilder(8, 10)
	michael := gb.AddNode("Michael")
	hg := gb.AddNode("HG")
	cc := gb.AddNode("CC")
	ccBad := gb.AddNode("CC")
	cl1 := gb.AddNode("CL")
	cl2 := gb.AddNode("CL")
	clLone := gb.AddNode("CL")
	gb.AddEdge(michael, hg)
	gb.AddEdge(michael, cc)
	gb.AddEdge(michael, ccBad)
	gb.AddEdge(cc, cl1)
	gb.AddEdge(cc, cl2)
	gb.AddEdge(hg, cl1)
	gb.AddEdge(hg, cl2)
	gb.AddEdge(ccBad, clLone) // clLone lacks an HG parent
	g := gb.Build()

	pb := NewPatternBuilder()
	m := pb.AddNode("Michael")
	pcc := pb.AddNode("CC")
	phg := pb.AddNode("HG")
	pcl := pb.AddNode("CL")
	pb.AddEdge(m, pcc)
	pb.AddEdge(m, phg)
	pb.AddEdge(pcc, pcl)
	pb.AddEdge(phg, pcl)
	pb.SetPersonalized(m)
	pb.SetOutput(pcl)
	q := pb.MustBuild()
	return NewDB(g), q, cl1, cl2
}

func TestSimulationEndToEnd(t *testing.T) {
	db, q, cl1, cl2 := buildSocialDB(t)
	res, err := db.Query(context.Background(), q, Request{Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Matches[0] != cl1 || res.Matches[1] != cl2 {
		t.Fatalf("matches = %v, want [%d %d]", res.Matches, cl1, cl2)
	}
	exact, err := db.Query(context.Background(), q, Request{Mode: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if acc := MatchAccuracy(exact.Matches, res.Matches); acc.F != 1 {
		t.Fatalf("accuracy %+v", acc)
	}
	if res.FragmentSize > res.Budget {
		t.Fatalf("budget violated: %+v", res)
	}
}

func TestSubgraphEndToEnd(t *testing.T) {
	db, q, cl1, cl2 := buildSocialDB(t)
	res, err := db.Query(context.Background(), q, Request{Semantics: Subgraph, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 || res.Matches[0] != cl1 || res.Matches[1] != cl2 {
		t.Fatalf("matches = %v", res.Matches)
	}
	exact, err := db.Query(context.Background(), q, Request{Semantics: Subgraph, Mode: Exact})
	if err != nil || !exact.Complete {
		t.Fatalf("exact: %v complete=%v", err, exact.Complete)
	}
	if acc := MatchAccuracy(exact.Matches, res.Matches); acc.F != 1 {
		t.Fatalf("accuracy %+v", acc)
	}
}

func TestPersonalizedUniquenessEnforced(t *testing.T) {
	gb := NewGraphBuilder(2, 0)
	gb.AddNode("A")
	gb.AddNode("A")
	db := NewDB(gb.Build())
	pb := NewPatternBuilder()
	a := pb.AddNode("A")
	pb.SetPersonalized(a)
	pb.SetOutput(a)
	q := pb.MustBuild()
	if _, err := db.Query(context.Background(), q, Request{Alpha: 0.5}); err == nil {
		t.Fatal("expected uniqueness error")
	}
	if _, err := db.Query(context.Background(), q, Request{Semantics: Subgraph, Alpha: 0.5}); err == nil {
		t.Fatal("expected uniqueness error")
	}
	if _, err := db.Query(context.Background(), q, Request{Semantics: Subgraph, Mode: Exact}); err == nil {
		t.Fatal("expected uniqueness error")
	}
}

func TestReachOracleEndToEnd(t *testing.T) {
	g := RandomGraph(2000, 5000, 3, true)
	db := NewDB(g)
	oracle := db.BuildReachOracle(0.05)
	if oracle.IndexSize() > int(0.05*float64(g.Size())) {
		t.Fatalf("index size %d exceeds alpha|G|", oracle.IndexSize())
	}
	falseNeg, checked := 0, 0
	for i := 0; i < 300; i++ {
		u := NodeID(i % g.NumNodes())
		v := NodeID((i * 13) % g.NumNodes())
		truth := db.ReachExact(u, v)
		got := oracle.Reach(u, v)
		checked++
		if got.Answer && !truth {
			t.Fatalf("false positive on (%d,%d)", u, v)
		}
		if !got.Answer && truth {
			falseNeg++
		}
	}
	if falseNeg > checked/3 {
		t.Fatalf("too many false negatives: %d/%d", falseNeg, checked)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, q, _, _ := buildSocialDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.Query(context.Background(), q, Request{Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.Query(context.Background(), q, Request{Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatal("answers differ after save/load")
	}
}

func TestParsePattern(t *testing.T) {
	q, err := ParsePattern("node 0 Michael*\nnode 1 CL!\nedge 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if q.Label(q.Personalized()) != "Michael" || q.Label(q.Output()) != "CL" {
		t.Fatal("markers not parsed")
	}
}

func TestExtractPattern(t *testing.T) {
	g := RandomGraph(500, 1500, 7, false)
	q, g2, vp, err := ExtractPattern(g, 4, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(g2)
	res, err := db.Query(context.Background(), q, Request{Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Personalized != vp {
		t.Fatalf("v_p = %d, want %d", res.Personalized, vp)
	}
	if len(res.Matches) == 0 {
		t.Fatal("extracted pattern found no matches at full alpha")
	}
}

func TestStandInGenerators(t *testing.T) {
	if g := YoutubeLike(5000, 1); g.NumNodes() != 5000 {
		t.Fatal("YoutubeLike wrong size")
	}
	if g := YahooLike(5000, 1); g.NumNodes() != 5000 {
		t.Fatal("YahooLike wrong size")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("gibberish")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestBinarySaveLoadRoundTrip(t *testing.T) {
	db, q, _, _ := buildSocialDB(t)
	var buf bytes.Buffer
	if err := db.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf) // auto-detects the binary magic
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.Query(context.Background(), q, Request{Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.Query(context.Background(), q, Request{Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatal("answers differ after binary save/load")
	}
}

func TestReachOracleSaveLoad(t *testing.T) {
	g := RandomGraph(1500, 4000, 5, true)
	db := NewDB(g)
	orig := db.BuildReachOracle(0.05)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	loaded, err := db.LoadReachOracle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.IndexSize() != orig.IndexSize() {
		t.Fatalf("index size changed: %d vs %d", loaded.IndexSize(), orig.IndexSize())
	}
	for i := 0; i < 200; i++ {
		u := NodeID((i * 31) % g.NumNodes())
		v := NodeID((i * 97) % g.NumNodes())
		if orig.Reach(u, v) != loaded.Reach(u, v) {
			t.Fatalf("answers differ on (%d,%d)", u, v)
		}
	}
	// The oracle answers only for the graph it was built from: a DB over
	// another graph of the same size, and its own DB after a mutation,
	// refuse it.
	other := NewDB(RandomGraph(1500, 4000, 6, true))
	if err := db.Apply([]Op{AddNode(g.Label(0))}); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*DB{"same size": other, "mutated": db} {
		if _, err := d.LoadReachOracle(bytes.NewReader(saved)); err == nil || !strings.Contains(err.Error(), "another graph") {
			t.Errorf("%s: err = %v, want the oracle refused", name, err)
		}
	}
}
