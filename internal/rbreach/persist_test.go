package rbreach

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/landmark"
)

func TestOracleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 400, 1200, false)
	orig := New(g, landmark.BuildOptions{Alpha: 0.1})

	var buf bytes.Buffer
	if err := SaveOracle(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadOracle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Budget != orig.Budget {
		t.Fatalf("budget %d != %d", loaded.Budget, orig.Budget)
	}
	if loaded.Source != orig.Source || orig.Source != SourceOf(g) || orig.Source.Nodes != g.NumNodes() {
		t.Fatalf("source %+v, saved %+v, graph %+v", loaded.Source, orig.Source, SourceOf(g))
	}
	if loaded.Index.Size() != orig.Index.Size() {
		t.Fatalf("index size %d != %d", loaded.Index.Size(), orig.Index.Size())
	}
	if err := loaded.Index.Validate(); err != nil {
		t.Fatalf("loaded index invalid: %v", err)
	}
	// Every query must answer identically, including the visit counts
	// (the loaded oracle is the same machine).
	for q := 0; q < 300; q++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		a := orig.Query(u, v)
		b := loaded.Query(u, v)
		if a != b {
			t.Fatalf("query (%d,%d): original %+v, loaded %+v", u, v, a, b)
		}
	}
}

func TestOracleRoundTripCyclicGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, 800, false) // plenty of cycles
	orig := New(g, landmark.BuildOptions{Alpha: 0.2})
	var buf bytes.Buffer
	if err := SaveOracle(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadOracle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Condensation data must survive: same-SCC queries stay true.
	for q := 0; q < 200; q++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if orig.Cond.SameComponent(u, v) != loaded.Cond.SameComponent(u, v) {
			t.Fatalf("component mapping differs for (%d,%d)", u, v)
		}
	}
}

func TestLoadOracleRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("RBQO"),
		append([]byte("RBQO"), make([]byte, 8)...), // budget but no sections
	}
	for i, c := range cases {
		if _, err := LoadOracle(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLoadOracleRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 100, 300, true)
	o := New(g, landmark.BuildOptions{Alpha: 0.3})
	var buf bytes.Buffer
	if err := SaveOracle(&buf, o); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 13, 20, len(full) / 2, len(full) - 1} {
		if _, err := LoadOracle(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestLoadOracleRejectsAbsurdSection(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("RBQO")
	buf.Write([]byte{2, 0, 0, 0})                                     // version
	buf.Write(make([]byte, 28))                                       // budget, |V|, |E|, CRC
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge section
	if _, err := LoadOracle(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected section-size error")
	}
}

// TestLoadOracleRejectsVersion1: a file of the first layout — the budget
// right after the magic, no version and no source graph — is refused, as
// is a version this reader does not know.
func TestLoadOracleRejectsVersion1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o := New(randomGraph(rng, 100, 300, false), landmark.BuildOptions{Alpha: 0.3})
	var buf bytes.Buffer
	if err := SaveOracle(&buf, o); err != nil {
		t.Fatal(err)
	}
	cur := buf.Bytes()
	// Version 1: magic, u64 budget, then the same sections.
	v1 := append([]byte("RBQO"), binary.LittleEndian.AppendUint64(nil, uint64(o.Budget))...)
	v1 = append(v1, cur[4+4+28:]...)
	v3 := append([]byte("RBQO\x03\x00\x00\x00"), cur[8:]...)
	for name, data := range map[string][]byte{"version 1": v1, "version 3": v3} {
		if _, err := LoadOracle(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("%s: err = %v, want a version error", name, err)
		}
	}
}

// TestSourceOfTellsGraphsApart: one changed edge, one changed label or a
// different label table changes the CRC; an identical rebuild does not.
func TestSourceOfTellsGraphsApart(t *testing.T) {
	base := SourceOf(graph.FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}}))
	if again := SourceOf(graph.FromEdges([]string{"A", "B", "C"}, [][2]int{{1, 2}, {0, 1}})); again != base {
		t.Fatalf("identical graphs: %+v vs %+v", again, base)
	}
	for name, g := range map[string]*graph.Graph{
		"edge":  graph.FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {0, 2}}),
		"label": graph.FromEdges([]string{"A", "B", "B"}, [][2]int{{0, 1}, {1, 2}}),
		"name":  graph.FromEdges([]string{"A", "B", "D"}, [][2]int{{0, 1}, {1, 2}}),
	} {
		if s := SourceOf(g); s.CRC == base.CRC {
			t.Errorf("%s changed, CRC did not: %+v", name, s)
		}
	}
}
