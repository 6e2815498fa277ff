package graph

import (
	"bytes"
	"slices"
	"testing"
)

// testImageGraph builds a small multi-label graph with some structure
// worth checking: parallel-direction edges, isolated nodes, label skew.
func testImageGraph(t testing.TB) *Graph {
	t.Helper()
	labels := []string{"A", "B", "C", "A", "B", "A", "D", "A"}
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}, {1, 4}, {5, 0}, {5, 1}, {5, 2}}
	return FromEdges(labels, edges)
}

func imageBytes(t testing.TB, g *Graph, aux *Aux) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteImage(&buf, g, aux); err != nil {
		t.Fatalf("WriteImage: %v", err)
	}
	return buf.Bytes()
}

// sameGraph asserts structural equality of two base graphs plus their
// auxes, down to derived structures.
func sameGraph(t *testing.T, got, want *Graph, gotAux, wantAux *Aux) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.NumLabels() != want.NumLabels() {
		t.Fatalf("shape: got %d/%d/%d want %d/%d/%d",
			got.NumNodes(), got.NumEdges(), got.NumLabels(),
			want.NumNodes(), want.NumEdges(), want.NumLabels())
	}
	for v := 0; v < want.NumNodes(); v++ {
		id := NodeID(v)
		if got.Label(id) != want.Label(id) {
			t.Fatalf("node %d label: got %q want %q", v, got.Label(id), want.Label(id))
		}
		gOut, wOut := got.Out(id), want.Out(id)
		gIn, wIn := got.In(id), want.In(id)
		if len(gOut) != len(wOut) || len(gIn) != len(wIn) {
			t.Fatalf("node %d degrees differ", v)
		}
		for i := range wOut {
			if gOut[i] != wOut[i] {
				t.Fatalf("node %d out[%d]: got %d want %d", v, i, gOut[i], wOut[i])
			}
		}
		for i := range wIn {
			if gIn[i] != wIn[i] {
				t.Fatalf("node %d in[%d]: got %d want %d", v, i, gIn[i], wIn[i])
			}
		}
	}
	if got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("max degree: got %d want %d", got.MaxDegree(), want.MaxDegree())
	}
	for l := 0; l < want.NumLabels(); l++ {
		name := want.LabelName(LabelID(l))
		gl := got.LabelIDOf(name)
		if gl == NoLabel {
			t.Fatalf("label %q missing after decode", name)
		}
		gNodes, wNodes := got.NodesWithLabel(gl), want.NodesWithLabel(LabelID(l))
		if len(gNodes) != len(wNodes) {
			t.Fatalf("label %q node count: got %d want %d", name, len(gNodes), len(wNodes))
		}
		for i := range wNodes {
			if gNodes[i] != wNodes[i] {
				t.Fatalf("label %q nodes differ at %d", name, i)
			}
		}
	}
	gh, wh := gotAux.BaseHists(), wantAux.BaseHists()
	if gh == nil || wh == nil {
		t.Fatal("decoded aux is not a base aux")
	}
	if len(gh.OutHist) != len(wh.OutHist) || len(gh.InHist) != len(wh.InHist) {
		t.Fatalf("hist sizes: got %d/%d want %d/%d", len(gh.OutHist), len(gh.InHist), len(wh.OutHist), len(wh.InHist))
	}
	for i := range wh.OutHist {
		if gh.OutHist[i] != wh.OutHist[i] {
			t.Fatalf("out hist entry %d: got %v want %v", i, gh.OutHist[i], wh.OutHist[i])
		}
	}
	for v := 0; v <= want.NumNodes(); v++ {
		if gh.OutStart[v] != wh.OutStart[v] || gh.InStart[v] != wh.InStart[v] {
			t.Fatalf("hist offsets differ at node %d", v)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	g := testImageGraph(t)
	aux := BuildAux(g)
	data := imageBytes(t, g, aux)
	got, gotAux, err := ReadImage(data)
	if err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	sameGraph(t, got, g, gotAux, aux)
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded graph fails Validate: %v", err)
	}
	// The grouped lists and masks are derived on load: equal to what
	// BuildAux wrote, and to the per-label reference.
	requireSameHists(t, "decoded", gotAux.BaseHists(), aux.BaseHists())
	requireLabelIndex(t, "decoded", gotAux)
	// Writing the decoded graph again is byte-identical: the format has
	// one canonical encoding per graph.
	again := imageBytes(t, got, gotAux)
	if !bytes.Equal(data, again) {
		t.Fatal("image encoding is not canonical")
	}
}

func TestImageRoundTripEmpty(t *testing.T) {
	for _, g := range []*Graph{NewBuilder(0, 0).Build(), {}} {
		aux := BuildAux(g)
		got, gotAux, err := ReadImage(imageBytes(t, g, aux))
		if err != nil {
			t.Fatalf("ReadImage(empty): %v", err)
		}
		if got.NumNodes() != 0 || got.NumEdges() != 0 {
			t.Fatalf("empty image decoded to %d/%d", got.NumNodes(), got.NumEdges())
		}
		if gotAux.BaseHists() == nil {
			t.Fatal("empty image aux is not a base aux")
		}
	}
}

// TestImageRejectsInconsistentHistograms: an image whose histograms are
// well-formed but do not count the adjacency's labels — written here
// through a tampered Aux, so the checksum is valid — is refused, since
// the grouped lists are derived from them. Node 0's children are labelled
// A, A and B; the forgeries name a label no child carries, and split the
// right labels in the wrong counts.
func TestImageRejectsInconsistentHistograms(t *testing.T) {
	g := FromEdges([]string{"Q", "A", "A", "B", "C"}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {4, 0}})
	aux := BuildAux(g)
	a, b, c := g.LabelIDOf("A"), g.LabelIDOf("B"), g.LabelIDOf("C")
	if got := aux.OutLabelHist(0); !slices.Equal(got, []LabelCount{{a, 2}, {b, 1}}) {
		t.Fatalf("fixture: node 0 out histogram %v", got)
	}
	for _, forged := range [][]LabelCount{{{a, 2}, {c, 1}}, {{a, 1}, {b, 2}}} {
		tampered := &Aux{g: g, outStart: aux.outStart, inStart: aux.inStart, inHist: aux.inHist, outHist: slices.Clone(aux.outHist)}
		copy(tampered.outHist[aux.outStart[0]:aux.outStart[1]], forged)
		if _, _, err := ReadImage(imageBytes(t, g, tampered)); err == nil {
			t.Fatalf("accepted node 0 out histogram %v for children labelled A, A, B", forged)
		}
	}
}

func TestImageRejectsOverlay(t *testing.T) {
	g := testImageGraph(t)
	aux := BuildAux(g)
	view, err := g.WithOverlay(OverlayDelta{AddEdges: [][2]NodeID{{2, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteImage(&bytes.Buffer{}, view, aux); err == nil {
		t.Fatal("WriteImage accepted an overlay view")
	}
	other := FromEdges([]string{"A"}, nil)
	if err := WriteImage(&bytes.Buffer{}, other, aux); err == nil {
		t.Fatal("WriteImage accepted an aux built for a different graph")
	}
}

func TestImageDetectsCorruption(t *testing.T) {
	g := testImageGraph(t)
	data := imageBytes(t, g, BuildAux(g))
	// Every single-bit flip anywhere in the image must be rejected — by
	// the checksum for payload damage, by magic/length checks otherwise.
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, _, err := ReadImage(mut); err == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
	// Truncations must be rejected too.
	for _, cut := range []int{0, 1, 4, 11, len(data) / 2, len(data) - 1} {
		if _, _, err := ReadImage(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// FuzzReadImage asserts the image parser never panics and that any
// accepted image yields a structurally valid graph.
func FuzzReadImage(f *testing.F) {
	g := testImageGraph(f)
	var buf bytes.Buffer
	if err := WriteImage(&buf, g, BuildAux(g)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Add([]byte("RBQI"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		got, aux, err := ReadImage(input)
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted image fails Validate: %v", err)
		}
		if aux.BaseHists() == nil {
			t.Fatal("accepted image aux is not a base aux")
		}
		requireLabelIndex(t, "accepted image", aux)
	})
}
