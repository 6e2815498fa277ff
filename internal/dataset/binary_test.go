package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// readBinaryRef is the decoder ReadBinary replaced — one reflection-based
// binary.Read per value — feeding the Builder its edges in reverse, so the
// graph is built by the radix path whatever order the file holds. It is
// the reference ReadBinary's chunked decode and the Builder's in-place CSR
// are compared against.
func readBinaryRef(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("bad magic")
	}
	readU32 := func() (x uint32, err error) { return x, binary.Read(br, binary.LittleEndian, &x) }
	numLabels, err := readU32()
	if err != nil {
		return nil, err
	}
	var labels []string
	for i := uint32(0); i < numLabels; i++ {
		n, err := readU32()
		if err != nil || n > 1<<20 {
			return nil, fmt.Errorf("label length: %v", err)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		labels = append(labels, string(buf))
	}
	numNodes, err := readU32()
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(0, 0)
	for v := uint32(0); v < numNodes; v++ {
		l, err := readU32()
		if err != nil || l >= numLabels {
			return nil, fmt.Errorf("node label: %v", err)
		}
		b.AddNode(labels[l])
	}
	var numEdges uint64
	if err := binary.Read(br, binary.LittleEndian, &numEdges); err != nil {
		return nil, err
	}
	var edges [][2]uint32
	for i := uint64(0); i < numEdges; i++ {
		from, err1 := readU32()
		to, err2 := readU32()
		if err1 != nil || err2 != nil || from >= numNodes || to >= numNodes {
			return nil, fmt.Errorf("edge %d: %v %v", i, err1, err2)
		}
		edges = append(edges, [2]uint32{from, to})
	}
	if len(edges) == 1 {
		edges = append(edges, edges[0]) // a lone edge is in order; its duplicate is not
	}
	for i := len(edges) - 1; i >= 0; i-- {
		b.AddEdge(graph.NodeID(edges[i][0]), graph.NodeID(edges[i][1]))
	}
	return b.Build(), nil
}

// writeBinaryRef is the encoder WriteBinary replaced: one binary.Write
// per value.
func writeBinaryRef(w io.Writer, g *graph.Graph) {
	w.Write(binaryMagic[:])
	u32 := func(x uint32) { binary.Write(w, binary.LittleEndian, x) }
	u32(uint32(g.NumLabels()))
	for l := 0; l < g.NumLabels(); l++ {
		name := g.LabelName(graph.LabelID(l))
		u32(uint32(len(name)))
		io.WriteString(w, name)
	}
	u32(uint32(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		u32(uint32(g.LabelOf(graph.NodeID(v))))
	}
	binary.Write(w, binary.LittleEndian, uint64(g.NumEdges()))
	for v := 0; v < g.NumNodes(); v++ {
		for _, t := range g.Out(graph.NodeID(v)) {
			u32(uint32(v))
			u32(uint32(t))
		}
	}
}

// imageOf is every array of g and of its Aux, as bytes: the RBQ1 file
// (label table, node labels, out-lists in order), then each node's
// in-list and its two histograms. Two graphs with equal images are
// equal array for array.
func imageOf(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("graph fails validation: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	le, img, aux := binary.LittleEndian, buf.Bytes(), graph.BuildAux(g)
	for v := range graph.NodeID(g.NumNodes()) {
		img = le.AppendUint32(img, uint32(g.InDegree(v)))
		for _, u := range g.In(v) {
			img = le.AppendUint32(img, uint32(u))
		}
		for _, h := range [][]graph.LabelCount{aux.OutLabelHist(v), aux.InLabelHist(v)} {
			img = le.AppendUint32(img, uint32(len(h)))
			for _, e := range h {
				img = le.AppendUint32(le.AppendUint32(img, uint32(e.Label)), uint32(e.Count))
			}
		}
	}
	return img
}

// requireMatchesRef checks that ReadBinary and the reference decoder
// build the same graph from data.
func requireMatchesRef(t testing.TB, data []byte, got *graph.Graph) {
	t.Helper()
	want, err := readBinaryRef(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadBinary accepted what the reference decoder rejects: %v", err)
	}
	if !bytes.Equal(imageOf(t, got), imageOf(t, want)) {
		t.Fatal("ReadBinary and the reference decoder built different graphs")
	}
}

// binaryCorpus is graphs of the shapes the loader has to get right:
// power-law and uniform, self-loops, one label, more than 64 labels, a
// label table that is not in first-use order, and the empty graph.
func binaryCorpus() map[string]*graph.Graph {
	wide := graph.NewBuilder(0, 0)
	rng := rand.New(rand.NewSource(9))
	for v := 0; v < 500; v++ {
		wide.AddNode(fmt.Sprintf("w%d", rng.Intn(150)))
	}
	for i := 0; i < 3000; i++ {
		v := graph.NodeID(rng.Intn(500))
		if i%9 == 0 {
			wide.AddEdge(v, v)
		} else {
			wide.AddEdge(v, graph.NodeID(rng.Intn(500)))
		}
	}
	one := graph.NewBuilder(0, 0)
	for v := 0; v < 64; v++ {
		one.AddNode("only")
	}
	for v := 0; v < 63; v++ {
		one.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	return map[string]*graph.Graph{
		"youtube":   YoutubeLike(3000, 5),
		"uniform":   gen.Random(gen.GraphConfig{Nodes: 800, Edges: 5000, Seed: 3}),
		"wide":      wide.Build(),
		"one-label": one.Build(),
		"no-edges":  graph.FromEdges([]string{"A", "B", "A"}, nil),
		"empty":     graph.NewBuilder(0, 0).Build(),
	}
}

func TestReadBinaryEqualsReferenceDecoder(t *testing.T) {
	for name, g := range binaryCorpus() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireMatchesRef(t, buf.Bytes(), got)
		if !bytes.Equal(imageOf(t, got), imageOf(t, g)) {
			t.Fatalf("%s: round trip changed the graph", name)
		}
	}
	// A label table out of first-use order, with an unused and a repeated
	// name: the graph numbers labels by first use, as the Builder does.
	var odd bytes.Buffer
	odd.Write(binaryMagic[:])
	u32 := func(x uint32) { binary.Write(&odd, binary.LittleEndian, x) }
	u32(4)
	for _, name := range []string{"unused", "B", "A", "B"} {
		u32(uint32(len(name)))
		odd.WriteString(name)
	}
	u32(4)
	for _, l := range []uint32{2, 3, 1, 2} {
		u32(l)
	}
	binary.Write(&odd, binary.LittleEndian, uint64(3))
	for _, e := range [][2]uint32{{3, 0}, {0, 1}, {0, 1}} { // unsorted, duplicated
		u32(e[0])
		u32(e[1])
	}
	got, err := ReadBinary(bytes.NewReader(odd.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesRef(t, odd.Bytes(), got)
	if got.NumLabels() != 2 || got.Label(0) != "A" || got.Label(1) != "B" || got.LabelOf(2) != got.LabelOf(1) || got.NumEdges() != 2 {
		t.Fatalf("labels %d, edges %d", got.NumLabels(), got.NumEdges())
	}
}

// TestReadBinaryRejectsTrailingBytes: a damaged edge count that drops
// the last edge leaves bytes behind it, and those are refused rather
// than read as a shorter graph.
func TestReadBinaryRejectsTrailingBytes(t *testing.T) {
	g := graph.FromEdges([]string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine file: %v", err)
	}
	short := bytes.Clone(data)
	binary.LittleEndian.PutUint64(short[len(short)-3*8-8:], 2)
	long := append(bytes.Clone(data), 0)
	for name, bad := range map[string][]byte{"edge count 2 of 3": short, "one byte appended": long} {
		got, err := ReadBinary(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("%s: accepted, %d edges", name, got.NumEdges())
		}
		if !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: error does not name the trailing data: %v", name, err)
		}
	}
}

func TestWriteBinaryBytesUnchanged(t *testing.T) {
	for name, g := range binaryCorpus() {
		var got, want bytes.Buffer
		if err := WriteBinary(&got, g); err != nil {
			t.Fatal(err)
		}
		writeBinaryRef(&want, g)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteBinary output differs from the per-value encoder's", name)
		}
	}
}

type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left -= len(p); w.left < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

func TestWriteBinaryReportsWriteError(t *testing.T) {
	g := YoutubeLike(50_000, 1) // larger than the writer's buffer
	for _, room := range []int{0, 100_000} {
		if err := WriteBinary(&failingWriter{left: room}, g); err == nil {
			t.Fatalf("write error after %d bytes not reported", room)
		}
	}
}

// headerBombs are short inputs whose header announces far more than
// follows.
func headerBombs() map[string][]byte {
	le := binary.LittleEndian
	nodes := le.AppendUint32(le.AppendUint32([]byte("RBQ1"), 0), 1<<30-1)
	labels := le.AppendUint32([]byte("RBQ1"), 1<<31)
	name := le.AppendUint32(le.AppendUint32([]byte("RBQ1"), 1), 1<<20)
	edges := le.AppendUint32(le.AppendUint32([]byte("RBQ1"), 1), 1)
	edges = append(edges, 'A')
	edges = le.AppendUint32(le.AppendUint32(edges, 1), 0)
	edges = le.AppendUint64(edges, 1<<31)
	edges = le.AppendUint32(le.AppendUint32(edges, 0), 0)
	return map[string][]byte{"nodes": nodes, "labels": labels, "label-name": name, "edges": edges}
}

// TestReadBinaryHeaderBomb: a count in the header sizes nothing until the
// payload it announces has arrived. The 12-byte "nodes" file used to
// allocate 4 GB before failing.
func TestReadBinaryHeaderBomb(t *testing.T) {
	for name, data := range headerBombs() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g, err := ReadBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Fatalf("%s: accepted, |V|=%d", name, g.NumNodes())
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input (%v)", name, got, len(data), err)
		}
	}
}
