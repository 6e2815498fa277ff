package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead asserts the text parser never panics and that anything it
// accepts round-trips through Write/Read unchanged.
func FuzzRead(f *testing.F) {
	f.Add("node 0 A\nnode 1 B\nedge 0 1\n")
	f.Add("# comment\n\nnode 0 X\n")
	f.Add("edge 0 1")
	f.Add("node 0")
	f.Add("node 0 A\nedge 0 0\n")
	f.Add(strings.Repeat("node 0 A\n", 3))
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("write of accepted graph failed: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read of written graph failed: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
		}
	})
}

// FuzzReadBinary asserts the binary parser never panics on corrupt input,
// and that what it accepts is the graph the reference decoder and the
// Builder's radix path build from the same bytes.
func FuzzReadBinary(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteBinary(&valid, YoutubeLike(50, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("RBQ1"))
	f.Add([]byte("RBQ1\x01\x00\x00\x00"))
	f.Add([]byte{})
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	for _, bomb := range headerBombs() {
		f.Add(bomb)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		g, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		requireMatchesRef(t, input, g)
	})
}
