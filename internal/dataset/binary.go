package dataset

// Binary graph codec: a compact little-endian format that loads an order
// of magnitude faster than the textual edge list, for experiment
// checkpointing and large stand-ins.
//
// Layout:
//
//	magic "RBQ1"
//	u32 numLabels, then per label: u32 byteLen + bytes
//	u32 numNodes, then numNodes × u32 label ids
//	u64 numEdges, then numEdges × (u32 from, u32 to)

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"rbq/internal/graph"
)

var binaryMagic = [4]byte{'R', 'B', 'Q', '1'}

// binaryLimit guards against corrupt headers: no count may exceed it.
const binaryLimit = 1 << 31

// chunkBytes is how much payload is decoded or encoded at a time (a
// multiple of 8, so an edge never straddles two chunks). It is also the
// most a header can make ReadBinary set aside ahead of the payload it
// announces: every count sizes its buffers by the chunks that arrived.
const chunkBytes = 64 << 10

// WriteBinary emits g in the binary format.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	// Write errors are not checked one by one: a bufio.Writer keeps its
	// first error, drops what follows, and Flush returns it.
	bw := bufio.NewWriterSize(w, chunkBytes)
	var scratch [8]byte
	u32 := func(x uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], x)
		bw.Write(scratch[:4])
	}
	bw.Write(binaryMagic[:])
	u32(uint32(g.NumLabels()))
	for l := 0; l < g.NumLabels(); l++ {
		name := g.LabelName(graph.LabelID(l))
		u32(uint32(len(name)))
		bw.WriteString(name)
	}
	u32(uint32(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		u32(uint32(g.LabelOf(graph.NodeID(v))))
	}
	binary.LittleEndian.PutUint64(scratch[:], uint64(g.NumEdges()))
	bw.Write(scratch[:])
	for v := 0; v < g.NumNodes(); v++ {
		for _, t := range g.Out(graph.NodeID(v)) {
			binary.LittleEndian.PutUint32(scratch[:4], uint32(v))
			binary.LittleEndian.PutUint32(scratch[4:], uint32(t))
			bw.Write(scratch[:])
		}
	}
	return bw.Flush()
}

// binaryReader decodes the format a chunk at a time.
type binaryReader struct {
	r   io.Reader
	buf []byte // chunkBytes long
}

// read fills the first n bytes of the chunk buffer.
func (br *binaryReader) read(n int, what string) ([]byte, error) {
	if _, err := io.ReadFull(br.r, br.buf[:n]); err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", what, err)
	}
	return br.buf[:n], nil
}

func (br *binaryReader) u32(what string) (uint32, error) {
	b, err := br.read(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// chunks reads total bytes and hands them to f in order, a chunk at a
// time.
func (br *binaryReader) chunks(total uint64, what string, f func(chunk []byte) error) error {
	for total > 0 {
		n := min(total, chunkBytes)
		b, err := br.read(int(n), what)
		if err != nil {
			return err
		}
		if err := f(b); err != nil {
			return err
		}
		total -= n
	}
	return nil
}

// ReadBinary parses the binary format. Edges in ascending (from, to)
// order — what WriteBinary emits — go straight into the graph's CSR
// arrays (see graph.Builder); any other order is accepted and sorted.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	br := &binaryReader{r: r, buf: make([]byte, chunkBytes)}
	magic, err := br.read(4, "magic")
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q (not an RBQ1 graph file)", magic)
	}

	numLabels, err := br.u32("label count")
	if err != nil {
		return nil, err
	}
	if numLabels > binaryLimit {
		return nil, fmt.Errorf("dataset: absurd label count %d", numLabels)
	}
	var names []string
	for i := uint32(0); i < numLabels; i++ {
		n, err := br.u32("label length")
		if err != nil {
			return nil, err
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("dataset: absurd label length %d", n)
		}
		var name strings.Builder
		err = br.chunks(uint64(n), "label", func(chunk []byte) error {
			name.Write(chunk)
			return nil
		})
		if err != nil {
			return nil, err
		}
		names = append(names, name.String())
	}

	numNodes, err := br.u32("node count")
	if err != nil {
		return nil, err
	}
	if numNodes > binaryLimit {
		return nil, fmt.Errorf("dataset: absurd node count %d", numNodes)
	}
	// The builder numbers labels by first use, not by table position.
	// ids maps one to the other, so a node costs no string hash.
	b := graph.NewBuilder(min(int(numNodes), chunkBytes/4), 0)
	ids := make([]graph.LabelID, len(names))
	for i := range ids {
		ids[i] = graph.NoLabel
	}
	err = br.chunks(4*uint64(numNodes), "node label", func(chunk []byte) error {
		for ; len(chunk) > 0; chunk = chunk[4:] {
			l := binary.LittleEndian.Uint32(chunk)
			if l >= numLabels {
				return fmt.Errorf("dataset: node %d has label id %d of %d", b.NumNodes(), l, numLabels)
			}
			if ids[l] == graph.NoLabel {
				ids[l] = b.Intern(names[l])
			}
			b.AddLabeled(ids[l])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	count, err := br.read(8, "edge count")
	if err != nil {
		return nil, err
	}
	numEdges := binary.LittleEndian.Uint64(count)
	if numEdges > math.MaxInt32 { // the graph's CSR offsets are int32
		return nil, fmt.Errorf("dataset: absurd edge count %d", numEdges)
	}
	err = br.chunks(8*numEdges, "edge", func(chunk []byte) error {
		for ; len(chunk) > 0; chunk = chunk[8:] {
			from, to := binary.LittleEndian.Uint32(chunk), binary.LittleEndian.Uint32(chunk[4:])
			if from >= numNodes || to >= numNodes {
				return fmt.Errorf("dataset: edge (%d,%d) out of range", from, to)
			}
			b.AddEdge(graph.NodeID(from), graph.NodeID(to))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}
