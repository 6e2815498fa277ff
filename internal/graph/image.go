package graph

// Base-image codec: the flat, pointer-free serialization of a base CSR
// Graph plus its Aux, used by internal/store for crash-safe snapshot
// images. The format follows the versioned-header + absurd-count-guard
// idiom of internal/dataset/binary.go and internal/landmark/codec.go,
// with one addition those codecs lack: a trailing CRC32C over the whole
// payload, because an image is read back after crashes and bit rot, not
// just after a clean write.
//
// Layout (little-endian throughout):
//
//	"RBQI" | u32 version
//	u32 L  | L × (u32 len, bytes)          label names
//	u32 n  | n × u32                       node labels
//	u64 m
//	(n+1) × u64 | m × u32                  out CSR (start, adj)
//	(n+1) × u64 | m × u32                  in CSR
//	(n+1) × u32 | k_out × (u32, u32)       Aux out histograms
//	(n+1) × u32 | k_in  × (u32, u32)       Aux in histograms
//	u32 CRC32C(everything above)
//
// Derived structures (label index CSR, degree counts, max degree, the
// label-interning map) are rebuilt on load in O(n + L): storing them
// would grow the image without saving meaningful time, and rebuilding
// from the decoded arrays keeps every invariant locally checkable. What
// the image does carry that a plain edge list would not is the Aux
// histograms. The Aux's label-grouped lists and presence masks are
// derived on load by BuildAux's own per-list construction, in one
// parallel pass that also checks every decoded histogram against the one
// that construction builds for its list, so they cost the image no bytes
// and its format no version.
//
// ReadImage is deliberately paranoid: beyond the checksum it bounds
// every count against the remaining payload before allocating and
// verifies the structural invariants engines rely on (monotone CSR
// offsets, sorted adjacency and histogram segments, in-range ids), so
// hostile bytes can waste time but never panic the process.

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	imageMagic   = "RBQI"
	imageVersion = 1
	// imageLimit guards counts that would be absurd (the same bound as
	// internal/dataset.binaryLimit): anything larger is corruption.
	imageLimit = 1 << 31
	// imageMaxLabel bounds one label name's byte length.
	imageMaxLabel = 1 << 20
)

// imageCRC is the Castagnoli table; CRC32C has hardware support on the
// platforms we care about.
var imageCRC = crc32.MakeTable(crc32.Castagnoli)

type imageWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf [8]byte
}

func (iw *imageWriter) write(p []byte) {
	if iw.err != nil {
		return
	}
	iw.crc = crc32.Update(iw.crc, imageCRC, p)
	_, iw.err = iw.w.Write(p)
}

func (iw *imageWriter) u32(x uint32) {
	iw.buf[0] = byte(x)
	iw.buf[1] = byte(x >> 8)
	iw.buf[2] = byte(x >> 16)
	iw.buf[3] = byte(x >> 24)
	iw.write(iw.buf[:4])
}

func (iw *imageWriter) u64(x uint64) {
	for i := 0; i < 8; i++ {
		iw.buf[i] = byte(x >> (8 * i))
	}
	iw.write(iw.buf[:8])
}

// WriteImage serializes g and its aux as a base image. g must be a base
// CSR and aux its unpatched Aux: overlay views are rejected — images are
// written by compaction, which always folds the overlay first.
func WriteImage(w io.Writer, g *Graph, aux *Aux) error {
	if g.HasOverlay() {
		return fmt.Errorf("graph: WriteImage: overlay view (compact first)")
	}
	if aux == nil || aux.ov != nil || aux.g != g {
		return fmt.Errorf("graph: WriteImage: aux is patched or not built for this graph")
	}
	n := g.NumNodes()
	m := g.NumEdges()
	iw := &imageWriter{w: bufio.NewWriterSize(w, 1<<16)}
	iw.write([]byte(imageMagic))
	iw.u32(imageVersion)
	iw.u32(uint32(len(g.labelNames)))
	for _, name := range g.labelNames {
		iw.u32(uint32(len(name)))
		iw.write([]byte(name))
	}
	iw.u32(uint32(n))
	for _, l := range g.labels {
		iw.u32(uint32(l))
	}
	iw.u64(uint64(m))
	// A zero-value empty Graph has nil CSR arrays where the format wants
	// n+1 offsets; emit the single zero offset it stands for.
	starts64 := func(starts []int32) {
		if len(starts) == 0 {
			iw.u64(0)
			return
		}
		for _, s := range starts {
			iw.u64(uint64(s))
		}
	}
	starts64(g.outStart)
	for _, v := range g.outAdj {
		iw.u32(uint32(v))
	}
	starts64(g.inStart)
	for _, v := range g.inAdj {
		iw.u32(uint32(v))
	}
	for _, s := range aux.outStart {
		iw.u32(uint32(s))
	}
	for _, e := range aux.outHist {
		iw.u32(uint32(e.Label))
		iw.u32(uint32(e.Count))
	}
	for _, s := range aux.inStart {
		iw.u32(uint32(s))
	}
	for _, e := range aux.inHist {
		iw.u32(uint32(e.Label))
		iw.u32(uint32(e.Count))
	}
	iw.u32(iw.crc) // the argument is the payload CRC, captured before this write
	if iw.err != nil {
		return fmt.Errorf("graph: WriteImage: %w", iw.err)
	}
	if err := iw.w.Flush(); err != nil {
		return fmt.Errorf("graph: WriteImage: %w", err)
	}
	return nil
}

type imageReader struct {
	data []byte
	off  int
}

func (ir *imageReader) need(k int) error {
	if k < 0 || len(ir.data)-ir.off < k {
		return fmt.Errorf("graph: image truncated at offset %d (need %d bytes)", ir.off, k)
	}
	return nil
}

func (ir *imageReader) u32() (uint32, error) {
	if err := ir.need(4); err != nil {
		return 0, err
	}
	d := ir.data[ir.off:]
	ir.off += 4
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

func (ir *imageReader) u64() (uint64, error) {
	if err := ir.need(8); err != nil {
		return 0, err
	}
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(ir.data[ir.off+i]) << (8 * i)
	}
	ir.off += 8
	return x, nil
}

// count reads a u32 element count and pre-checks that `width` bytes per
// element actually remain, so corrupt counts are rejected before any
// allocation proportional to them.
func (ir *imageReader) count(width int, what string) (int, error) {
	c, err := ir.u32()
	if err != nil {
		return 0, err
	}
	if uint64(c) >= imageLimit {
		return 0, fmt.Errorf("graph: image: absurd %s count %d", what, c)
	}
	if err := ir.need(int(c) * width); err != nil {
		return 0, fmt.Errorf("graph: image: %s count %d exceeds payload", what, c)
	}
	return int(c), nil
}

// readStarts reads an n+1-long array of u64 offsets, checking it begins
// at 0, never decreases and ends at total (< imageLimit, so every offset
// fits the graph's int32 CSR).
func (ir *imageReader) readStarts(n, total int, what string) ([]int32, error) {
	if err := ir.need((n + 1) * 8); err != nil {
		return nil, err
	}
	starts := make([]int32, n+1)
	for i := range starts {
		x, _ := ir.u64()
		if x > uint64(total) {
			return nil, fmt.Errorf("graph: image: %s offset %d exceeds %d", what, x, total)
		}
		starts[i] = int32(x)
		if i > 0 && starts[i] < starts[i-1] {
			return nil, fmt.Errorf("graph: image: %s offsets decrease at %d", what, i)
		}
	}
	if starts[0] != 0 || int(starts[n]) != total {
		return nil, fmt.Errorf("graph: image: %s offsets span [%d,%d], want [0,%d]", what, starts[0], starts[n], total)
	}
	return starts, nil
}

// readAdj reads m adjacency entries, checking each segment is strictly
// ascending (the dedup/sortedness invariant binary searches rely on)
// and every id is in [0, n).
func (ir *imageReader) readAdj(starts []int32, m, n int, what string) ([]NodeID, error) {
	if err := ir.need(m * 4); err != nil {
		return nil, err
	}
	adj := make([]NodeID, m)
	for i := range adj {
		x, _ := ir.u32()
		if x >= uint32(n) {
			return nil, fmt.Errorf("graph: image: %s neighbor %d out of range [0,%d)", what, x, n)
		}
		adj[i] = NodeID(x)
	}
	for v := 0; v+1 < len(starts); v++ {
		seg := adj[starts[v]:starts[v+1]]
		for i := 1; i < len(seg); i++ {
			if seg[i] <= seg[i-1] {
				return nil, fmt.Errorf("graph: image: %s segment of node %d not strictly ascending", what, v)
			}
		}
	}
	return adj, nil
}

// readHist reads one Aux histogram side: an n+1 offset array plus
// (label, count) entries, label-sorted within each node's segment.
func (ir *imageReader) readHist(n, numLabels int, what string) ([]int32, []LabelCount, error) {
	if err := ir.need((n + 1) * 4); err != nil {
		return nil, nil, err
	}
	// Peek the final offset to size the entry array before reading.
	starts, err := ir.readStartsHistTotal(n, what)
	if err != nil {
		return nil, nil, err
	}
	total := starts[n]
	if err := ir.need(int(total) * 8); err != nil {
		return nil, nil, fmt.Errorf("graph: image: %s entry count %d exceeds payload", what, total)
	}
	hist := make([]LabelCount, total)
	for i := range hist {
		l, _ := ir.u32()
		c, err := ir.u32()
		if err != nil {
			return nil, nil, err
		}
		if l >= uint32(numLabels) {
			return nil, nil, fmt.Errorf("graph: image: %s label %d out of range [0,%d)", what, l, numLabels)
		}
		if c == 0 || c >= imageLimit {
			return nil, nil, fmt.Errorf("graph: image: %s count %d out of range", what, c)
		}
		hist[i] = LabelCount{Label: LabelID(l), Count: int32(c)}
	}
	for v := 0; v < n; v++ {
		seg := hist[starts[v]:starts[v+1]]
		for i := 1; i < len(seg); i++ {
			if seg[i].Label <= seg[i-1].Label {
				return nil, nil, fmt.Errorf("graph: image: %s segment of node %d not label-sorted", what, v)
			}
		}
	}
	return starts, hist, nil
}

// readStartsHistTotal reads an n+1 u32 offset array whose total is not
// known in advance (histogram entry counts are implied by the final
// offset), checking monotonicity and the int32 bound.
func (ir *imageReader) readStartsHistTotal(n int, what string) ([]int32, error) {
	starts := make([]int32, n+1)
	for i := range starts {
		x, err := ir.u32()
		if err != nil {
			return nil, err
		}
		if uint64(x) >= imageLimit {
			return nil, fmt.Errorf("graph: image: absurd %s offset %d", what, x)
		}
		starts[i] = int32(x)
		if i > 0 && starts[i] < starts[i-1] {
			return nil, fmt.Errorf("graph: image: %s offsets decrease at %d", what, i)
		}
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("graph: image: %s offsets start at %d, want 0", what, starts[0])
	}
	return starts, nil
}

// ReadImage decodes a base image produced by WriteImage, returning the
// graph and its Aux with all derived structures (label index, degree
// counts) rebuilt. It never panics on corrupt input: the trailing
// checksum rejects random damage, and every structural invariant is
// re-verified so even a forged checksum cannot smuggle in arrays that
// would crash an engine.
func ReadImage(data []byte) (*Graph, *Aux, error) {
	if len(data) < len(imageMagic)+8 {
		return nil, nil, fmt.Errorf("graph: image too short (%d bytes)", len(data))
	}
	if string(data[:4]) != imageMagic {
		return nil, nil, fmt.Errorf("graph: bad image magic %q", data[:4])
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	want := uint32(trailer[0]) | uint32(trailer[1])<<8 | uint32(trailer[2])<<16 | uint32(trailer[3])<<24
	if got := crc32.Checksum(payload, imageCRC); got != want {
		return nil, nil, fmt.Errorf("graph: image checksum mismatch (got %08x, want %08x)", got, want)
	}
	ir := &imageReader{data: payload, off: 4}
	version, _ := ir.u32()
	if version != imageVersion {
		return nil, nil, fmt.Errorf("graph: unsupported image version %d", version)
	}
	numLabels, err := ir.count(4, "label")
	if err != nil {
		return nil, nil, err
	}
	labelNames := make([]string, numLabels)
	labelIndex := make(map[string]LabelID, numLabels)
	for i := range labelNames {
		l, err := ir.u32()
		if err != nil {
			return nil, nil, err
		}
		if l > imageMaxLabel {
			return nil, nil, fmt.Errorf("graph: image: label %d length %d too long", i, l)
		}
		if err := ir.need(int(l)); err != nil {
			return nil, nil, err
		}
		name := string(ir.data[ir.off : ir.off+int(l)])
		ir.off += int(l)
		if _, dup := labelIndex[name]; dup {
			return nil, nil, fmt.Errorf("graph: image: duplicate label %q", name)
		}
		labelNames[i] = name
		labelIndex[name] = LabelID(i)
	}
	n, err := ir.count(4, "node")
	if err != nil {
		return nil, nil, err
	}
	labels := make([]LabelID, n)
	for v := range labels {
		l, _ := ir.u32()
		if l >= uint32(numLabels) {
			return nil, nil, fmt.Errorf("graph: image: node %d label %d out of range [0,%d)", v, l, numLabels)
		}
		labels[v] = LabelID(l)
	}
	m64, err := ir.u64()
	if err != nil {
		return nil, nil, err
	}
	if m64 >= imageLimit {
		return nil, nil, fmt.Errorf("graph: image: absurd edge count %d", m64)
	}
	m := int(m64)
	outStart, err := ir.readStarts(n, m, "out")
	if err != nil {
		return nil, nil, err
	}
	outAdj, err := ir.readAdj(outStart, m, n, "out")
	if err != nil {
		return nil, nil, err
	}
	inStart, err := ir.readStarts(n, m, "in")
	if err != nil {
		return nil, nil, err
	}
	inAdj, err := ir.readAdj(inStart, m, n, "in")
	if err != nil {
		return nil, nil, err
	}
	auxOutStart, auxOutHist, err := ir.readHist(n, numLabels, "out-hist")
	if err != nil {
		return nil, nil, err
	}
	auxInStart, auxInHist, err := ir.readHist(n, numLabels, "in-hist")
	if err != nil {
		return nil, nil, err
	}
	if ir.off != len(ir.data) {
		return nil, nil, fmt.Errorf("graph: image: %d trailing bytes", len(ir.data)-ir.off)
	}

	g := &Graph{
		labels:     labels,
		labelNames: labelNames,
		labelIndex: labelIndex,
		outStart:   outStart,
		outAdj:     outAdj,
		inStart:    inStart,
		inAdj:      inAdj,
	}
	// Rebuild the derived structures exactly as Builder.Build does: the
	// label index CSR by counting sort (segments ascend because nodes are
	// scanned in order), then max degree and per-degree counts.
	g.labelStart = make([]int32, numLabels+1)
	for _, l := range labels {
		g.labelStart[l+1]++
	}
	for l := 0; l < numLabels; l++ {
		g.labelStart[l+1] += g.labelStart[l]
	}
	g.labelNodes = make([]NodeID, n)
	lnext := make([]int32, numLabels)
	copy(lnext, g.labelStart[:numLabels])
	for v := 0; v < n; v++ {
		l := labels[v]
		g.labelNodes[lnext[l]] = NodeID(v)
		lnext[l]++
		if d := g.Degree(NodeID(v)); d > g.maxDegree {
			g.maxDegree = d
		}
	}
	g.degCount = make([]int32, g.maxDegree+1)
	for v := 0; v < n; v++ {
		g.degCount[g.Degree(NodeID(v))]++
	}

	aux := &Aux{
		g:          g,
		outStart:   auxOutStart,
		outHist:    auxOutHist,
		inStart:    auxInStart,
		inHist:     auxInHist,
		outByLabel: make([]NodeID, m),
		inByLabel:  make([]NodeID, m),
		mask:       make([]uint32, n),
		pools:      new(scratchPools),
	}
	// Derive the grouped lists and masks with BuildAux's own construction,
	// checking that each decoded histogram is the one it builds.
	bad := make([]bool, auxWorkers(n))
	forRanges(len(bad), n, func(w, lo, hi int) {
		hb := newHistBuilder(g)
		bad[w] = !hb.checkRange(lo, hi, aux.OutLabelHist, aux.outSink()) ||
			!hb.checkRange(lo, hi, aux.InLabelHist, aux.inSink())
	})
	for _, b := range bad {
		if b {
			return nil, nil, fmt.Errorf("graph: image: histograms disagree with the adjacency")
		}
	}
	aux.bindHists()
	return g, aux, nil
}
