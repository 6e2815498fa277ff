// Package graph provides the node-labeled directed graph substrate used by
// every component of the resource-bounded query answering system of
// Fan, Wang and Wu, "Querying Big Graphs within Bounded Resources"
// (SIGMOD 2014).
//
// A data graph G = (V, E, L) has a finite node set V, directed edges
// E ⊆ V×V and a label L(v) for every node. Graphs are immutable once built
// (see Builder); adjacency is stored in CSR form with both out- and
// in-neighbor lists so that the r-hop neighborhoods N_r(v) of the paper —
// which follow edges in either direction — can be enumerated cheaply.
//
// Every neighbor list is in adjacency order: grouped by the neighbor's
// label, blocks in ascending LabelID, ids ascending within a block. The
// blocks are what the offline histograms of Aux count (see Aux.OutBlock),
// so the reduction reads the neighbors of one label without a second,
// label-grouped copy of the graph.
//
// The paper measures |G| as the total number of nodes plus edges; Size
// implements exactly that convention, and every resource budget α|G| in the
// sibling packages is expressed in those units.
//
// # Hot-path representation and scratch pooling
//
// The per-query engines built on this package avoid Go maps and
// reflection-based sorts on their hot paths. The substrate provides the
// dense building blocks: Fragment tracks membership in a bitset over |V|,
// records its induced edges as it grows and is reusable via Reset
// (clearing costs O(|G_Q|), not O(|V|)); FragCSR — the matchers' one
// subgraph view — materializes any induced subgraph (a reduced fragment
// from its edge log, a label-closed d_Q-region via RegionInto, or a full
// ball via BallInto) as plain CSR arrays, so repeated materializations
// allocate nothing once warm; Aux carries one sync.Pool per engine
// (Aux.ScratchPool) from which query evaluations borrow their scratch;
// and the Graph itself pools traversal state (epoch-stamped visited
// markers, BFS queues, the region's label bitset), so Walk, Reachable and
// region and ball extraction are allocation-free in steady state too.
//
// Thread-safety contract: Graph and the histogram portion of Aux are
// immutable after construction and safe for unsynchronized concurrent
// reads. Fragment, FragCSR and every pooled scratch value are owned by a
// single goroutine from pool Get to pool Put; the pools themselves are
// safe for concurrent use, which is what lets batch workers run
// allocation-free in steady state without sharing mutable state.
package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// NodeID identifies a node of a Graph. IDs are dense: a graph with n nodes
// uses IDs 0..n-1.
type NodeID int32

// LabelID is an interned node label. Labels are interned per graph; use
// Graph.Label to recover the string form.
type LabelID int32

// NoNode is returned by lookups that fail to find a node.
const NoNode NodeID = -1

// NoLabel is returned by label lookups that fail.
const NoLabel LabelID = -1

// Graph is an immutable node-labeled directed graph in CSR layout.
//
// The zero value is an empty graph; use a Builder to construct non-empty
// graphs.
type Graph struct {
	labels []LabelID // labels[v] is the label of node v

	labelNames []string
	labelIndex map[string]LabelID

	// CSR offsets are int32: |E| < 2³¹, as every loader and Build
	// require.
	outStart []int32  // len = n+1; out-neighbors of v are outAdj[outStart[v]:outStart[v+1]]
	outAdj   []NodeID // each node's segment in adjacency order: by label, then id
	inStart  []int32
	inAdj    []NodeID

	// Nodes carrying each label, ascending, in CSR form indexed by LabelID
	// (labels are dense): labelStart has len NumLabels+1.
	labelStart []int32
	labelNodes []NodeID

	maxDegree int // cached at build time; see MaxDegree

	// degCount[d] is the number of nodes with Degree d, maintained so an
	// overlay view (see overlay.go) can keep MaxDegree exact under edge
	// deletions without an O(|V|) rescan.
	degCount []int32

	// ov is nil for base graphs; an overlay view layers sealed mutations
	// over the shared base arrays (see overlay.go). Every accessor that
	// consults it pays one nil check on the base path.
	ov *overlay

	// Traversal scratch pools (see visit.go). Pools are safe for
	// concurrent use and do not affect the graph's immutability contract.
	visitPool sync.Pool // *visited
	travPool  sync.Pool // *trav
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if g.ov != nil {
		return g.ov.nodes
	}
	return len(g.labels)
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return g.ov.edges
	}
	return len(g.outAdj)
}

// Size returns |G| = |V| + |E|, the unit in which the paper's resource
// ratio α is expressed.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// LabelOf returns the interned label of v. Node labels are immutable,
// so base nodes need no overlay check: only new overlay nodes (ids at
// or beyond the base node count) read the overlay's label list.
func (g *Graph) LabelOf(v NodeID) LabelID {
	if int(v) < len(g.labels) {
		return g.labels[v]
	}
	return g.ov.newLabels[int(v)-len(g.labels)]
}

// Label returns the string form of v's label.
func (g *Graph) Label(v NodeID) string { return g.labelNames[g.LabelOf(v)] }

// LabelName returns the string form of an interned label.
func (g *Graph) LabelName(l LabelID) string { return g.labelNames[l] }

// LabelIDOf returns the interned id for a label string, or NoLabel if the
// label does not occur in the graph.
func (g *Graph) LabelIDOf(name string) LabelID {
	if id, ok := g.labelIndex[name]; ok {
		return id
	}
	return NoLabel
}

// NumLabels returns the number of distinct labels in the graph.
func (g *Graph) NumLabels() int { return len(g.labelNames) }

// InternLabels resolves each name to the graph's interned id (NoLabel
// when absent), reusing buf's capacity. The query engines resolve a
// pattern's labels through this once per query, so their per-candidate
// guard and matcher probes compare int32 ids instead of hashing strings.
func (g *Graph) InternLabels(names []string, buf []LabelID) []LabelID {
	if cap(buf) < len(names) {
		buf = make([]LabelID, len(names))
	}
	buf = buf[:len(names)]
	for i, name := range names {
		buf[i] = g.LabelIDOf(name)
	}
	return buf
}

// NodesWithLabel returns all nodes labeled l, in ascending order. The
// returned slice is shared with the graph and must not be modified.
func (g *Graph) NodesWithLabel(l LabelID) []NodeID {
	if l < 0 || int(l) >= g.NumLabels() {
		return nil
	}
	if g.ov != nil {
		if patched := g.ov.labelNodes[l]; patched != nil {
			return patched
		}
		// Unpatched labels predate the overlay: the base index applies.
	}
	return g.labelNodes[g.labelStart[l]:g.labelStart[l+1]]
}

// Out returns the out-neighbors (children) of v in adjacency order —
// grouped by label, blocks in ascending LabelID, ids ascending within a
// block. The slice is shared with the graph and must not be modified.
func (g *Graph) Out(v NodeID) []NodeID {
	if g.ov == nil {
		return g.outAdj[g.outStart[v]:g.outStart[v+1]]
	}
	return g.outOverlay(v)
}

// outOverlay is the overlay-view slow path of Out, kept out of line so
// the base path stays inlinable.
func (g *Graph) outOverlay(v NodeID) []NodeID {
	if s := g.ov.slotOf(v); s >= 0 {
		return g.ov.out[s]
	}
	return g.outAdj[g.outStart[v]:g.outStart[v+1]]
}

// In returns the in-neighbors (parents) of v in adjacency order (see Out).
// The slice is shared with the graph and must not be modified.
func (g *Graph) In(v NodeID) []NodeID {
	if g.ov == nil {
		return g.inAdj[g.inStart[v]:g.inStart[v+1]]
	}
	return g.inOverlay(v)
}

func (g *Graph) inOverlay(v NodeID) []NodeID {
	if s := g.ov.slotOf(v); s >= 0 {
		return g.ov.in[s]
	}
	return g.inAdj[g.inStart[v]:g.inStart[v+1]]
}

// OutDegree returns the number of children of v.
func (g *Graph) OutDegree(v NodeID) int {
	if g.ov == nil {
		return int(g.outStart[v+1] - g.outStart[v])
	}
	return len(g.outOverlay(v))
}

// InDegree returns the number of parents of v.
func (g *Graph) InDegree(v NodeID) int {
	if g.ov == nil {
		return int(g.inStart[v+1] - g.inStart[v])
	}
	return len(g.inOverlay(v))
}

// Degree returns d(v) = |N(v)| counted with multiplicity, i.e. the number of
// incident edges (in plus out). A node with a reciprocal edge to the same
// neighbor counts it twice, matching the 1-neighborhood cardinality used by
// the paper's dynamic reduction.
func (g *Graph) Degree(v NodeID) int { return g.OutDegree(v) + g.InDegree(v) }

// adjBefore reports whether a precedes b in adjacency order.
func (g *Graph) adjBefore(a, b NodeID) bool {
	la, lb := g.LabelOf(a), g.LabelOf(b)
	return la < lb || la == lb && a < b
}

// adjHas reports whether w occurs in adj, a neighbor list of g in
// adjacency order, by binary search on the key (label, id).
func (g *Graph) adjHas(adj []NodeID, w NodeID) bool {
	lw := g.LabelOf(w)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x := adj[mid]; g.LabelOf(x) < lw || g.LabelOf(x) == lw && x < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == w
}

// HasEdge reports whether the edge (u, v) exists, by binary search over
// u's out-neighbor list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	return g.adjHas(g.Out(u), v)
}

// MaxDegree returns the maximum Degree over all nodes (the paper's d_G when
// taken over the whole graph), or 0 for an empty graph. It is computed once
// at build time and returned in O(1).
func (g *Graph) MaxDegree() int { return g.maxDegree }

// Resident is what a structure holds in memory: cap × element size summed
// over its arrays, split by what sizes each array — the node count
// (labels, offsets, masks, the label index and other per-node tables) or
// the edge count (neighbor lists, histograms). The label alphabet's
// strings and map are not counted.
type Resident struct{ NodeBytes, EdgeBytes int64 }

// bytesOf is the bytes s's backing array holds.
func bytesOf[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// ResidentBytes returns the bytes the graph's arrays hold. An overlay
// view counts the base arrays it shares, not what it holds per view: the
// merged lists of its touched nodes and the touched index (bitset and
// rank, |V|/8 + |V|/16 bytes).
func (g *Graph) ResidentBytes() Resident {
	return Resident{
		NodeBytes: bytesOf(g.labels) + bytesOf(g.outStart) + bytesOf(g.inStart) +
			bytesOf(g.labelStart) + bytesOf(g.labelNodes) + bytesOf(g.degCount),
		EdgeBytes: bytesOf(g.outAdj) + bytesOf(g.inAdj),
	}
}

// Validate checks internal consistency (CSR monotonicity, in/out symmetry,
// every list strictly in adjacency order, label tables). It is O(|G|) and
// intended for tests and data loaders. Overlay views are validated through the same accessor
// surface the engines use, so a broken merge cannot hide behind the base
// arrays.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if g.ov == nil {
		if len(g.outStart) != n+1 || len(g.inStart) != n+1 {
			return fmt.Errorf("graph: CSR offset arrays have wrong length")
		}
		if len(g.outAdj) != len(g.inAdj) {
			return fmt.Errorf("graph: out edge count %d != in edge count %d", len(g.outAdj), len(g.inAdj))
		}
	}
	var outCount, inCount int64
	for v := 0; v < n; v++ {
		if g.ov == nil && (g.outStart[v] > g.outStart[v+1] || g.inStart[v] > g.inStart[v+1]) {
			return fmt.Errorf("graph: non-monotone CSR offsets at node %d", v)
		}
		out := g.Out(NodeID(v))
		outCount += int64(len(out))
		for i, w := range out {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range", v, w)
			}
			if i > 0 && !g.adjBefore(out[i-1], w) {
				return fmt.Errorf("graph: out-adjacency of %d not strictly in (label, id) order", v)
			}
		}
		in := g.In(NodeID(v))
		inCount += int64(len(in))
		for i, w := range in {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: in-edge (%d,%d) out of range", w, v)
			}
			if i > 0 && !g.adjBefore(in[i-1], w) {
				return fmt.Errorf("graph: in-adjacency of %d not strictly in (label, id) order", v)
			}
			if !g.HasEdge(w, NodeID(v)) {
				return fmt.Errorf("graph: in-edge (%d,%d) missing from out lists", w, v)
			}
		}
		if int(g.LabelOf(NodeID(v))) < 0 || int(g.LabelOf(NodeID(v))) >= len(g.labelNames) {
			return fmt.Errorf("graph: node %d has out-of-range label %d", v, g.LabelOf(NodeID(v)))
		}
	}
	if outCount != int64(g.NumEdges()) {
		return fmt.Errorf("graph: out lists carry %d edges, NumEdges says %d", outCount, g.NumEdges())
	}
	if inCount != outCount {
		return fmt.Errorf("graph: in lists carry %d edges, out lists %d", inCount, outCount)
	}
	if g.ov == nil && len(g.labelStart) != g.NumLabels()+1 {
		return fmt.Errorf("graph: label index has %d offsets for %d labels", len(g.labelStart), g.NumLabels())
	}
	labelTotal := 0
	for l := 0; l < g.NumLabels(); l++ {
		nodes := g.NodesWithLabel(LabelID(l))
		labelTotal += len(nodes)
		for i, v := range nodes {
			if g.LabelOf(v) != LabelID(l) {
				return fmt.Errorf("graph: label index lists node %d under %d, actual %d", v, l, g.LabelOf(v))
			}
			if i > 0 && nodes[i-1] >= v {
				return fmt.Errorf("graph: label %d node list not strictly sorted at %d", l, v)
			}
		}
	}
	if labelTotal != n {
		return fmt.Errorf("graph: label index covers %d nodes, graph has %d", labelTotal, n)
	}
	return nil
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are coalesced; self-loops are kept (the paper's data
// graphs permit them). Builders are not safe for concurrent use.
//
// Edges are held in one of two shapes. While no AddEdge so far came from
// a source below the one before it, the out-CSR is written in place:
// outAdj holds the targets and outStart[v] the start of v's segment, for
// every v up to the last source seen. Build keeps that CSR when every
// segment is strictly in adjacency order, by label and then id — the
// order Out lists a graph's edges in, and so what the codecs, Save,
// graphgen and compaction emit. An edge from a lower source, or a
// segment out of that order at Build, moves everything into edges, which
// Build sorts and deduplicates.
type Builder struct {
	labels     []LabelID
	labelNames []string
	labelIndex map[string]LabelID

	outStart []int32
	outAdj   []NodeID
	edges    []edge
	unsorted bool
}

type edge struct{ from, to NodeID }

// NewBuilder returns a Builder with capacity hints for n nodes and m edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		labels:     make([]LabelID, 0, n),
		labelIndex: make(map[string]LabelID),
		outAdj:     make([]NodeID, 0, m),
	}
}

// push appends x, doubling a full slice. The loaders cap their capacity
// hints (a header must not size a buffer before its payload is read), so
// multi-million-edge inputs grow here, and append's 1.25× steps would
// copy each array four times over.
func push[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	return append(s, x)
}

// Intern returns the id of label, adding it to the alphabet if new.
func (b *Builder) Intern(label string) LabelID {
	id, ok := b.labelIndex[label]
	if !ok {
		id = LabelID(len(b.labelNames))
		b.labelNames = append(b.labelNames, label)
		b.labelIndex[label] = id
	}
	return id
}

// AddNode appends a node with the given label and returns its id.
func (b *Builder) AddNode(label string) NodeID { return b.AddLabeled(b.Intern(label)) }

// AddLabeled appends a node carrying a label Intern returned, and returns
// the node's id: AddNode without the per-node string hash. Like AddEdge
// it panics on an id the Builder never handed out.
func (b *Builder) AddLabeled(l LabelID) NodeID {
	if l < 0 || int(l) >= len(b.labelNames) {
		panic(fmt.Sprintf("graph: AddLabeled(%d) with %d labels", l, len(b.labelNames)))
	}
	v := NodeID(len(b.labels))
	b.labels = push(b.labels, l)
	return v
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// AddEdge records the directed edge (from, to). Both endpoints must already
// exist; AddEdge panics otherwise, since silent truncation would corrupt
// experiment workloads.
func (b *Builder) AddEdge(from, to NodeID) {
	if int(from) >= len(b.labels) || int(to) >= len(b.labels) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) with %d nodes", from, to, len(b.labels)))
	}
	if !b.unsorted {
		// last is the latest source seen. Its segment takes targets in any
		// order; Build checks it (see inOrder), in one pass whose label
		// reads overlap rather than stall the decoder feeding AddEdge.
		last := NodeID(len(b.outStart)) - 1
		if from >= last {
			if int(from) >= cap(b.outStart) {
				// One entry per node is all outStart can ever hold.
				b.outStart = slices.Grow(b.outStart, max(len(b.labels), 2*cap(b.outStart))-len(b.outStart))
			}
			for ; last < from; last++ {
				b.outStart = append(b.outStart, int32(len(b.outAdj)))
			}
			b.outAdj = push(b.outAdj, to)
			return
		}
		b.spill()
	}
	b.edges = append(b.edges, edge{from, to})
}

// inOrder reports whether every segment written in place is strictly in
// adjacency order.
func (b *Builder) inOrder() bool {
	for v, lo := range b.outStart {
		hi := int32(len(b.outAdj))
		if v+1 < len(b.outStart) {
			hi = b.outStart[v+1]
		}
		for i := lo + 1; i < hi; i++ {
			x, y := b.outAdj[i-1], b.outAdj[i]
			if lx, ly := b.labels[x], b.labels[y]; lx > ly || lx == ly && x >= y {
				return false
			}
		}
	}
	return true
}

// spill leaves the sorted shape: the CSR written so far becomes an edge
// list, to which out-of-order edges can be appended.
func (b *Builder) spill() {
	b.edges = make([]edge, 0, max(2*len(b.outAdj), cap(b.outAdj)))
	for v, lo := range b.outStart {
		hi := int32(len(b.outAdj))
		if v+1 < len(b.outStart) {
			hi = b.outStart[v+1]
		}
		for _, w := range b.outAdj[lo:hi] {
			b.edges = append(b.edges, edge{NodeID(v), w})
		}
	}
	b.outStart, b.outAdj, b.unsorted = nil, nil, true
}

// sortEdges sorts b.edges into (from, label(to), to) order by three
// stable counting passes — an LSD radix sort keyed on to, on to's label,
// then on from: O(|V| + |E|), no comparator and no reflection, which keeps
// Build linear on multi-million-edge graphs.
func (b *Builder) sortEdges(n int) {
	if len(b.edges) < 2 {
		return
	}
	tmp := make([]edge, len(b.edges))
	// int64 counters: the edge list may still hold duplicates, so its
	// cumulative counts may exceed the int32 the deduplicated CSR fits.
	count := make([]int64, max(n, len(b.labelNames))+1)
	countingPass(tmp, b.edges, count[:n+1], func(e edge) int32 { return int32(e.to) })
	countingPass(b.edges, tmp, count[:len(b.labelNames)+1], func(e edge) int32 { return int32(b.labels[e.to]) })
	countingPass(tmp, b.edges, count[:n+1], func(e edge) int32 { return int32(e.from) })
	b.edges = tmp
}

// countingPass writes src to dst stably sorted by key, whose values lie in
// [0, len(count)-1).
func countingPass(dst, src []edge, count []int64, key func(edge) int32) {
	clear(count)
	for _, e := range src {
		count[key(e)+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for _, e := range src {
		k := key(e)
		dst[count[k]] = e
		count[k]++
	}
}

// outCSR returns the out-adjacency of the n nodes as fresh CSR arrays:
// a copy of what AddEdge wrote in place for input in adjacency order, and
// the sorted, deduplicated edge list otherwise.
func (b *Builder) outCSR(n int) (outStart []int32, outAdj []NodeID) {
	outStart = make([]int32, n+1)
	if !b.unsorted && !b.inOrder() {
		b.spill()
	}
	if !b.unsorted {
		// Sources past the last one seen have empty segments.
		k := copy(outStart, b.outStart)
		for i := k; i <= n; i++ {
			outStart[i] = int32(len(b.outAdj))
		}
		return outStart, slices.Clone(b.outAdj)
	}
	b.sortEdges(n)
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	b.edges = dedup
	outAdj = make([]NodeID, len(b.edges))
	for i, e := range b.edges {
		outStart[e.from+1]++
		outAdj[i] = e.to
	}
	for v := 0; v < n; v++ {
		outStart[v+1] += outStart[v]
	}
	return outStart, outAdj
}

// Build produces the immutable Graph. The Builder may be reused afterwards,
// but further mutation does not affect the built graph.
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	outStart, outAdj := b.outCSR(n)
	m := len(outAdj)
	if m > math.MaxInt32 {
		panic(fmt.Sprintf("graph: Build of %d edges; the CSR holds at most %d", m, math.MaxInt32))
	}

	g := &Graph{
		labels:     append([]LabelID(nil), b.labels...),
		labelNames: append([]string(nil), b.labelNames...),
		labelIndex: maps.Clone(b.labelIndex),
		outStart:   outStart,
		outAdj:     outAdj,
		inAdj:      make([]NodeID, m),
	}

	// Label index CSR via counting sort on the (dense) label ids; segments
	// come out ascending because nodes are scanned in ascending order.
	nl := len(g.labelNames)
	g.labelStart = make([]int32, nl+1)
	for _, l := range g.labels {
		g.labelStart[l+1]++
	}
	for l := 0; l < nl; l++ {
		g.labelStart[l+1] += g.labelStart[l]
	}
	g.labelNodes = make([]NodeID, n)
	lnext := make([]int32, nl)
	copy(lnext, g.labelStart[:nl])
	for v, l := range g.labels {
		g.labelNodes[lnext[l]] = NodeID(v)
		lnext[l]++
	}

	// In CSR via counting sort on the target, with the counts kept one
	// slot to the right of where the offsets end up: after the prefix sum
	// inStart[w+1] is where w's segment starts, the scatter advances it to
	// where the segment ends — the start of w+1's — and the array is in its
	// final form with no separate cursor array. Sources are scanned in the
	// label index's order, by label and then id, so each in-segment comes
	// out in adjacency order.
	inStart := make([]int32, n+2)
	for _, w := range outAdj {
		inStart[w+2]++
	}
	for v := 0; v < n; v++ {
		inStart[v+2] += inStart[v+1]
	}
	for _, v := range g.labelNodes {
		for _, w := range outAdj[outStart[v]:outStart[v+1]] {
			g.inAdj[inStart[w+1]] = v
			inStart[w+1]++
		}
	}
	g.inStart = inStart[:n+1]

	// Per-degree node counts, so overlay views can keep MaxDegree exact
	// under deletions (see overlay.go) without rescanning the graph.
	for v := 0; v < n; v++ {
		g.maxDegree = max(g.maxDegree, g.Degree(NodeID(v)))
	}
	g.degCount = make([]int32, g.maxDegree+1)
	for v := 0; v < n; v++ {
		g.degCount[g.Degree(NodeID(v))]++
	}
	return g
}

// FromEdges is a convenience constructor: labels[i] names node i, and each
// pair in edges is a directed edge. It panics on out-of-range endpoints.
func FromEdges(labels []string, edges [][2]int) *Graph {
	b := NewBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddNode(l)
	}
	for _, e := range edges {
		b.AddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	return b.Build()
}
