package graph

// Compaction: materializing an overlay view as a standalone base CSR.
//
// Two strategies, chosen by the size of the touched set:
//
//   - Splice (the default for bounded deltas): the overlay already holds
//     the merged adjacency of every touched node and the patched label →
//     node lists, so the new base is assembled by bulk-copying the
//     untouched runs of the base arrays around them — memmove-speed
//     work, no per-edge re-sort, no histogram reconstruction. Cost is
//     O(|delta| + Σ degree of touched nodes) plus the flat array copies;
//     on the bench fixture that is ~100× cheaper than a full rebuild.
//   - Full rebuild (the fallback): re-add every node and edge through a
//     Builder. It is O(|V|+|E|) with sorting, but it is the strategy of
//     last resort the splice must stay bit-for-bit equal to — the
//     property tests and FuzzSpliceCompact pin the two to each other.
//
// Splice invariants (why the bulk copies are sound):
//
//   - The overlay's touched list is sorted and its per-slot adjacency is
//     merged in adjacency order, exactly as a from-scratch build would
//     produce;
//     base segments between touched nodes are already final.
//   - New node ids exceed every base id, so their CSR segments append
//     after the base runs and patched label lists stay sorted.
//   - Node labels are immutable and nodes are never deleted: only labels
//     that gained new nodes differ from the base label index, and the
//     overlay records exactly those as non-nil patched lists.
//   - The overlay maintains degCount/maxDegree incrementally, so the new
//     base inherits them without a rescan.
//
// The fallback threshold is a *fraction of the view's node count*: when
// the touched set (touched base nodes + new nodes) exceeds it, the
// splice's per-run bookkeeping approaches the rebuild's linear work
// while pinning two copies of the arrays, so the Builder path wins.

// DefaultCompactSpliceFraction is the default ceiling on the touched
// fraction of |V| up to which Compact splices instead of rebuilding;
// see Graph.CompactWith.
const DefaultCompactSpliceFraction = 0.25

// CompactStats reports how a compaction ran.
type CompactStats struct {
	// Incremental is set when the base was spliced from the overlay
	// rather than rebuilt through a Builder.
	Incremental bool
	// TouchedNodes is the number of overlay slots materialized: touched
	// base nodes plus new nodes. Zero when the graph had no overlay.
	TouchedNodes int
}

// TouchedNodes returns the number of nodes the overlay touches (changed
// base nodes plus new nodes), or 0 for a base graph. This is the size
// the splice-vs-rebuild decision is made on.
func (g *Graph) TouchedNodes() int {
	if g.ov == nil {
		return 0
	}
	return len(g.ov.out)
}

// Compact materializes the graph as a standalone base CSR: the merged
// view of an overlay graph, or a defensive identity for a base graph
// (returned as-is — base graphs are immutable). This is the rebuild the
// delta layer's threshold compaction runs off the request path before
// swapping the result in as the new base. Equivalent to CompactWith
// with DefaultCompactSpliceFraction.
func (g *Graph) Compact() *Graph {
	return g.CompactWith(DefaultCompactSpliceFraction)
}

// CompactWith is Compact with an explicit splice ceiling: the overlay is
// spliced onto the base arrays when the touched node set is at most
// spliceFrac × |V|, and rebuilt from scratch otherwise. spliceFrac 0
// forces the full rebuild; 1 always splices (the touched set never
// exceeds |V|). Both strategies produce equivalent graphs — same
// adjacency, label tables, label index and degree structure.
func (g *Graph) CompactWith(spliceFrac float64) *Graph {
	if g.ov == nil {
		return g
	}
	if ng, ok := g.spliceCompact(spliceFrac); ok {
		return ng
	}
	return g.compactFull()
}

// compactFull is the Builder-based O(|V|+|E|) rebuild. The Builder is
// seeded with the view's label table in order, so every label keeps its
// id — including labels no node carries — exactly as the splice keeps
// the table: label ids only ever grow by appending within a lineage.
func (g *Graph) compactFull() *Graph {
	b := NewBuilder(g.NumNodes(), g.NumEdges())
	for _, name := range g.labelNames {
		b.Intern(name)
	}
	for v := 0; v < g.NumNodes(); v++ {
		b.AddLabeled(g.LabelOf(NodeID(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(NodeID(v)) {
			b.AddEdge(NodeID(v), w)
		}
	}
	return b.Build()
}

// spliceCompact assembles the merged view as a standalone base by
// splicing the overlay's per-slot adjacency into bulk copies of the
// untouched base runs. Returns ok=false when the touched set exceeds
// spliceFrac × |V| (the caller falls back to compactFull).
func (g *Graph) spliceCompact(spliceFrac float64) (*Graph, bool) {
	ov := g.ov
	if spliceFrac <= 0 || float64(len(ov.out)) > spliceFrac*float64(ov.nodes) {
		return nil, false
	}
	n := ov.nodes

	// Base arrays are immutable, so without new nodes the labels and the
	// label index are the base's, shared rather than copied.
	labels := g.labels
	if n > ov.baseN {
		labels = make([]LabelID, n)
		copy(labels, g.labels)
		copy(labels[ov.baseN:], ov.newLabels)
	}

	ng := &Graph{
		labels: labels,
		// The view's label tables are immutable (WithOverlay copied the
		// base tables if the alphabet grew) and shared, exactly as the
		// view itself shares them.
		labelNames: g.labelNames,
		labelIndex: g.labelIndex,
		maxDegree:  ov.maxDegree,
		// The view's degCount is exact (maintained per-op by WithOverlay)
		// but may carry trailing zeros after deletions; trim to the
		// canonical maxDegree+1 length a from-scratch build produces.
		degCount: g.degCount[:ov.maxDegree+1],
	}
	ng.outStart, ng.inStart = make([]int32, n+1), make([]int32, n+1)
	ng.outAdj = splice(g.outStart, g.outAdj, ov, ov.out, ng.outStart)
	ng.inAdj = splice(g.inStart, g.inAdj, ov, ov.in, ng.inStart)
	ng.labelStart, ng.labelNodes = g.labelStart, g.labelNodes
	if n > ov.baseN {
		ng.labelStart, ng.labelNodes = g.spliceLabelIndex(ov, n)
	}
	return ng, true
}

// splice builds one array of the merged view — a direction's adjacency,
// or of the Aux its histograms — and writes its offsets to starts:
// untouched base runs are bulk-copied with their offsets shifted by a
// per-run constant, touched slots take the overlay's per-slot segments,
// and new nodes append at the end.
func splice[T any](baseStart []int32, base []T, ov *overlay, slots [][]T, starts []int32) []T {
	size := int(baseStart[ov.baseN])
	for i, s := range slots {
		size += len(s)
		if i < len(ov.touched) {
			v := ov.touched[i]
			size -= int(baseStart[v+1] - baseStart[v])
		}
	}
	out := make([]T, 0, size)
	next := NodeID(0)
	for i, v := range ov.touched {
		lo := baseStart[next]
		shift := int32(len(out)) - lo
		for u := next; u < v; u++ {
			starts[u] = baseStart[u] + shift
		}
		out = append(out, base[lo:baseStart[v]]...)
		starts[v] = int32(len(out))
		out = append(out, slots[i]...)
		next = v + 1
	}
	lo := baseStart[next]
	shift := int32(len(out)) - lo
	for u := int(next); u < ov.baseN; u++ {
		starts[u] = baseStart[u] + shift
	}
	out = append(out, base[lo:baseStart[ov.baseN]]...)
	for s := len(ov.touched); s < len(slots); s++ {
		starts[ov.baseN+s-len(ov.touched)] = int32(len(out))
		out = append(out, slots[s]...)
	}
	starts[len(starts)-1] = int32(len(out))
	return out
}

// spliceLabelIndex builds the merged view's label → node CSR. Only
// labels the overlay patched (those that gained new nodes) differ from
// the base; everything else is a bulk copy of the base segment.
func (g *Graph) spliceLabelIndex(ov *overlay, n int) ([]int32, []NodeID) {
	nl := len(g.labelNames) // the view's (possibly extended) alphabet
	baseNL := len(g.labelStart) - 1
	starts := make([]int32, nl+1)
	nodes := make([]NodeID, 0, n)
	for l := 0; l < nl; l++ {
		starts[l] = int32(len(nodes))
		if patched := ov.labelNodes[l]; patched != nil {
			nodes = append(nodes, patched...)
		} else if l < baseNL {
			nodes = append(nodes, g.labelNodes[g.labelStart[l]:g.labelStart[l+1]]...)
		}
		// A label beyond the base alphabet with no patched list cannot
		// occur: new labels only arise through new nodes, which patch.
	}
	starts[nl] = int32(len(nodes))
	return starts, nodes
}

// CompactIncremental splices the overlay view and its patched Aux into
// a standalone base Graph and base Aux in one pass: the graph arrays as
// in CompactWith, and the Aux by splicing the base histogram arenas
// around the per-touched-node histograms the patched view already
// computed at seal time — so no BuildAux pass runs at all. The presence
// masks splice the same way. aux must be the PatchedFor view of view's
// overlay (the pair a Snapshot carries).
//
// Returns ok=false — and touches nothing — when the pair does not match
// or the touched set exceeds spliceFrac × |V|; callers then fall back
// to CompactWith(0) + BuildAux.
func CompactIncremental(view *Graph, aux *Aux, spliceFrac float64) (*Graph, *Aux, CompactStats, bool) {
	ov := view.ov
	if ov == nil || aux == nil || aux.ov == nil || aux.ov.ov != ov {
		return nil, nil, CompactStats{}, false
	}
	ng, ok := view.spliceCompact(spliceFrac)
	if !ok {
		return nil, nil, CompactStats{}, false
	}
	n := ng.NumNodes()
	na := &Aux{
		g:        ng,
		outStart: make([]int32, n+1),
		inStart:  make([]int32, n+1),
		pools:    aux.pools, // the spliced base continues the lineage
	}
	// A touched node's histogram was computed by PatchedFor with the same
	// histBuilder BuildAux uses, against the merged view — identical to
	// what a fresh BuildAux over the spliced base would produce, because
	// an untouched node's adjacency and every node's label are unchanged.
	na.outHist = splice(aux.outStart, aux.outHist, ov, aux.ov.outHist, na.outStart)
	na.inHist = splice(aux.inStart, aux.inHist, ov, aux.ov.inHist, na.inStart)
	na.mask = make([]uint32, n)
	copy(na.mask, aux.mask)
	for i, v := range ov.touched {
		na.mask[v] = aux.ov.mask[i]
	}
	copy(na.mask[ov.baseN:], aux.ov.mask[len(ov.touched):])
	na.bindHists()
	return ng, na, CompactStats{Incremental: true, TouchedNodes: len(ov.out)}, true
}
