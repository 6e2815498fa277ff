package graph

// Compaction: materializing an overlay view as a standalone base CSR.
//
// The overlay already holds the merged adjacency of every touched node
// and the patched label → node lists, so the new base is spliced: the
// untouched runs of the base arrays are bulk-copied around them, with
// no per-edge re-sort and no histogram reconstruction. Cost is
// O(|delta| + Σ degree of touched nodes) plus the flat array copies,
// and it stays below a from-scratch Builder rebuild however much of the
// graph the delta touches. The tests pin the splice, array for array,
// to that rebuild (compactFull, in the test files).
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

// TouchedNodes returns the number of nodes the overlay touches (changed
// base nodes plus new nodes), or 0 for a base graph: the slots a
// compaction materializes.
func (g *Graph) TouchedNodes() int {
	if g.ov == nil {
		return 0
	}
	return len(g.ov.out)
}

// Compact materializes the graph as a standalone base CSR by splicing
// the overlay onto the base arrays: the merged view of an overlay
// graph, or a defensive identity for a base graph (returned as-is —
// base graphs are immutable). The result has the adjacency, label
// tables, label index and degree structure a from-scratch build of the
// merged graph has, array for array.
func (g *Graph) Compact() *Graph {
	ov := g.ov
	if ov == nil {
		return g
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
	return ng
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
// in Compact, and the Aux by splicing the base histogram arenas around
// the per-touched-node histograms the patched view already computed at
// seal time — so no BuildAux pass runs at all. The presence masks
// splice the same way. aux must be the PatchedFor view of view's
// overlay (the pair a Snapshot carries); any other pairing is a
// programming error and panics.
func CompactIncremental(view *Graph, aux *Aux) (*Graph, *Aux) {
	ov := view.ov
	if ov == nil || aux == nil || aux.ov == nil || aux.ov.ov != ov {
		panic("graph: CompactIncremental needs an overlay view and the Aux patched for it")
	}
	ng := view.Compact()
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
	return ng, na
}
