package graph

import (
	"fmt"
	"math"
	"slices"
)

// This file is the graph half of the mutation subsystem (see
// internal/delta for the buffering/snapshot layer above it): a Graph can
// carry an *overlay* — a sealed set of node adds, edge adds and edge
// deletes — on top of an immutable base CSR. The overlay view is itself
// a *Graph, so every engine, traversal and index in the system runs on
// it unchanged; the accessors consult the overlay only for *touched*
// nodes (endpoints of changed edges, plus all new nodes), so untouched
// nodes stay on the plain base-CSR fast path and a graph with no overlay
// pays exactly one nil check per accessor.
//
// Design invariants:
//
//   - The base graph is never mutated: an overlay view shares the base's
//     CSR arrays and label tables and layers per-touched-node merged
//     adjacency slices (sorted ascending, exactly as a from-scratch
//     build would produce) on top. Sealing is O(delta), not O(|G|).
//   - Node labels are immutable and nodes are never deleted, so label →
//     node lists only ever grow (new nodes appended; their ids exceed
//     every base id, keeping the lists sorted), and LabelOf needs no
//     overlay check for base nodes at all.
//   - MaxDegree stays *exact* under deletions via a per-degree node
//     count maintained at build time: the reduce engine derives its
//     visit budget from d_G, so an overlay view must report the same
//     value a from-scratch rebuild would (the snapshot-equivalence
//     property test pins this down).
//   - Compact materializes the merged view as a standalone base Graph —
//     the swap target of the delta layer's threshold compaction.
type overlay struct {
	baseN int // base |V|
	nodes int // view |V|
	edges int // view |E|

	// newLabels[i] is the interned label of new node baseN+i.
	newLabels []LabelID

	// touched is the sorted set of base nodes whose adjacency changed.
	// Slot i of out/in belongs to touched[i] for i < len(touched) and to
	// new node baseN+(i-len(touched)) beyond that. Slices for the
	// unchanged direction of a touched node alias the base CSR (zero
	// copy); changed directions are freshly merged, sorted ascending.
	touched []NodeID
	out, in [][]NodeID

	// labelNodes[l] is the patched ascending node list of label l, nil
	// for labels whose membership did not change. Indexed by the view's
	// (possibly extended) label alphabet.
	labelNodes [][]NodeID

	maxDegree int
}

// slotOf returns v's overlay slot, or -1 when v is an untouched base
// node. New nodes (v >= baseN) always have a slot.
func (ov *overlay) slotOf(v NodeID) int {
	if int(v) >= ov.baseN {
		return len(ov.touched) + int(v) - ov.baseN
	}
	// Binary search over the sorted touched set; the list is small (the
	// delta layer compacts well before it approaches |V|).
	lo, hi := 0, len(ov.touched)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ov.touched[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ov.touched) && ov.touched[lo] == v {
		return lo
	}
	return -1
}

// OverlayDelta is a sealed, normalized mutation set for WithOverlay:
// labels for new nodes (ids base.NumNodes()..+len-1), net-new edges and
// deleted base edges. The three sets must be internally consistent —
// AddEdges disjoint from the base edge set, DelEdges a subset of it,
// no duplicates, endpoints in range — which WithOverlay verifies.
type OverlayDelta struct {
	NewNodeLabels []string
	AddEdges      [][2]NodeID
	DelEdges      [][2]NodeID
}

// Empty reports whether the delta holds no changes.
func (d *OverlayDelta) Empty() bool {
	return len(d.NewNodeLabels) == 0 && len(d.AddEdges) == 0 && len(d.DelEdges) == 0
}

// Ops returns the number of individual changes the delta carries.
func (d *OverlayDelta) Ops() int {
	return len(d.NewNodeLabels) + len(d.AddEdges) + len(d.DelEdges)
}

// HasOverlay reports whether g is an overlay view rather than a base
// CSR.
func (g *Graph) HasOverlay() bool { return g.ov != nil }

// BaseNumNodes returns the node count of the base CSR under an overlay
// view (equal to NumNodes for base graphs).
func (g *Graph) BaseNumNodes() int { return len(g.labels) }

// sortEdgePairs sorts edge pairs by (from, to); delta lists are bounded
// by the compaction threshold, so a comparison sort is fine here (unlike
// Builder's radix path).
func sortEdgePairs(es [][2]NodeID) {
	slices.SortFunc(es, func(a, b [2]NodeID) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
}

// sortEdgePairsByTo sorts edge pairs by (to, from), for grouping the
// in-direction changes.
func sortEdgePairsByTo(es [][2]NodeID) {
	slices.SortFunc(es, func(a, b [2]NodeID) int {
		if a[1] != b[1] {
			return int(a[1]) - int(b[1])
		}
		return int(a[0]) - int(b[0])
	})
}

// WithOverlay seals d over the base graph g and returns the overlay
// view. g must itself be a base graph (overlays never stack: the delta
// layer re-seals its cumulative delta against the base every time). The
// delta is validated — out-of-range endpoints, duplicate edges, adds
// already present, deletes not present — and rejected atomically.
//
// The returned Graph shares g's CSR arrays (and label tables when the
// alphabet did not grow); it carries fresh traversal pools, so it is
// safe for the same unsynchronized concurrent reads as any Graph.
func (g *Graph) WithOverlay(d OverlayDelta) (*Graph, error) {
	if g.ov != nil {
		return nil, fmt.Errorf("graph: WithOverlay on an overlay view (seal against the base)")
	}
	baseN := g.NumNodes()
	n := baseN + len(d.NewNodeLabels)

	// Validate endpoints and edge-set consistency. The adds and deletes
	// are checked against the *base* edge set: adds must be net-new,
	// deletes must exist.
	addEdges := append([][2]NodeID(nil), d.AddEdges...)
	delEdges := append([][2]NodeID(nil), d.DelEdges...)
	sortEdgePairs(addEdges)
	sortEdgePairs(delEdges)
	for i, e := range addEdges {
		if int(e[0]) < 0 || int(e[0]) >= n || int(e[1]) < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: added edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
		if i > 0 && e == addEdges[i-1] {
			return nil, fmt.Errorf("graph: duplicate added edge (%d,%d)", e[0], e[1])
		}
		if int(e[0]) < baseN && int(e[1]) < baseN && g.HasEdge(e[0], e[1]) {
			return nil, fmt.Errorf("graph: added edge (%d,%d) already in base", e[0], e[1])
		}
	}
	for i, e := range delEdges {
		if int(e[0]) < 0 || int(e[0]) >= baseN || int(e[1]) < 0 || int(e[1]) >= baseN {
			return nil, fmt.Errorf("graph: deleted edge (%d,%d) not a base edge", e[0], e[1])
		}
		if i > 0 && e == delEdges[i-1] {
			return nil, fmt.Errorf("graph: duplicate deleted edge (%d,%d)", e[0], e[1])
		}
		if !g.HasEdge(e[0], e[1]) {
			return nil, fmt.Errorf("graph: deleted edge (%d,%d) not in base", e[0], e[1])
		}
	}
	if g.NumEdges()+len(d.AddEdges)-len(d.DelEdges) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: overlay would take the graph past %d edges", math.MaxInt32)
	}

	// Intern new-node labels, extending the alphabet when needed. The
	// base tables are shared unless a genuinely new label appears.
	labelNames, labelIndex := g.labelNames, g.labelIndex
	extended := false
	newLabels := make([]LabelID, len(d.NewNodeLabels))
	for i, name := range d.NewNodeLabels {
		id, ok := labelIndex[name]
		if !ok {
			if !extended {
				labelNames = append(make([]string, 0, len(labelNames)+1), labelNames...)
				labelIndex = make(map[string]LabelID, len(g.labelIndex)+1)
				for k, v := range g.labelIndex {
					labelIndex[k] = v
				}
				extended = true
			}
			id = LabelID(len(labelNames))
			labelNames = append(labelNames, name)
			labelIndex[name] = id
		}
		newLabels[i] = id
	}

	ov := &overlay{
		baseN:     baseN,
		nodes:     n,
		edges:     g.NumEdges() + len(addEdges) - len(delEdges),
		newLabels: newLabels,
	}

	// Touched base nodes: every base endpoint of a changed edge.
	seen := make(map[NodeID]struct{}, 2*(len(addEdges)+len(delEdges)))
	for _, e := range addEdges {
		for _, v := range e {
			if int(v) < baseN {
				seen[v] = struct{}{}
			}
		}
	}
	for _, e := range delEdges {
		for _, v := range e {
			seen[v] = struct{}{}
		}
	}
	ov.touched = make([]NodeID, 0, len(seen))
	for v := range seen {
		ov.touched = append(ov.touched, v)
	}
	slices.Sort(ov.touched)

	// Group the edge changes per endpoint. outAdd[v]/outDel[v] hold the
	// targets of changed out-edges of v sorted ascending (edge pairs are
	// (from,to)-sorted, so per-from segments come out sorted); inAdd/
	// inDel are the mirror, built from a (to,from)-sorted copy.
	outAdd := groupByFrom(addEdges)
	outDel := groupByFrom(delEdges)
	byTo := append([][2]NodeID(nil), addEdges...)
	sortEdgePairsByTo(byTo)
	inAdd := groupByTo(byTo)
	byTo = append(byTo[:0], delEdges...)
	sortEdgePairsByTo(byTo)
	inDel := groupByTo(byTo)

	// Merge adjacency for every slot. Untouched directions alias the
	// base CSR slice.
	slots := len(ov.touched) + len(newLabels)
	ov.out = make([][]NodeID, slots)
	ov.in = make([][]NodeID, slots)
	degCount := append([]int32(nil), g.degCount...)
	bump := func(deg int, by int32) []int32 {
		for deg >= len(degCount) {
			degCount = append(degCount, 0)
		}
		degCount[deg] += by
		return degCount
	}
	for i, v := range ov.touched {
		oldDeg := g.Degree(v)
		if a, del := outAdd[v], outDel[v]; len(a) == 0 && len(del) == 0 {
			ov.out[i] = g.Out(v)
		} else {
			ov.out[i] = mergeAdj(g.Out(v), a, del)
		}
		if a, del := inAdd[v], inDel[v]; len(a) == 0 && len(del) == 0 {
			ov.in[i] = g.In(v)
		} else {
			ov.in[i] = mergeAdj(g.In(v), a, del)
		}
		degCount = bump(oldDeg, -1)
		degCount = bump(len(ov.out[i])+len(ov.in[i]), 1)
	}
	for i := 0; i < len(newLabels); i++ {
		v := NodeID(baseN + i)
		s := len(ov.touched) + i
		ov.out[s] = outAdd[v] // already sorted, possibly nil
		ov.in[s] = inAdd[v]
		degCount = bump(len(ov.out[s])+len(ov.in[s]), 1)
	}
	ov.maxDegree = len(degCount) - 1
	for ov.maxDegree > 0 && degCount[ov.maxDegree] == 0 {
		ov.maxDegree--
	}
	if ov.maxDegree < 0 {
		ov.maxDegree = 0
	}

	// Patch label → node lists for labels that gained new nodes. New ids
	// exceed every base id, so appending keeps the lists sorted.
	ov.labelNodes = make([][]NodeID, len(labelNames))
	for i, l := range newLabels {
		if ov.labelNodes[l] == nil {
			base := g.NodesWithLabel(l)
			ov.labelNodes[l] = append(make([]NodeID, 0, len(base)+1), base...)
		}
		ov.labelNodes[l] = append(ov.labelNodes[l], NodeID(baseN+i))
	}

	// The view shares the base arrays; its traversal pools start fresh
	// (sync.Pool must not be copied), and the view's own degCount enables
	// stacking a future Compact without a rescan.
	ng := &Graph{
		labels:     g.labels,
		labelNames: labelNames,
		labelIndex: labelIndex,
		outStart:   g.outStart,
		outAdj:     g.outAdj,
		inStart:    g.inStart,
		inAdj:      g.inAdj,
		labelStart: g.labelStart,
		labelNodes: g.labelNodes,
		maxDegree:  ov.maxDegree,
		degCount:   degCount,
		ov:         ov,
	}
	return ng, nil
}

// mergeAdj returns base + adds - dels, ascending. adds and dels are
// sorted, disjoint, and consistent with base (adds not present, dels
// present).
func mergeAdj(base, adds, dels []NodeID) []NodeID {
	out := make([]NodeID, 0, len(base)+len(adds)-len(dels))
	ai, di := 0, 0
	for _, w := range base {
		if di < len(dels) && dels[di] == w {
			di++
			continue
		}
		for ai < len(adds) && adds[ai] < w {
			out = append(out, adds[ai])
			ai++
		}
		out = append(out, w)
	}
	out = append(out, adds[ai:]...)
	return out
}

// groupByFrom slices (from,to)-sorted edge pairs into per-from target
// lists (sorted ascending, inheriting the pair order).
func groupByFrom(es [][2]NodeID) map[NodeID][]NodeID {
	m := make(map[NodeID][]NodeID)
	for lo := 0; lo < len(es); {
		hi := lo
		for hi < len(es) && es[hi][0] == es[lo][0] {
			hi++
		}
		targets := make([]NodeID, 0, hi-lo)
		for _, e := range es[lo:hi] {
			targets = append(targets, e[1])
		}
		m[es[lo][0]] = targets
		lo = hi
	}
	return m
}

// groupByTo groups (to,from)-sorted pairs by to (sources = from).
func groupByTo(es [][2]NodeID) map[NodeID][]NodeID {
	m := make(map[NodeID][]NodeID)
	for lo := 0; lo < len(es); {
		hi := lo
		for hi < len(es) && es[hi][1] == es[lo][1] {
			hi++
		}
		sources := make([]NodeID, 0, hi-lo)
		for _, e := range es[lo:hi] {
			sources = append(sources, e[0])
		}
		m[es[lo][1]] = sources
		lo = hi
	}
	return m
}

// --- patched Aux views -------------------------------------------------

// auxOverlay carries the per-touched-node overrides of a patched Aux:
// label histograms, label-grouped lists and presence masks. Slots align
// with the graph overlay's: touched base nodes first, new nodes after.
type auxOverlay struct {
	ov                    *overlay
	outHist, inHist       [][]LabelCount
	outByLabel, inByLabel [][]NodeID
	mask                  []uint32
}

// outOf / inOf are the patched-Aux slow paths of OutLabelHist /
// InLabelHist, kept out of line so the base accessors stay inlinable.
func (p *auxOverlay) outOf(a *Aux, v NodeID) []LabelCount {
	if s := p.ov.slotOf(v); s >= 0 {
		return p.outHist[s]
	}
	return a.outHist[a.outStart[v]:a.outStart[v+1]]
}

func (p *auxOverlay) inOf(a *Aux, v NodeID) []LabelCount {
	if s := p.ov.slotOf(v); s >= 0 {
		return p.inHist[s]
	}
	return a.inHist[a.inStart[v]:a.inStart[v+1]]
}

// outBlock / inBlock / maskOf are the patched-Aux slow paths of OutBlock /
// InBlock / LabelMask.
func (p *auxOverlay) outBlock(a *Aux, v NodeID, l LabelID) []NodeID {
	if s := p.ov.slotOf(v); s >= 0 {
		return block(p.outByLabel[s], p.outHist[s], l)
	}
	return a.hists.OutBlock(v, l)
}

func (p *auxOverlay) inBlock(a *Aux, v NodeID, l LabelID) []NodeID {
	if s := p.ov.slotOf(v); s >= 0 {
		return block(p.inByLabel[s], p.inHist[s], l)
	}
	return a.hists.InBlock(v, l)
}

func (p *auxOverlay) maskOf(a *Aux, v NodeID) uint32 {
	if s := p.ov.slotOf(v); s >= 0 {
		return p.mask[s]
	}
	return a.mask[v]
}

// PatchedFor returns an Aux view for the overlay graph `view`, sharing
// the base structure and overriding only the nodes the overlay touched.
// view must have been produced by WithOverlay on the graph a was built
// for. Patching is O(Σ degree of touched nodes); untouched nodes keep
// reading the base arrays. The view shares a's scratch pools (see
// ScratchPool): a reader of the new snapshot borrows the scratch a reader
// of the previous one returned.
func (a *Aux) PatchedFor(view *Graph) (*Aux, error) {
	ov := view.ov
	if ov == nil {
		return nil, fmt.Errorf("graph: PatchedFor needs an overlay view")
	}
	if a.ov != nil {
		return nil, fmt.Errorf("graph: PatchedFor on a patched Aux (patch the base)")
	}
	if ov.baseN != a.g.NumNodes() {
		return nil, fmt.Errorf("graph: overlay base (%d nodes) does not match aux base (%d nodes)",
			ov.baseN, a.g.NumNodes())
	}
	slots := len(ov.out)
	p := &auxOverlay{
		ov:         ov,
		outHist:    make([][]LabelCount, slots),
		inHist:     make([][]LabelCount, slots),
		outByLabel: make([][]NodeID, slots),
		inByLabel:  make([][]NodeID, slots),
		mask:       make([]uint32, slots),
	}
	// The same construction BuildAux runs (see histBuilder), against the
	// merged view's labels and adjacency, into arenas sized up front: a
	// histogram has at most one entry per neighbor and per label.
	nl := view.NumLabels()
	var outEdges, inEdges, outCap, inCap int
	for s := 0; s < slots; s++ {
		outEdges += len(ov.out[s])
		outCap += min(len(ov.out[s]), nl)
		inEdges += len(ov.in[s])
		inCap += min(len(ov.in[s]), nl)
	}
	outArena, inArena := make([]LabelCount, 0, outCap), make([]LabelCount, 0, inCap)
	outGrouped, inGrouped := make([]NodeID, outEdges), make([]NodeID, inEdges)
	hb := newHistBuilder(view)
	build := func(arena *[]LabelCount, grouped *[]NodeID, neigh []NodeID, shift uint) ([]LabelCount, []NodeID, uint32) {
		lo := len(*arena)
		seg := (*grouped)[:len(neigh):len(neigh)]
		*grouped = (*grouped)[len(neigh):]
		var m uint32
		*arena, m = hb.appendList(*arena, seg, neigh, shift)
		return (*arena)[lo:len(*arena):len(*arena)], seg, m
	}
	for s := 0; s < slots; s++ {
		var outMask, inMask uint32
		p.outHist[s], p.outByLabel[s], outMask = build(&outArena, &outGrouped, ov.out[s], maskOut)
		p.inHist[s], p.inByLabel[s], inMask = build(&inArena, &inGrouped, ov.in[s], maskIn)
		p.mask[s] = outMask | inMask
	}
	na := &Aux{
		g:          view,
		outStart:   a.outStart,
		outHist:    a.outHist,
		inStart:    a.inStart,
		inHist:     a.inHist,
		outByLabel: a.outByLabel,
		inByLabel:  a.inByLabel,
		mask:       a.mask,
		ov:         p,
		pools:      a.pools,
	}
	// The overlay's fallbacks read the base through a.hists' arrays.
	na.hists = a.hists
	return na, nil
}
