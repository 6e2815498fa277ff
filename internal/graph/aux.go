package graph

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the once-for-all offline preprocessing of Section 4.1:
// for each node v, its degree d(v) and the set Sl of (label, count) pairs
// summarizing the labels occurring in its 1-neighborhood N(v). RBSim's
// guarded condition C(v,u) is evaluated against this structure without
// touching the graph again, which is what keeps the number of visited data
// items within the paper's d_G·α|G| bound.
//
// Two indexes ride on Sl so that the reduction reads only the neighbours
// a pattern can use. The label-grouped adjacency holds every node's
// neighbour list permuted so that its neighbours of one label form one
// contiguous block, ids ascending within it; the block boundaries are the
// histogram's own counts, so the index costs the adjacency's bytes and no
// offsets of its own. The presence mask is one uint32 per node: bit l%16
// when some child carries label l, bit 16+l%16 when some parent does. A
// clear bit proves a label absent; a set one proves it present only when
// no other label of the alphabet shares the bit.

// LabelCount is one entry of a node's neighborhood label summary Sl: label
// occurs Count times among the node's parents and children (with
// multiplicity, for the combined view).
type LabelCount struct {
	Label LabelID
	Count int32
}

// Aux is the offline auxiliary structure. It stores, for every node, the
// (label, count) histogram of its out-neighbors and of its in-neighbors,
// each sorted by label for binary search, the neighbor lists grouped by
// label (see OutBlock) and the label-presence mask (see LabelMask). Build
// time and space are O(|G|): per node, 4 bytes of mask plus 8 bytes of
// histogram offsets; per edge, 8 bytes of grouped adjacency (4 each way)
// plus at most 16 bytes of histogram entries. Construction is
// parallelized across node ranges.
//
// Aux also carries the per-query scratch pools (see ScratchPool) that
// the query engines draw on to stay allocation-free in steady state. The
// pools belong to a lineage, not to one Aux: a base Aux, the PatchedFor
// views sealed over it and the CompactIncremental base that succeeds it
// all share one set, so publishing a snapshot costs readers no scratch.
// The histograms themselves are immutable after BuildAux, so an Aux may
// be shared freely across goroutines.
type Aux struct {
	g        *Graph
	outStart []int32
	outHist  []LabelCount
	inStart  []int32
	inHist   []LabelCount

	// outByLabel and inByLabel are the graph's adjacency arrays with each
	// node's segment — at the graph's own CSR offsets — grouped by label
	// in histogram order, ids ascending within a block.
	outByLabel, inByLabel []NodeID
	// mask[v] is v's label-presence mask (see LabelMask).
	mask []uint32

	// ov is nil for base Aux structures; a patched view built by
	// PatchedFor (see overlay.go) overrides the histograms of the nodes
	// an overlay touched and shares the base arrays for everything else.
	ov *auxOverlay

	// hists aliases the arrays above for BaseHists, prebuilt so binding
	// a Semantics costs a pointer copy, not a struct copy.
	hists Hists

	pools *scratchPools
}

// scratchPools is one lineage's pool set, shared by pointer (a sync.Pool
// must not be copied).
type scratchPools [scratchSlots]sync.Pool

// Scratch pool slots. Each engine package claims one slot and stores
// exactly one concrete type in it, so a Get either yields a warm scratch
// of that type or nil.
const (
	// ScratchReduce pools *reduce.Scratch for standalone reduce.Search.
	ScratchReduce = iota
	// ScratchBounded pools the combined per-query state of bounded.Run.
	ScratchBounded
	scratchSlots
)

// ScratchPool returns the per-query scratch pool for slot. Pools are safe
// for concurrent use; a value obtained from a pool is owned by the calling
// goroutine until it is Put back. The value may last have served another
// snapshot of the lineage — a graph with fewer or more nodes — so pooled
// scratch is graph-agnostic: anything in it sized by |V| — a Fragment's
// membership bitset, and nothing else in the engines' scratch — is
// re-bound to the borrower's graph and grown on demand
// (Fragment.Rebind), so stale contents never read as set.
// The pools outlive each snapshot of the lineage, so a value must be Put
// back holding no reference to a Graph or an Aux (Fragment.Release).
func (a *Aux) ScratchPool(slot int) *sync.Pool { return &a.pools[slot] }

// auxSerialCutoff is the fewest nodes BuildAux gives a worker: tiny graphs
// are built faster than goroutines can be scheduled.
const auxSerialCutoff = 1 << 13

// BuildAux computes the auxiliary structure for g, mirroring the paper's
// once-for-all preprocessing step. Disjoint node ranges are processed in
// parallel, each into an arena sized up front; the result is
// deterministic and identical whatever the number of workers.
func BuildAux(g *Graph) *Aux {
	auxBuilds.Add(1)
	n := g.NumNodes()
	a := &Aux{
		g:          g,
		outStart:   make([]int32, n+1),
		inStart:    make([]int32, n+1),
		outByLabel: make([]NodeID, len(g.outAdj)),
		inByLabel:  make([]NodeID, len(g.inAdj)),
		mask:       make([]uint32, n),
		pools:      new(scratchPools),
	}
	type chunk struct {
		lo, hi          int
		outHist, inHist []LabelCount
	}
	chunks := make([]chunk, auxWorkers(n))
	// Each worker fills disjoint index ranges of the start arrays
	// (chunk-local offsets for now; rebased below), of the grouped
	// adjacency and of the masks.
	forRanges(len(chunks), n, func(w, lo, hi int) {
		chunks[w] = chunk{lo: lo, hi: hi}
		chunks[w].outHist, chunks[w].inHist = buildHistRange(a, lo, hi)
	})
	// The start arrays hold cumulative histogram lengths relative to each
	// chunk; turn them into global offsets and stitch the arenas together
	// at their exact total size.
	var outTotal, inTotal int32
	for _, c := range chunks {
		outTotal += int32(len(c.outHist))
		inTotal += int32(len(c.inHist))
	}
	a.outHist = make([]LabelCount, 0, outTotal)
	a.inHist = make([]LabelCount, 0, inTotal)
	for _, c := range chunks {
		base := a.outStart[c.lo]
		for v := c.lo; v < c.hi; v++ {
			a.outStart[v+1] += base
		}
		a.outHist = append(a.outHist, c.outHist...)
		base = a.inStart[c.lo]
		for v := c.lo; v < c.hi; v++ {
			a.inStart[v+1] += base
		}
		a.inHist = append(a.inHist, c.inHist...)
	}
	a.bindHists()
	return a
}

// auxWorkers is how many node ranges an O(|G|) pass over n nodes splits
// into.
func auxWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), (n+auxSerialCutoff-1)/auxSerialCutoff))
}

// forRanges splits [0, n) into workers consecutive ranges and runs fn on
// each, range w on its own goroutine (inline when there is one).
func forRanges(workers, n int, fn func(w, lo, hi int)) {
	per := (n + workers - 1) / workers
	if workers == 1 {
		fn(0, 0, n) // not worth a goroutine: a tiny graph, or a single CPU
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := min(w*per, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, min(lo+per, n))
		}()
	}
	wg.Wait()
}

// bindHists points a.hists at a base Aux's arrays.
func (a *Aux) bindHists() {
	a.hists = Hists{
		OutStart: a.outStart, InStart: a.inStart,
		OutHist: a.outHist, InHist: a.inHist,
		AdjOutStart: a.g.outStart, AdjInStart: a.g.inStart,
		OutByLabel: a.outByLabel, InByLabel: a.inByLabel,
		Mask: a.mask,
	}
}

// auxBuilds counts BuildAux runs in this process; see AuxBuilds.
var auxBuilds atomic.Uint64

// AuxBuilds returns how many times BuildAux has run in this process. The
// O(|G|) build is the dominant cost of opening a DB, so the cold-start
// tests hold each way of opening one to a single build by this count.
func AuxBuilds() uint64 { return auxBuilds.Load() }

// buildHistRange computes the histograms of nodes [lo, hi), and fills
// their grouped adjacency and masks in a. It writes range-relative
// cumulative offsets into a's start arrays at indices lo+1..hi (so entry
// lo+1 starts at 0) and returns the histogram entries for the range;
// BuildAux rebases them to global offsets afterwards.
func buildHistRange(a *Aux, lo, hi int) (outHist, inHist []LabelCount) {
	// A histogram has at most one entry per neighbor and per label, which
	// bounds the arenas: the appends below never grow them.
	g := a.g
	nl, outCap, inCap := g.NumLabels(), 0, 0
	for v := lo; v < hi; v++ {
		outCap += min(g.OutDegree(NodeID(v)), nl)
		inCap += min(g.InDegree(NodeID(v)), nl)
	}
	hb := newHistBuilder(g)
	outHist = hb.appendRange(make([]LabelCount, 0, outCap), a.outStart, lo, hi, a.outSink())
	inHist = hb.appendRange(make([]LabelCount, 0, inCap), a.inStart, lo, hi, a.inSink())
	return outHist, inHist
}

// histBuilder accumulates one neighbor list's (label, count) histogram
// at a time into a label-indexed counting array (no map), and groups the
// list by label with the same array. It is the one definition of the Aux
// histogram and grouped-list formats — sorted by label, zero counts
// omitted — shared by the offline BuildAux scan and the per-touched-node
// patching of Aux.PatchedFor, so the two can never drift apart.
//
// The labels a list touched are kept as a bitset, one word per 64
// labels, and read back in ascending order by walking the set bits: no
// per-node sort of labels. words lists the non-zero words, so a node
// costs its own neighbors and not the width of the alphabet.
type histBuilder struct {
	g      *Graph
	counts []int32
	bits   []uint64
	words  []int32

	labels []LabelID // the gathered labels of a block of lists
	ends   []int     // where each list of the block ends in labels
}

func newHistBuilder(g *Graph) *histBuilder {
	nl := g.NumLabels()
	nw := (nl + 63) / 64
	buf := make([]int32, nl+nw) // counts, then room for every word's index
	return &histBuilder{g: g, counts: buf[:nl], words: buf[nl:nl], bits: make([]uint64, nw)}
}

// histBlock is how many nodes' neighbor labels appendRange gathers before
// it counts them.
const histBlock = 512

// gather reads the labels of s's lists of nodes [lo, hi) into hb.labels,
// and where each list ends into hb.ends. The label reads are the cache
// misses of a pass over the graph: gathered a block at a time in a loop
// that does nothing else, they overlap instead of each waiting its turn
// behind the branches that count the node before.
func (hb *histBuilder) gather(lo, hi int, s *groupSink) {
	hb.labels, hb.ends = hb.labels[:0], hb.ends[:0]
	for v := lo; v < hi; v++ {
		for _, w := range s.list(NodeID(v)) {
			hb.labels = append(hb.labels, hb.g.LabelOf(w))
		}
		hb.ends = append(hb.ends, len(hb.labels))
	}
}

// appendRange appends the histograms of s's lists of nodes [lo, hi) to
// dst and records in start[v+1] where each ends; from the same gathered
// labels it writes each list's grouped form and presence bits to s.
func (hb *histBuilder) appendRange(dst []LabelCount, start []int32, lo, hi int, s *groupSink) []LabelCount {
	for b := lo; b < hi; b += histBlock {
		hb.gather(b, min(b+histBlock, hi), s)
		from := 0
		for i, end := range hb.ends {
			v := NodeID(b + i)
			var m uint32
			dst, m = hb.appendGrouped(dst, s.segment(v), s.list(v), hb.labels[from:end], s.shift)
			s.mask[v] |= m
			start[v+1] = int32(len(dst))
			from = end
		}
	}
	return dst
}

// appendList is appendGrouped for one list, its labels read from the
// builder's graph.
func (hb *histBuilder) appendList(dst []LabelCount, seg, neigh []NodeID, shift uint) ([]LabelCount, uint32) {
	hb.labels = hb.labels[:0]
	for _, w := range neigh {
		hb.labels = append(hb.labels, hb.g.LabelOf(w))
	}
	return hb.appendGrouped(dst, seg, neigh, hb.labels, shift)
}

// count adds one occurrence of l to the histogram being accumulated.
func (hb *histBuilder) count(l LabelID) {
	if hb.counts[l] == 0 {
		wi := int32(l >> 6)
		if hb.bits[wi] == 0 {
			hb.words = append(hb.words, wi)
		}
		hb.bits[wi] |= 1 << (uint(l) & 63)
	}
	hb.counts[l]++
}

// appendGrouped appends the histogram of neigh — labels[i] is neigh[i]'s
// label — to dst in label order, and writes neigh into seg (of neigh's
// length) grouped by label in that order: a stable counting sort whose
// block offsets are the histogram's counts, so ids stay ascending within
// a block. It returns dst and the histogram's presence bits on the half
// of the mask that shift selects.
func (hb *histBuilder) appendGrouped(dst []LabelCount, seg, neigh []NodeID, labels []LabelID, shift uint) ([]LabelCount, uint32) {
	if len(neigh) <= 1 { // most lists of a sparse graph: nothing to count or sort
		if len(neigh) == 0 {
			return dst, 0
		}
		seg[0] = neigh[0]
		return append(dst, LabelCount{labels[0], 1}), maskBit(labels[0], shift)
	}
	for _, l := range labels {
		hb.count(l)
	}
	if len(hb.words) > 1 { // only alphabets above 64 labels get here
		slices.Sort(hb.words)
	}
	n := len(dst)
	var off int32
	var m uint32
	for _, wi := range hb.words {
		for word := hb.bits[wi]; word != 0; word &= word - 1 {
			l := LabelID(wi<<6) + LabelID(bits.TrailingZeros64(word))
			c := hb.counts[l]
			dst = append(dst, LabelCount{l, c})
			hb.counts[l] = off // from here on, the block's write cursor
			off += c
			m |= maskBit(l, shift)
		}
		hb.bits[wi] = 0
	}
	hb.words = hb.words[:0]
	for i, w := range neigh {
		l := labels[i]
		seg[hb.counts[l]] = w
		hb.counts[l]++
	}
	for _, e := range dst[n:] {
		hb.counts[e.Label] = 0
	}
	return dst, m
}

// groupSink is one direction of a base Aux under construction: the
// graph's lists in that direction, and where a pass writes each node's
// grouped list (at the graph's CSR offsets) and presence bits.
type groupSink struct {
	adjStart     []int32
	adj, grouped []NodeID
	mask         []uint32
	shift        uint // maskOut or maskIn
}

func (a *Aux) outSink() *groupSink {
	return &groupSink{a.g.outStart, a.g.outAdj, a.outByLabel, a.mask, maskOut}
}

func (a *Aux) inSink() *groupSink {
	return &groupSink{a.g.inStart, a.g.inAdj, a.inByLabel, a.mask, maskIn}
}

// list and segment are v's list and where its grouped form goes.
func (s *groupSink) list(v NodeID) []NodeID    { return s.adj[s.adjStart[v]:s.adjStart[v+1]] }
func (s *groupSink) segment(v NodeID) []NodeID { return s.grouped[s.adjStart[v]:s.adjStart[v+1]] }

// Presence-mask layout: the low half flags out-labels, the high half
// in-labels, label l on bit l%MaskLabels of its half. Labels l and
// l+MaskLabels share a bit, so the mask decides presence exactly only for
// a label that owns its bit in the alphabet (see OwnsMaskBit); for the
// others a set bit may come from a colliding label.
const (
	MaskLabels = 16
	maskOut    = 0
	maskIn     = MaskLabels
)

// OwnsMaskBit reports whether label l is the only label of an alphabet of
// numLabels labels on its presence-mask bit, so that the bit being set
// proves l present.
func OwnsMaskBit(l LabelID, numLabels int) bool {
	return l >= 0 && int(l) < min(numLabels, MaskLabels) && int(l)+MaskLabels >= numLabels
}

// OutMaskBit and InMaskBit are the presence-mask bits of a child, resp.
// a parent, labelled l.
func OutMaskBit(l LabelID) uint32 { return maskBit(l, maskOut) }
func InMaskBit(l LabelID) uint32  { return maskBit(l, maskIn) }

// maskBit is l's bit on the half of the mask that shift selects.
func maskBit(l LabelID, shift uint) uint32 { return 1 << (shift + uint(l)%MaskLabels) }

// block returns the label-l block of a node's grouped list seg, whose
// blocks hist sizes in label order; nil when no neighbor carries l.
func block(seg []NodeID, hist []LabelCount, l LabelID) []NodeID {
	var off int32
	for _, e := range hist {
		if e.Label >= l {
			if e.Label != l {
				return nil
			}
			return seg[off : off+e.Count : off+e.Count]
		}
		off += e.Count
	}
	return nil
}

// Graph returns the graph this structure was built for.
func (a *Aux) Graph() *Graph { return a.g }

// OutLabelHist returns the (label,count) histogram of v's children, sorted
// by label. The slice is shared and must not be modified.
//
// The overlay check is shaped to keep the base path inline-eligible:
// these accessors sit under the per-candidate Guard probes, the hottest
// loop in the system, so a base Aux must pay one predicted branch and
// nothing else.
func (a *Aux) OutLabelHist(v NodeID) []LabelCount {
	if a.ov != nil {
		return a.ov.outOf(a, v)
	}
	return a.outHist[a.outStart[v]:a.outStart[v+1]]
}

// InLabelHist returns the (label,count) histogram of v's parents, sorted by
// label. The slice is shared and must not be modified.
func (a *Aux) InLabelHist(v NodeID) []LabelCount {
	if a.ov != nil {
		return a.ov.inOf(a, v)
	}
	return a.inHist[a.inStart[v]:a.inStart[v+1]]
}

// lookup is a closure-free binary search over a sorted histogram; it sits
// on the guard hot path of every reduction step.
func lookup(hist []LabelCount, l LabelID) int32 {
	lo, hi := 0, len(hist)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if hist[mid].Label < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(hist) && hist[lo].Label == l {
		return hist[lo].Count
	}
	return 0
}

// OutLabelCount returns how many children of v carry label l.
func (a *Aux) OutLabelCount(v NodeID, l LabelID) int32 { return lookup(a.OutLabelHist(v), l) }

// InLabelCount returns how many parents of v carry label l.
func (a *Aux) InLabelCount(v NodeID, l LabelID) int32 { return lookup(a.InLabelHist(v), l) }

// Hists is the raw histogram layout of a *base* Aux, for engine code
// whose innermost loops probe it millions of times per query: the
// OutCount/InCount methods compile to the same inlined slice-and-search
// the accessors above were before Aux views could carry overlays, with
// no per-probe overlay check. Obtain via BaseHists at bind time; the
// arrays are immutable and shared.
type Hists struct {
	OutStart, InStart []int32
	OutHist, InHist   []LabelCount
	// AdjOutStart and AdjInStart are the graph's CSR offsets: node v's
	// grouped list is OutByLabel[AdjOutStart[v]:AdjOutStart[v+1]].
	AdjOutStart, AdjInStart []int32
	OutByLabel, InByLabel   []NodeID
	Mask                    []uint32
}

// BaseHists returns the histogram arrays when a is an unpatched base
// Aux. Patched views (see PatchedFor) return nil; callers must then
// route every probe through OutLabelCount / InLabelCount, which consult
// the per-touched-node overrides. The returned value is shared and
// immutable.
func (a *Aux) BaseHists() *Hists {
	if a.ov != nil {
		return nil
	}
	return &a.hists
}

// OutCount returns how many children of v carry label l.
func (h *Hists) OutCount(v NodeID, l LabelID) int32 {
	return lookup(h.OutHist[h.OutStart[v]:h.OutStart[v+1]], l)
}

// InCount returns how many parents of v carry label l.
func (h *Hists) InCount(v NodeID, l LabelID) int32 {
	return lookup(h.InHist[h.InStart[v]:h.InStart[v+1]], l)
}

// OutBlock returns the children of v labelled l, ascending.
func (h *Hists) OutBlock(v NodeID, l LabelID) []NodeID {
	return block(h.OutByLabel[h.AdjOutStart[v]:h.AdjOutStart[v+1]], h.OutHist[h.OutStart[v]:h.OutStart[v+1]], l)
}

// InBlock returns the parents of v labelled l, ascending.
func (h *Hists) InBlock(v NodeID, l LabelID) []NodeID {
	return block(h.InByLabel[h.AdjInStart[v]:h.AdjInStart[v+1]], h.InHist[h.InStart[v]:h.InStart[v+1]], l)
}

// OutBlock returns the children of v labelled l, ascending: the block of
// v's label-grouped list that the l entry of its histogram sizes, read
// without touching any other neighbor. The slice is shared and must not
// be modified.
func (a *Aux) OutBlock(v NodeID, l LabelID) []NodeID {
	if a.ov != nil {
		return a.ov.outBlock(a, v, l)
	}
	return a.hists.OutBlock(v, l)
}

// InBlock returns the parents of v labelled l, ascending. The slice is
// shared and must not be modified.
func (a *Aux) InBlock(v NodeID, l LabelID) []NodeID {
	if a.ov != nil {
		return a.ov.inBlock(a, v, l)
	}
	return a.hists.InBlock(v, l)
}

// LabelMask returns v's label-presence mask: OutMaskBit(l) is set when
// some child of v carries label l, InMaskBit(l) when some parent does.
// A clear bit proves the label absent; a set one proves it present only
// for a label that owns its bit (see OwnsMaskBit).
func (a *Aux) LabelMask(v NodeID) uint32 {
	if a.ov != nil {
		return a.ov.maskOf(a, v)
	}
	return a.mask[v]
}

// LabelCountBoth returns how many neighbors of v (parents plus children,
// with multiplicity) carry label l — the paper's Sl lookup.
func (a *Aux) LabelCountBoth(v NodeID, l LabelID) int32 {
	return a.OutLabelCount(v, l) + a.InLabelCount(v, l)
}

// Degree returns d(v) = |N(v)| with multiplicity (the paper stores it next
// to Sl; here it is delegated to the graph, which already has it in O(1)).
func (a *Aux) Degree(v NodeID) int { return a.g.Degree(v) }
