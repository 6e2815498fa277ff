package graph

import (
	"runtime"
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
// a pattern can use. The graph keeps every neighbour list in adjacency
// order — grouped by label, blocks in ascending label order — so the
// histogram, sorted by label, is also the directory of a list's blocks:
// OutBlock finds the neighbours of one label at the offset the counts
// before it sum to, and the index costs no bytes beyond the histogram.
// The presence mask is one uint32 per node: bit l%16 when some child
// carries label l, bit 16+l%16 when some parent does. A clear bit proves a
// label absent; a set one proves it present only when no other label of
// the alphabet shares the bit.

// LabelCount is one entry of a node's neighborhood label summary Sl: label
// occurs Count times among the node's parents and children (with
// multiplicity, for the combined view).
type LabelCount struct {
	Label LabelID
	Count int32
}

// Aux is the offline auxiliary structure. It stores, for every node, the
// (label, count) histogram of its out-neighbors and of its in-neighbors,
// each sorted by label for binary search and doubling as the directory of
// the graph's label blocks (see OutBlock), and the label-presence mask
// (see LabelMask). Build time and space are O(|G|): per node, 4 bytes of
// mask plus 8 bytes of histogram offsets; per edge, at most 16 bytes of
// histogram entries (see ResidentBytes). Aux holds no adjacency of its
// own. Construction is parallelized across node ranges.
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
// once-for-all preprocessing step. It reads the graph's lists and writes
// histograms and masks only; see buildHists.
func BuildAux(g *Graph) *Aux {
	auxBuilds.Add(1)
	a := &Aux{g: g, mask: make([]uint32, g.NumNodes()), pools: new(scratchPools)}
	// One histBuilder per worker, whose buffers both directions reuse.
	hbs := make([]histBuilder, auxWorkers(g.NumNodes()))
	for i := range hbs {
		hbs[i].g = g
	}
	a.outStart, a.outHist = buildHists(hbs, g.outStart, g.outAdj, a.mask, maskOut)
	a.inStart, a.inHist = buildHists(hbs, g.inStart, g.inAdj, a.mask, maskIn)
	a.bindHists()
	return a
}

// buildHists computes the histograms of one direction's lists — adj at
// the CSR offsets adjStart — with their start offsets, and sets the
// lists' presence bits on the half of mask that shift selects. Disjoint
// node ranges, one per builder in hbs, are processed in parallel into one
// arena, sized up front by
// a bound on what each range can write (a histogram has at most one entry
// per neighbor and per label), each range at its bound's offset; the
// ranges are then slid left against each other. So the arena is the only
// histogram array ever allocated, and keeps the bound's slack as capacity.
// The result is deterministic and identical whatever the number of
// workers.
func buildHists(hbs []histBuilder, adjStart []int32, adj []NodeID, mask []uint32, shift uint) (start []int32, hist []LabelCount) {
	n, nl, workers := len(adjStart)-1, hbs[0].g.NumLabels(), len(hbs)
	start = make([]int32, n+1)
	ranges := make([][2]int, workers)
	off := make([]int, workers+1) // each range's bound, then its offset
	used := make([]int, workers)
	forRanges(workers, n, func(w, lo, hi int) {
		ranges[w] = [2]int{lo, hi}
		for v := lo; v < hi; v++ {
			off[w+1] += min(int(adjStart[v+1]-adjStart[v]), nl)
		}
	})
	for w := range workers {
		off[w+1] += off[w]
	}
	hist = make([]LabelCount, off[workers])
	forRanges(workers, n, func(w, lo, hi int) {
		// Full-capacity slice: the appends cannot outgrow the bound.
		used[w] = len(hbs[w].appendRange(hist[off[w]:off[w]:off[w+1]], start, lo, hi, adjStart, adj, mask, shift))
	})
	// Each range wrote range-relative offsets into start; rebase them as
	// the range slides into place.
	total := 0
	for w, r := range ranges {
		copy(hist[total:], hist[off[w]:off[w]+used[w]])
		for v := r[0]; v < r[1]; v++ {
			start[v+1] += int32(total)
		}
		total += used[w]
	}
	return start, hist[:total]
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
		AdjOut: a.g.outAdj, AdjIn: a.g.inAdj,
		Mask: a.mask,
	}
}

// auxBuilds counts BuildAux runs in this process; see AuxBuilds.
var auxBuilds atomic.Uint64

// AuxBuilds returns how many times BuildAux has run in this process. The
// O(|G|) build is the dominant cost of opening a DB, so the cold-start
// tests hold each way of opening one to a single build by this count.
func AuxBuilds() uint64 { return auxBuilds.Load() }

// histBuilder computes (label, count) histograms. A list in adjacency
// order holds its neighbors of one label as one run, runs in ascending
// label order, so its histogram is the run lengths of its labels: no
// counting array and no sort. It is the one definition of the Aux
// histogram format — sorted by label, zero counts omitted — shared by the
// offline BuildAux scan and the per-touched-node patching of
// Aux.PatchedFor, so the two can never drift apart.
type histBuilder struct {
	g      *Graph
	labels []LabelID // the gathered labels of a block of lists
	ends   []int     // where each list of the block ends in labels
}

// histBlock is how many nodes' neighbor labels appendRange gathers before
// it counts them.
const histBlock = 512

// gather reads the labels of the lists of nodes [lo, hi) — adj at the
// CSR offsets adjStart — into hb.labels, and where each list ends into
// hb.ends. The label reads are the cache misses of a pass over the graph:
// gathered a block at a time in a loop that does nothing else, they
// overlap instead of each waiting its turn behind the branches that count
// the node before.
func (hb *histBuilder) gather(lo, hi int, adjStart []int32, adj []NodeID) {
	hb.labels, hb.ends = hb.labels[:0], hb.ends[:0]
	for v := lo; v < hi; v++ {
		for _, w := range adj[adjStart[v]:adjStart[v+1]] {
			hb.labels = append(hb.labels, hb.g.LabelOf(w))
		}
		hb.ends = append(hb.ends, len(hb.labels))
	}
}

// appendRange appends the histograms of the lists of nodes [lo, hi) to
// dst, records in start[v+1] where each ends relative to dst's start, and
// ORs each list's presence bits into mask[v].
func (hb *histBuilder) appendRange(dst []LabelCount, start []int32, lo, hi int, adjStart []int32, adj []NodeID, mask []uint32, shift uint) []LabelCount {
	for b := lo; b < hi; b += histBlock {
		hb.gather(b, min(b+histBlock, hi), adjStart, adj)
		from := 0
		for i, end := range hb.ends {
			var m uint32
			dst, m = appendHist(dst, hb.labels[from:end], shift)
			mask[b+i] |= m
			start[b+i+1] = int32(len(dst))
			from = end
		}
	}
	return dst
}

// appendList appends the histogram of neigh, a list of the builder's
// graph in adjacency order, to dst, and returns it with the list's
// presence bits.
func (hb *histBuilder) appendList(dst []LabelCount, neigh []NodeID, shift uint) ([]LabelCount, uint32) {
	hb.labels = hb.labels[:0]
	for _, w := range neigh {
		hb.labels = append(hb.labels, hb.g.LabelOf(w))
	}
	return appendHist(dst, hb.labels, shift)
}

// appendHist appends to dst the histogram of a list whose labels, in list
// order, are labels — runs of one label each, as adjacency order lays them
// out — and returns dst and the histogram's presence bits on the half of
// the mask that shift selects.
func appendHist(dst []LabelCount, labels []LabelID, shift uint) ([]LabelCount, uint32) {
	var m uint32
	for i := 0; i < len(labels); {
		l, j := labels[i], i+1
		for j < len(labels) && labels[j] == l {
			j++
		}
		dst = append(dst, LabelCount{l, int32(j - i)})
		m |= maskBit(l, shift)
		i = j
	}
	return dst, m
}

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

// block returns the label-l block of a node's list seg, in adjacency
// order, whose blocks hist sizes in label order; nil when no neighbor
// carries l.
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
	// AdjOutStart/AdjOut and AdjInStart/AdjIn are the graph's own CSR
	// arrays: node v's out-list is AdjOut[AdjOutStart[v]:AdjOutStart[v+1]].
	AdjOutStart, AdjInStart []int32
	AdjOut, AdjIn           []NodeID
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
	return block(h.AdjOut[h.AdjOutStart[v]:h.AdjOutStart[v+1]], h.OutHist[h.OutStart[v]:h.OutStart[v+1]], l)
}

// InBlock returns the parents of v labelled l, ascending.
func (h *Hists) InBlock(v NodeID, l LabelID) []NodeID {
	return block(h.AdjIn[h.AdjInStart[v]:h.AdjInStart[v+1]], h.InHist[h.InStart[v]:h.InStart[v+1]], l)
}

// OutBlock returns the children of v labelled l, ascending: the block of
// v's out-list that the l entry of its histogram sizes, read without
// touching any other neighbor. The slice is shared and must not
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

// ResidentBytes returns the bytes the Aux's arrays hold: offsets and
// masks per node, histogram entries per edge, the latter including the
// slack BuildAux's arena keeps (its bound Σ min(degree, |labels|) less
// the entries used; see buildHists). A patched view counts the base
// arrays it shares, not its per-touched-node overrides.
func (a *Aux) ResidentBytes() Resident {
	return Resident{
		NodeBytes: bytesOf(a.outStart) + bytesOf(a.inStart) + bytesOf(a.mask),
		EdgeBytes: bytesOf(a.outHist) + bytesOf(a.inHist),
	}
}

// Degree returns d(v) = |N(v)| with multiplicity (the paper stores it next
// to Sl; here it is delegated to the graph, which already has it in O(1)).
func (a *Aux) Degree(v NodeID) int { return a.g.Degree(v) }
