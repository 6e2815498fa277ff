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

// LabelCount is one entry of a node's neighborhood label summary Sl: label
// occurs Count times among the node's parents and children (with
// multiplicity, for the combined view).
type LabelCount struct {
	Label LabelID
	Count int32
}

// Aux is the offline auxiliary structure. It stores, for every node, the
// (label, count) histogram of its out-neighbors and of its in-neighbors,
// each sorted by label for binary search. Build time and space are O(|G|);
// construction is parallelized across node ranges.
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

	// ov is nil for base Aux structures; a patched view built by
	// PatchedFor (see overlay.go) overrides the histograms of the nodes
	// an overlay touched and shares the base arrays for everything else.
	ov *auxOverlay

	// hists aliases the four arrays above for BaseHists, prebuilt so
	// binding a Semantics costs a pointer copy, not a struct copy.
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
// scratch is graph-agnostic: anything in it sized by |V| is re-bound to
// the borrower's graph and grown on demand (Fragment.Rebind,
// Graph.CSRInto), and epoch-stamped so stale contents never read as set.
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
		g:        g,
		outStart: make([]int32, n+1),
		inStart:  make([]int32, n+1),
		pools:    new(scratchPools),
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), (n+auxSerialCutoff-1)/auxSerialCutoff))
	type chunk struct {
		lo, hi          int
		outHist, inHist []LabelCount
	}
	chunks := make([]chunk, workers)
	per := (n + workers - 1) / workers
	// Each worker fills disjoint index ranges of the start arrays
	// (chunk-local offsets for now; rebased below).
	build := func(c *chunk) { c.outHist, c.inHist = buildHistRange(g, c.lo, c.hi, a.outStart, a.inStart) }
	var wg sync.WaitGroup
	for w := range chunks {
		c := &chunks[w]
		c.lo = w * per
		c.hi = min(c.lo+per, n)
		if workers == 1 {
			build(c) // not worth a goroutine: a tiny graph, or a single CPU
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(c)
		}()
	}
	wg.Wait()
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
	a.hists = Hists{OutStart: a.outStart, InStart: a.inStart, OutHist: a.outHist, InHist: a.inHist}
	return a
}

// auxBuilds counts BuildAux runs in this process; see AuxBuilds.
var auxBuilds atomic.Uint64

// AuxBuilds returns how many times BuildAux has run in this process. The
// O(|G|) build is the dominant cost of opening a DB, so the cold-start
// tests hold each way of opening one to a single build by this count.
func AuxBuilds() uint64 { return auxBuilds.Load() }

// buildHistRange computes the histograms of nodes [lo, hi). It writes
// range-relative cumulative offsets into outStart/inStart at indices
// lo+1..hi (so entry lo+1 starts at 0) and returns the histogram entries
// for the range; BuildAux rebases them to global offsets afterwards.
func buildHistRange(g *Graph, lo, hi int, outStart, inStart []int32) (outHist, inHist []LabelCount) {
	// A histogram has at most one entry per neighbor and per label, which
	// bounds the arenas: the appends below never grow them.
	nl, outCap, inCap := g.NumLabels(), 0, 0
	for v := lo; v < hi; v++ {
		outCap += min(g.OutDegree(NodeID(v)), nl)
		inCap += min(g.InDegree(NodeID(v)), nl)
	}
	hb := newHistBuilder(g)
	outHist = hb.appendRange(make([]LabelCount, 0, outCap), outStart, lo, hi, g.Out)
	inHist = hb.appendRange(make([]LabelCount, 0, inCap), inStart, lo, hi, g.In)
	return outHist, inHist
}

// histBuilder accumulates one neighbor list's (label, count) histogram
// at a time into a label-indexed counting array (no map). It is the one
// definition of the Aux histogram format — sorted by label, zero counts
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

	labels []LabelID // appendRange: the gathered labels of a block of lists
	ends   []int     // appendRange: where each list of the block ends in labels
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

// appendRange appends the histograms of adj(v) for v in [lo, hi) to dst
// and records in start[v+1] where each ends. The label reads are the
// cache misses of the scan: gathered a block at a time in a loop that does
// nothing else, they overlap instead of each waiting its turn behind the
// branches that count the node before.
func (hb *histBuilder) appendRange(dst []LabelCount, start []int32, lo, hi int, adj func(NodeID) []NodeID) []LabelCount {
	for b := lo; b < hi; b += histBlock {
		hb.labels, hb.ends = hb.labels[:0], hb.ends[:0]
		for v := b; v < min(b+histBlock, hi); v++ {
			for _, w := range adj(NodeID(v)) {
				hb.labels = append(hb.labels, hb.g.LabelOf(w))
			}
			hb.ends = append(hb.ends, len(hb.labels))
		}
		from := 0
		for i, end := range hb.ends {
			for _, l := range hb.labels[from:end] {
				hb.count(l)
			}
			dst = hb.emit(dst)
			start[b+i+1] = int32(len(dst))
			from = end
		}
	}
	return dst
}

// appendHist appends the histogram of neigh (labels read from the
// builder's graph) to dst and returns it.
func (hb *histBuilder) appendHist(dst []LabelCount, neigh []NodeID) []LabelCount {
	for _, w := range neigh {
		hb.count(hb.g.LabelOf(w))
	}
	return hb.emit(dst)
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

// emit appends the accumulated histogram to dst, in label order, and
// clears it.
func (hb *histBuilder) emit(dst []LabelCount) []LabelCount {
	if len(hb.words) > 1 { // only alphabets above 64 labels get here
		slices.Sort(hb.words)
	}
	for _, wi := range hb.words {
		for word := hb.bits[wi]; word != 0; word &= word - 1 {
			l := LabelID(wi<<6) + LabelID(bits.TrailingZeros64(word))
			dst = append(dst, LabelCount{l, hb.counts[l]})
			hb.counts[l] = 0
		}
		hb.bits[wi] = 0
	}
	hb.words = hb.words[:0]
	return dst
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

// LabelCountBoth returns how many neighbors of v (parents plus children,
// with multiplicity) carry label l — the paper's Sl lookup.
func (a *Aux) LabelCountBoth(v NodeID, l LabelID) int32 {
	return a.OutLabelCount(v, l) + a.InLabelCount(v, l)
}

// Degree returns d(v) = |N(v)| with multiplicity (the paper stores it next
// to Sl; here it is delegated to the graph, which already has it in O(1)).
func (a *Aux) Degree(v NodeID) int { return a.g.Degree(v) }
