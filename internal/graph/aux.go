package graph

import (
	"runtime"
	"slices"
	"sync"
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
	// ScratchSim pools the combined per-query state of rbsim.Run.
	ScratchSim
	// ScratchSub pools the combined per-query state of rbsub.Run.
	ScratchSub
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

// auxSerialCutoff is the node count below which BuildAux runs serially:
// tiny graphs are built faster than goroutines can be scheduled.
const auxSerialCutoff = 1 << 13

// BuildAux computes the auxiliary structure for g, mirroring the paper's
// once-for-all preprocessing step. Histograms are accumulated into a
// label-indexed counting array (no map), and disjoint node ranges are
// processed in parallel; the result is deterministic and identical to a
// serial build.
func BuildAux(g *Graph) *Aux {
	n := g.NumNodes()
	a := &Aux{
		g:        g,
		outStart: make([]int32, n+1),
		inStart:  make([]int32, n+1),
		pools:    new(scratchPools),
	}
	workers := runtime.GOMAXPROCS(0)
	if n < auxSerialCutoff || workers < 2 {
		a.outHist, a.inHist = buildHistRange(g, 0, n, a.outStart, a.inStart)
		a.hists = Hists{OutStart: a.outStart, InStart: a.inStart, OutHist: a.outHist, InHist: a.inHist}
		return a
	}
	if workers > (n+auxSerialCutoff-1)/auxSerialCutoff {
		workers = (n + auxSerialCutoff - 1) / auxSerialCutoff
	}
	type chunk struct {
		lo, hi          int
		outHist, inHist []LabelCount
	}
	chunks := make([]chunk, workers)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, n)
		chunks[w].lo, chunks[w].hi = lo, hi
		wg.Add(1)
		go func(c *chunk) {
			defer wg.Done()
			// Each worker fills disjoint index ranges of the start arrays
			// (chunk-local lengths for now; prefix-summed below).
			c.outHist, c.inHist = buildHistRange(g, c.lo, c.hi, a.outStart, a.inStart)
		}(&chunks[w])
	}
	wg.Wait()
	// The start arrays currently hold per-node histogram lengths at v+1
	// relative to each chunk; turn them into global offsets and stitch the
	// chunk buffers together.
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

// buildHistRange computes the histograms of nodes [lo, hi). It writes
// range-relative cumulative offsets into outStart/inStart at indices
// lo+1..hi (so entry lo+1 starts at 0) and returns the histogram entries
// for the range; BuildAux rebases them to global offsets afterwards.
func buildHistRange(g *Graph, lo, hi int, outStart, inStart []int32) (outHist, inHist []LabelCount) {
	hb := newHistBuilder(g)
	for v := lo; v < hi; v++ {
		outHist = hb.appendHist(outHist, g.Out(NodeID(v)))
		outStart[v+1] = int32(len(outHist))
		inHist = hb.appendHist(inHist, g.In(NodeID(v)))
		inStart[v+1] = int32(len(inHist))
	}
	return outHist, inHist
}

// histBuilder accumulates one neighbor list's (label, count) histogram
// at a time into a label-indexed counting array (no map). It is the one
// definition of the Aux histogram format — sorted by label, zero counts
// omitted — shared by the offline BuildAux scan and the per-touched-node
// patching of Aux.PatchedFor, so the two can never drift apart.
type histBuilder struct {
	g       *Graph
	counts  []int32
	touched []LabelID
}

func newHistBuilder(g *Graph) *histBuilder {
	return &histBuilder{g: g, counts: make([]int32, g.NumLabels()), touched: make([]LabelID, 0, 64)}
}

// appendHist appends the histogram of neigh (labels read from the
// builder's graph) to dst and returns it.
func (hb *histBuilder) appendHist(dst []LabelCount, neigh []NodeID) []LabelCount {
	hb.touched = hb.touched[:0]
	for _, w := range neigh {
		l := hb.g.LabelOf(w)
		if hb.counts[l] == 0 {
			hb.touched = append(hb.touched, l)
		}
		hb.counts[l]++
	}
	slices.Sort(hb.touched)
	for _, l := range hb.touched {
		dst = append(dst, LabelCount{l, hb.counts[l]})
		hb.counts[l] = 0
	}
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
