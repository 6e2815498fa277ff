// Package rbreach implements RBReach, the resource-bounded reachability
// algorithm of Section 5.2 of Fan, Wang & Wu (SIGMOD 2014).
//
// After the once-for-all preprocessing — reachability-preserving
// condensation (package compress) and hierarchical landmark indexing
// (package landmark) — a query (v_p, v_o) is answered by a bidirectional
// search over the index only: the active set of v_p holds landmarks known
// to be reachable from v_p, the active set of v_o landmarks known to reach
// v_o, and the search rolls up / drills down the landmark forest by the
// weight p(m)/(c(m)+1) under the topological-rank guard of Lemma 5(2),
// visiting at most α|G| items. It returns true only when a landmark sits
// in both active sets, which witnesses a real path — Theorem 4(c)'s 100%
// true-positive guarantee. A false may be a false negative (Theorem 2
// rules out 100% accuracy), traded for the resource bound.
package rbreach

import (
	"container/heap"
	"encoding/binary"
	"hash/crc32"

	"rbq/internal/compress"
	"rbq/internal/graph"
	"rbq/internal/landmark"
)

// Oracle bundles the offline artifacts RBReach queries against.
type Oracle struct {
	Cond  *compress.Condensation
	Index *landmark.Index
	// Budget is the per-query visit budget α|G| (in items); zero means
	// α·|G| computed from BuildOptions.Alpha at construction.
	Budget int
	// Source identifies the graph the oracle was built from: its answers
	// are in that graph's node ids and hold only for that graph. Zero for
	// an oracle built by FromCondensation.
	Source Source
}

// Source identifies a graph: its size and a CRC32C over its label table,
// every node's label and every out-list.
type Source struct {
	Nodes, Edges int
	CRC          uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SourceOf computes g's Source in one pass over its nodes.
func SourceOf(g *graph.Graph) Source {
	crc := uint32(0)
	for l := range g.NumLabels() {
		crc = crc32.Update(crc, castagnoli, []byte(g.LabelName(graph.LabelID(l))))
		crc = crc32.Update(crc, castagnoli, []byte{0})
	}
	var buf []byte
	for v := range graph.NodeID(g.NumNodes()) {
		out := g.Out(v)
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(g.LabelOf(v)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(out)))
		for _, w := range out {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
		crc = crc32.Update(crc, castagnoli, buf)
	}
	return Source{Nodes: g.NumNodes(), Edges: g.NumEdges(), CRC: crc}
}

// New runs the full offline pipeline of Section 5 over a (possibly cyclic)
// graph: condense, then build the hierarchical landmark index with ratio
// alpha. The per-query budget defaults to α·|G| of the *original* graph.
func New(g *graph.Graph, opts landmark.BuildOptions) *Oracle {
	o := FromCondensation(compress.Condense(g), opts, g.Size())
	o.Source = SourceOf(g)
	return o
}

// FromCondensation builds an oracle over an existing condensation, so
// harnesses sweeping α can share one condensation across many indexes.
// origSize is |G| of the original graph (for the per-query budget α·|G|).
func FromCondensation(cond *compress.Condensation, opts landmark.BuildOptions, origSize int) *Oracle {
	idx := landmark.Build(cond.DAG, opts)
	budget := int(opts.Alpha * float64(origSize))
	if budget < 4 {
		budget = 4 // room for the two endpoints' initial labels
	}
	return &Oracle{Cond: cond, Index: idx, Budget: budget}
}

// Result reports one query evaluation.
type Result struct {
	// Answer is RBReach's verdict; true is always correct (never a false
	// positive), false may be a false negative.
	Answer bool
	// Visited counts index items touched, bounded by the budget.
	Visited int
	// Exhausted reports whether the visit budget stopped the search
	// before the index was fully explored.
	Exhausted bool
}

// Query answers whether u reaches v in the original graph.
func (o *Oracle) Query(u, v graph.NodeID) Result {
	cu := o.Cond.ComponentOf[u]
	cv := o.Cond.ComponentOf[v]
	return o.queryDAG(cu, cv)
}

// QueryDAG answers a reachability query posed directly on condensation
// nodes (used by tests and the benchmark harness).
func (o *Oracle) QueryDAG(cu, cv graph.NodeID) Result { return o.queryDAG(cu, cv) }

type side struct {
	active map[graph.NodeID]bool
	cands  *candHeap
	queued map[graph.NodeID]bool
}

func newSide() *side {
	return &side{
		active: make(map[graph.NodeID]bool),
		cands:  &candHeap{},
		queued: make(map[graph.NodeID]bool),
	}
}

func (o *Oracle) queryDAG(cu, cv graph.NodeID) Result {
	var res Result
	if cu == cv {
		res.Answer = true
		res.Visited = 1
		return res
	}
	x := o.Index
	// Rank guard: on a DAG, cu → cv (cu ≠ cv) forces rank(cu) > rank(cv).
	if x.Rank(cu) <= x.Rank(cv) {
		res.Visited = 1
		return res
	}

	up := newSide()   // landmarks reachable from cu
	down := newSide() // landmarks reaching cv

	// admissible keeps only landmarks that can lie between cu and cv.
	admissible := func(m graph.NodeID) bool {
		return x.Rank(m) < x.Rank(cu) && x.Rank(m) > x.Rank(cv) ||
			m == cu || m == cv
	}

	found := false
	add := func(s, other *side, m graph.NodeID) {
		if s.active[m] {
			return
		}
		s.active[m] = true
		res.Visited++
		if other.active[m] {
			found = true
		}
	}

	// Initial active sets from the endpoint labels v.E (Fig. 7 lines 2-3).
	for _, m := range x.FwdLabels(cu) {
		if admissible(m) {
			add(up, down, m)
		}
	}
	for _, m := range x.BwdLabels(cv) {
		if admissible(m) {
			add(down, up, m)
		}
	}
	if found {
		res.Answer = true
		return res
	}

	// Seed candidate heaps with the tree neighbors of the initial sets.
	for m := range up.active {
		o.expand(up, m, true, cu, cv)
	}
	for m := range down.active {
		o.expand(down, m, false, cu, cv)
	}

	// Alternate roll-up/drill-down, best weight first (procedure PickLM).
	for up.cands.Len() > 0 || down.cands.Len() > 0 {
		if res.Visited >= o.Budget {
			res.Exhausted = true
			return res
		}
		s, other, forward := up, down, true
		if up.cands.Len() == 0 ||
			(down.cands.Len() > 0 && (*down.cands)[0].w > (*up.cands)[0].w) {
			s, other, forward = down, up, false
		}
		c := heap.Pop(s.cands).(cand)
		if s.active[c.m] {
			continue
		}
		add(s, other, c.m)
		if found {
			res.Answer = true
			return res
		}
		o.expand(s, c.m, forward, cu, cv)
	}
	return res
}

// expand pushes the admissible tree neighbors of landmark m onto the
// side's candidate heap. For the forward side (landmarks reachable from
// cu) an edge is traversable when it witnesses m → neighbor; for the
// backward side when it witnesses neighbor → m.
func (o *Oracle) expand(s *side, m graph.NodeID, forward bool, cu, cv graph.NodeID) {
	x := o.Index
	push := func(n graph.NodeID) {
		if s.active[n] || s.queued[n] {
			return
		}
		// Lemma 5(2) guard: a landmark strictly between cu and cv on a
		// witnessing path must have a topological rank strictly between
		// rank(cv) and rank(cu), and every tree-chain witness passes only
		// through such landmarks, so out-of-window nodes (and hence their
		// whole chains) are useless — except the endpoints themselves,
		// which may be landmarks.
		if n != cu && n != cv &&
			(x.Rank(n) >= x.Rank(cu) || x.Rank(n) <= x.Rank(cv)) {
			return
		}
		s.queued[n] = true
		heap.Push(s.cands, cand{m: n, w: o.weight(s, n)})
	}
	// Roll up: a parent link is usable if its direction matches.
	for _, e := range x.Parents(m) {
		if forward && !e.Down { // m reaches parent, so cu → m → parent
			push(e.Other)
		}
		if !forward && e.Down { // parent reaches m, so parent → m → cv
			push(e.Other)
		}
	}
	// Drill down into children likewise.
	for _, e := range x.Children(m) {
		if forward && e.Down { // m reaches child
			push(e.Other)
		}
		if !forward && !e.Down { // child reaches m
			push(e.Other)
		}
	}
}

// weight is w(m) = p(m)/(c(m)+1) of Section 5.2: potential is the cover
// size minus the covers of already-active children; cost is the subtree
// size minus the sizes of already-visited child subtrees.
func (o *Oracle) weight(s *side, m graph.NodeID) float64 {
	x := o.Index
	p := float64(x.Cover(m))
	c := float64(x.SubtreeSize(m))
	for _, e := range x.Children(m) {
		if s.active[e.Other] {
			p -= float64(x.Cover(e.Other))
			c -= float64(x.SubtreeSize(e.Other))
		}
	}
	if p < 0 {
		p = 0
	}
	if c < 0 {
		c = 0
	}
	return p / (c + 1)
}

type cand struct {
	m graph.NodeID
	w float64
}

type candHeap []cand

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return h[i].w > h[j].w }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(cand)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}
