package graph

import (
	"math/bits"
	"slices"
)

// Fragment is a mutable subgraph G_Q of a parent graph, grown one node at a
// time by the dynamic reduction of Section 4. It tracks its size
// |G_Q| = nodes + edges so callers can enforce the resource bound α|G|
// before every insertion, and it materializes itself as a FragCSR view
// (CSRInto) for the downstream exact matcher (strong simulation or VF2).
//
// Fragments hold *induced* subgraphs: adding a node also adds every edge of
// the parent between the new node and nodes already present, matching the
// paper's "subgraph induced by the nodes" (Example 2). InducedEdgeCost
// prices an insertion by finding those edges, and AddCost commits them to
// the fragment's edge log, so the fragment records G_Q's edges as it grows
// and CSRInto never reads the parent's adjacency again.
//
// Membership is a dense bitset over |V|, so Contains is a single word
// probe with no hashing and no allocation. Everything else a fragment
// holds — insertion order, per-label members, the edge log and the
// member-to-position table — is sized by the fragment, not by |V|. A
// fragment can be reused across queries on the same parent via Reset,
// which clears only the bits of the nodes it actually holds (O(|G_Q|),
// not O(|V|)), and moved to another graph via Rebind, which grows the
// bitset only when that graph has more nodes; the per-query engine pools
// of Aux rely on both to keep steady-state query evaluation
// allocation-free across snapshots. A Fragment is not safe for concurrent
// use.
type Fragment struct {
	parent  *Graph
	member  []uint64   // bitset over parent nodes
	order   []NodeID   // insertion order: order[i] sits at position i
	byLabel [][]NodeID // byLabel[l]: the members labelled l, in insertion order
	edges   []posEdge  // the induced edges, in the order AddCost committed them
	index   posTable   // member → position

	// The induced edges InducedEdgeCost found for staged: positions of its
	// member parents and children, each ascending, and its self-loop.
	staged              NodeID
	stagedIn, stagedOut []int32
	stagedLoop          bool

	reads int // what pricing insertions read since Reset; see Reads
}

// posEdge is an induced edge between two fragment positions.
type posEdge struct{ src, dst int32 }

// NewFragment returns an empty fragment over parent.
func NewFragment(parent *Graph) *Fragment {
	return &Fragment{
		parent: parent,
		member: make([]uint64, (parent.NumNodes()+63)/64),
		staged: NoNode,
	}
}

// Reset empties the fragment for reuse on the same parent graph, clearing
// only the bits of its current nodes.
func (f *Fragment) Reset() {
	for _, v := range f.order {
		f.member[v>>6] &^= 1 << (uint(v) & 63)
		l := f.parent.LabelOf(v)
		f.byLabel[l] = f.byLabel[l][:0]
	}
	f.order = f.order[:0]
	f.edges = f.edges[:0]
	f.index.clear()
	f.staged = NoNode
	f.reads = 0
}

// Rebind empties the fragment and makes it a subgraph of parent — any
// graph, typically the next or previous snapshot of the one it last
// served. The bitset is kept when it covers parent and regrown, with
// headroom for the nodes later snapshots add, when it does not.
func (f *Fragment) Rebind(parent *Graph) {
	f.Reset()
	f.parent = parent
	if words := (parent.NumNodes() + 63) / 64; words > len(f.member) {
		f.member = make([]uint64, words+words/8)
	}
}

// Release empties the fragment and drops its parent, so that a pooled
// fragment keeps no graph alive while idle; Rebind puts it back to use.
func (f *Fragment) Release() {
	f.Reset()
	f.parent = nil
}

// Parent returns the graph this fragment is a subgraph of.
func (f *Fragment) Parent() *Graph { return f.parent }

// Contains reports whether parent node v is in the fragment.
func (f *Fragment) Contains(v NodeID) bool {
	return f.member[v>>6]&(1<<(uint(v)&63)) != 0
}

// PosOf returns v's position — its index in insertion order, and so in
// the FragCSR view — or -1 if v is not in the fragment.
func (f *Fragment) PosOf(v NodeID) int32 {
	if !f.Contains(v) {
		return -1
	}
	return f.index.get(v)
}

// NumNodes returns the number of nodes currently in the fragment.
func (f *Fragment) NumNodes() int { return len(f.order) }

// NumEdges returns the number of induced edges currently in the fragment.
func (f *Fragment) NumEdges() int { return len(f.edges) }

// Size returns |G_Q| = nodes + edges.
func (f *Fragment) Size() int { return len(f.order) + len(f.edges) }

// Reads returns what finding induced edges has read from the parent since
// the last Reset: a list entry for each entry of a list scanned, and one
// per binary search of a list probed for a fragment node (see
// InducedEdgeCost).
func (f *Fragment) Reads() int { return f.reads }

// InducedEdgeCost returns the number of parent edges between v and the
// fragment's current nodes, i.e. how many edges adding v would contribute.
// Self-loops on v count once. Returns 0 if v is already present. Each of
// v's lists is scanned, or probed for every fragment node, whichever side
// is smaller (see ScanRatio): pricing a hub costs O(|G_Q|·log d), not
// O(d). The edges found are staged for AddCost to commit.
func (f *Fragment) InducedEdgeCost(v NodeID) int {
	if f.Contains(v) {
		return 0
	}
	f.stage(v)
	n := len(f.stagedIn) + len(f.stagedOut)
	if f.stagedLoop {
		n++
	}
	return n
}

// ScanRatio is the smaller-side rule of the reduction's fragment probes:
// a neighbor list up to ScanRatio times longer than the node set it is
// matched against is scanned; a longer one is binary-searched for each
// node of the set instead.
const ScanRatio = 4

// stage records the induced edges of the absent node v.
func (f *Fragment) stage(v NodeID) {
	f.staged = v
	f.stagedOut, f.stagedLoop = f.membersIn(f.parent.Out(v), v, f.stagedOut[:0])
	f.stagedIn, _ = f.membersIn(f.parent.In(v), NoNode, f.stagedIn[:0])
}

// membersIn appends to dst the positions of the fragment nodes that occur
// in adj, a parent list in adjacency order, ascending, reading whichever
// side is smaller, and reports whether self (NoNode for none) occurs in
// adj too.
func (f *Fragment) membersIn(adj []NodeID, self NodeID, dst []int32) (_ []int32, hasSelf bool) {
	if len(adj) <= ScanRatio*len(f.order) {
		f.reads += len(adj)
		for _, w := range adj {
			if f.Contains(w) {
				dst = append(dst, f.index.get(w))
			} else if w == self {
				hasSelf = true
			}
		}
		// Positions follow insertion order, not ids.
		if !slices.IsSorted(dst) {
			slices.Sort(dst)
		}
		return dst, hasSelf
	}
	f.reads += len(f.order)
	for p, w := range f.order {
		if f.parent.adjHas(adj, w) {
			dst = append(dst, int32(p))
		}
	}
	if self == NoNode {
		return dst, false
	}
	f.reads++
	return dst, f.parent.adjHas(adj, self)
}

// Add inserts v and its induced edges, returning the size increase
// (1 + InducedEdgeCost). Adding a present node is a no-op returning 0.
func (f *Fragment) Add(v NodeID) int {
	if f.Contains(v) {
		return 0
	}
	cost := f.InducedEdgeCost(v)
	f.AddCost(v)
	return 1 + cost
}

// AddCost inserts the absent node v, committing the induced edges that
// the last InducedEdgeCost(v) found — for callers that priced the
// insertion against a budget and must not pay for the adjacency reads
// again. If the fragment changed since v was priced, the edges are found
// anew.
//
// The log stays in an order that CSRInto's counting passes turn into
// ascending rows: v's position n exceeds every earlier one, so an edge
// appended here follows, in its source's row and in its target's, only
// edges to or from smaller positions — provided the staged positions are
// ascending and the self-loop (n, n) comes after v's other edges.
func (f *Fragment) AddCost(v NodeID) {
	if f.staged != v {
		f.stage(v)
	}
	n := int32(len(f.order))
	for _, p := range f.stagedIn {
		f.edges = append(f.edges, posEdge{p, n})
	}
	for _, c := range f.stagedOut {
		f.edges = append(f.edges, posEdge{n, c})
	}
	if f.stagedLoop {
		f.edges = append(f.edges, posEdge{n, n})
	}
	f.staged = NoNode

	f.member[v>>6] |= 1 << (uint(v) & 63)
	f.order = append(f.order, v)
	f.index.add(v, n)
	l := f.parent.LabelOf(v)
	for int(l) >= len(f.byLabel) {
		f.byLabel = append(f.byLabel, nil)
	}
	f.byLabel[l] = append(f.byLabel[l], v)
}

// Nodes returns the fragment's nodes in insertion order. The slice is
// shared and must not be modified.
func (f *Fragment) Nodes() []NodeID { return f.order }

// NodesLabeled returns the fragment's nodes labelled l, in insertion
// order. The slice is shared and must not be modified.
func (f *Fragment) NodesLabeled(l LabelID) []NodeID {
	if l < 0 || int(l) >= len(f.byLabel) {
		return nil
	}
	return f.byLabel[l]
}

// posTable maps nodes to their positions — a fragment's members, or the
// nodes of a FragCSR view built from a node list: open addressing with
// linear probing over a power-of-two table kept at most half full, sized
// by the nodes it holds rather than by |V|. Slots are epoch-stamped, so
// clear empties the table in O(1).
type posTable struct {
	slots []posSlot
	shift uint8 // 32 - log2(len(slots)): hashes keep their top bits
	epoch uint32
	n     int // entries this epoch
}

type posSlot struct {
	v     NodeID
	pos   int32
	epoch uint32
}

// minPosSlots is the smallest table; it holds 32 nodes.
const minPosSlots = 64

func (t *posTable) home(v NodeID) uint32 { return uint32(v) * 0x9E3779B1 >> t.shift }

// get returns v's position, or -1 when the table does not hold v: the
// probe stops at the first slot empty this epoch.
func (t *posTable) get(v NodeID) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(v); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return -1
		}
		if s.v == v {
			return s.pos
		}
	}
}

// add records v at position pos unless the table holds v already, and
// reports whether it did: one probe sequence both tests and claims. The
// table doubles when it would be more than half full.
func (t *posTable) add(v NodeID, pos int32) bool {
	if 2*(t.n+1) > len(t.slots) {
		old, live := t.slots, t.epoch
		size := max(minPosSlots, 2*len(old))
		t.slots = make([]posSlot, size)
		t.shift = uint8(32 - bits.Len(uint(size-1)))
		t.epoch, t.n = 1, 0
		for _, s := range old {
			if s.epoch == live {
				t.add(s.v, s.pos)
			}
		}
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(v); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			*s = posSlot{v: v, pos: pos, epoch: t.epoch}
			t.n++
			return true
		}
		if s.v == v {
			return false
		}
	}
}

// clear empties the table, keeping its slots.
func (t *posTable) clear() {
	t.n = 0
	t.epoch++
	if t.epoch == 0 { // wrapped: stale stamps could read as live
		clear(t.slots)
		t.epoch = 1
	}
}
