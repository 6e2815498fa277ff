package graph

// Fragment is a mutable subgraph G_Q of a parent graph, grown one node at a
// time by the dynamic reduction of Section 4. It tracks its size
// |G_Q| = nodes + edges so callers can enforce the resource bound α|G|
// before every insertion, and it materializes itself as a FragCSR view
// (CSRInto) for the downstream exact matcher (strong simulation or VF2).
//
// Fragments hold *induced* subgraphs: adding a node also adds every edge of
// the parent between the new node and nodes already present, matching the
// paper's "subgraph induced by the nodes" (Example 2). InducedEdgeCost lets
// the caller price an insertion before committing to it with AddCost.
//
// Membership is a dense bitset over |V|, so Contains is a single word
// probe with no hashing and no allocation. A fragment can be reused across
// queries on the same parent via Reset, which clears only the bits of the
// nodes it actually holds (O(|G_Q|), not O(|V|)), and moved to another
// graph via Rebind, which grows the bitset only when that graph has more
// nodes; the per-query engine pools of Aux rely on both to keep
// steady-state query evaluation allocation-free across snapshots. A
// Fragment is not safe for concurrent use.
type Fragment struct {
	parent  *Graph
	member  []uint64   // bitset over parent nodes
	order   []NodeID   // insertion order, for deterministic materialization
	byLabel [][]NodeID // byLabel[l]: the members labelled l, in insertion order
	edges   int
}

// NewFragment returns an empty fragment over parent.
func NewFragment(parent *Graph) *Fragment {
	return &Fragment{
		parent: parent,
		member: make([]uint64, (parent.NumNodes()+63)/64),
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
	f.edges = 0
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

// NumNodes returns the number of nodes currently in the fragment.
func (f *Fragment) NumNodes() int { return len(f.order) }

// NumEdges returns the number of induced edges currently in the fragment.
func (f *Fragment) NumEdges() int { return f.edges }

// Size returns |G_Q| = nodes + edges.
func (f *Fragment) Size() int { return len(f.order) + f.edges }

// InducedEdgeCost returns the number of parent edges between v and the
// fragment's current nodes, i.e. how many edges adding v would contribute.
// Self-loops on v count once. Returns 0 if v is already present. Each of
// v's lists is scanned, or probed for every fragment node, whichever side
// is smaller (see ScanRatio): pricing a hub costs O(|G_Q|·log d), not
// O(d).
func (f *Fragment) InducedEdgeCost(v NodeID) int {
	if f.Contains(v) {
		return 0
	}
	out := f.parent.Out(v)
	cost := f.membersIn(out) + f.membersIn(f.parent.In(v))
	if containsSorted(out, v) {
		cost++
	}
	return cost
}

// ScanRatio is the smaller-side rule of the reduction's fragment probes:
// a neighbor list up to ScanRatio times longer than the node set it is
// matched against is scanned; a longer one is binary-searched for each
// node of the set instead.
const ScanRatio = 4

// membersIn returns how many fragment nodes occur in the ascending list
// adj, reading whichever side is smaller.
func (f *Fragment) membersIn(adj []NodeID) int {
	n := 0
	if len(adj) <= ScanRatio*len(f.order) {
		for _, w := range adj {
			if f.Contains(w) {
				n++
			}
		}
		return n
	}
	for _, w := range f.order {
		if containsSorted(adj, w) {
			n++
		}
	}
	return n
}

// Add inserts v and its induced edges, returning the size increase
// (1 + InducedEdgeCost). Adding a present node is a no-op returning 0.
func (f *Fragment) Add(v NodeID) int {
	if f.Contains(v) {
		return 0
	}
	cost := f.InducedEdgeCost(v)
	f.AddCost(v, cost)
	return 1 + cost
}

// AddCost inserts the absent node v given cost = InducedEdgeCost(v), for
// callers that priced the insertion against a budget and must not pay for
// the two adjacency scans again.
func (f *Fragment) AddCost(v NodeID, cost int) {
	f.member[v>>6] |= 1 << (uint(v) & 63)
	f.order = append(f.order, v)
	l := f.parent.LabelOf(v)
	for int(l) >= len(f.byLabel) {
		f.byLabel = append(f.byLabel, nil)
	}
	f.byLabel[l] = append(f.byLabel[l], v)
	f.edges += cost
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
