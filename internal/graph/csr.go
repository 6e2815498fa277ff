package graph

import "slices"

// FragCSR is a reusable, allocation-free materialization of an induced
// subgraph: plain CSR arrays over dense positions 0..N-1, where position i
// is the i-th node of the materializing node list (a Fragment's insertion
// order, or a region's or ball's BFS discovery order). It holds no maps
// and interns no labels — Labels carries the parent graph's LabelIDs — so
// the downstream matchers can run on it without touching the Go allocator
// once the backing slices have grown to a steady-state size. The exact
// matchers see every subgraph through it: the reduced fragments G_Q
// (Fragment.CSRInto, from the fragment's own edge log), the d_Q-regions
// of the exact baselines (RegionInto) and StrongSim's balls (BallInto,
// Graph.CSRInto) are all FragCSR views of the parent graph.
//
// A view built from a node list keeps a dense position index over the
// parent's nodes, 8 bytes per node; RegionInto's walk marks its
// discoveries in that same index. A fragment's view keeps none: the
// fragment knows its members' positions, and PosOf asks it.
//
// A FragCSR is owned by exactly one query evaluation at a time (see the
// scratch pools on Aux and the ball pools of the matcher packages); it is
// not safe for concurrent use.
type FragCSR struct {
	// OutStart/OutAdj and InStart/InAdj are the induced adjacency in CSR
	// form over positions, each segment sorted ascending.
	OutStart, InStart []int32
	OutAdj, InAdj     []int32
	// Labels[i] is the parent-graph LabelID of position i.
	Labels []LabelID
	// Orig[i] is the parent-graph node at position i. The slice is owned
	// by the FragCSR; do not modify.
	Orig []NodeID

	index posIndex  // positions of a view built from a node list
	frag  *Fragment // the fragment a fragment view was built from, else nil
	next  []int32   // counting-sort cursor scratch
}

// posIndex maps parent nodes to positions in a dense array,
// epoch-stamped so reuse across queries needs no O(|V|) clear:
// pos[v] = epoch<<32 | position.
type posIndex struct {
	pos   []uint64
	epoch uint32
}

// renew empties the index for a graph of n nodes. A pooled FragCSR serves
// successive snapshots of a growing graph: regrow with headroom, so that
// a node added per publish does not cost 8·|V| bytes per publish.
func (x *posIndex) renew(n int) {
	if len(x.pos) < n {
		x.pos = make([]uint64, n+n/8)
		x.epoch = 0
	}
	x.epoch++
	if x.epoch == 0 { // wrapped: stale stamps could collide, clear once
		clear(x.pos)
		x.epoch = 1
	}
}

// get returns v's position, or -1 if v has none this epoch.
func (x *posIndex) get(v NodeID) int32 {
	if p := x.pos[v]; uint32(p>>32) == x.epoch {
		return int32(uint32(p))
	}
	return -1
}

func (x *posIndex) set(v NodeID, p int32) { x.pos[v] = uint64(x.epoch)<<32 | uint64(uint32(p)) }

// sized returns s resized to n, reallocating only on growth. Contents are
// unspecified; callers overwrite or clear as needed.
func sized[T ~int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NumNodes returns the number of positions (induced-subgraph nodes).
func (c *FragCSR) NumNodes() int { return len(c.Orig) }

// NumEdges returns the number of induced edges.
func (c *FragCSR) NumEdges() int { return len(c.OutAdj) }

// Size returns nodes + edges, the paper's |·| measure of the view.
func (c *FragCSR) Size() int { return c.NumNodes() + c.NumEdges() }

// PosOf returns the position of parent node v, or -1 if v is not in the
// materialized subgraph. A fragment's view answers from the fragment, so
// it is valid until the fragment changes.
func (c *FragCSR) PosOf(v NodeID) int32 {
	if c.frag != nil {
		return c.frag.PosOf(v)
	}
	if int(v) >= len(c.index.pos) {
		return -1
	}
	return c.index.get(v)
}

// Out returns the children of position i, ascending.
func (c *FragCSR) Out(i int32) []int32 { return c.OutAdj[c.OutStart[i]:c.OutStart[i+1]] }

// In returns the parents of position i, ascending.
func (c *FragCSR) In(i int32) []int32 { return c.InAdj[c.InStart[i]:c.InStart[i+1]] }

// OutDegree returns the number of children of position i.
func (c *FragCSR) OutDegree(i int32) int { return int(c.OutStart[i+1] - c.OutStart[i]) }

// InDegree returns the number of parents of position i.
func (c *FragCSR) InDegree(i int32) int { return int(c.InStart[i+1] - c.InStart[i]) }

// HasEdge reports whether the induced edge (i, j) exists, by binary search
// over i's sorted out segment.
func (c *FragCSR) HasEdge(i, j int32) bool {
	return containsSorted(c.Out(i), j)
}

// CSRInto materializes the subgraph of g induced by nodes into c, reusing
// c's backing slices: every edge of g with both endpoints in nodes is
// kept. Duplicate entries in nodes are ignored; position order follows the
// first occurrence of each node. Each adjacency segment comes out sorted
// ascending, so matchers explore candidates in a deterministic order
// independent of how the node list was produced. A node's out-list is
// scanned, or probed for every position when it is more than ScanRatio
// times longer (see Fragment.InducedEdgeCost), so a hub in a small
// subgraph costs O(|nodes|·log d), not O(d).
func (g *Graph) CSRInto(nodes []NodeID, c *FragCSR) {
	c.index.renew(g.NumNodes())
	// Claim positions in first-occurrence order, deduplicating via the
	// fresh epoch stamps.
	if cap(c.Orig) < len(nodes) {
		c.Orig = make([]NodeID, 0, len(nodes))
	}
	c.Orig = c.Orig[:0]
	for _, v := range nodes {
		if c.index.get(v) >= 0 {
			continue
		}
		c.index.set(v, int32(len(c.Orig)))
		c.Orig = append(c.Orig, v)
	}
	g.buildCSR(c)
}

// buildCSR fills c's adjacency and labels for the positions c.Orig, whose
// nodes c.index already maps to their positions.
func (g *Graph) buildCSR(c *FragCSR) {
	c.frag = nil
	n := int32(len(c.Orig))
	c.Labels = sized(c.Labels, int(n))
	for i, v := range c.Orig {
		c.Labels[i] = g.LabelOf(v)
	}

	// Out CSR in one pass: segments are appended in position order, so
	// each start is simply how many edges precede it — no counting pass,
	// and each neighbour's position is looked up once. Sort each segment
	// by position.
	c.OutStart = sized(c.OutStart, int(n)+1)
	c.OutAdj = c.OutAdj[:0]
	for i, v := range c.Orig {
		k := len(c.OutAdj)
		c.OutStart[i] = int32(k)
		out := g.Out(v)
		if len(out) > ScanRatio*int(n) {
			// A hub: probe its list for each position, which appends the
			// segment already in position order.
			for p, w := range c.Orig {
				if containsSorted(out, w) {
					c.OutAdj = append(c.OutAdj, int32(p))
				}
			}
			continue
		}
		for _, w := range out {
			if p := c.index.get(w); p >= 0 {
				c.OutAdj = append(c.OutAdj, p)
			}
		}
		if seg := c.OutAdj[k:]; !slices.IsSorted(seg) {
			slices.Sort(seg)
		}
	}
	m := len(c.OutAdj)
	c.OutStart[n] = int32(m)

	// In CSR by stable counting over the out edges: rows ascending because
	// sources are visited in ascending position order.
	c.InStart = sized(c.InStart, int(n)+1)
	clear(c.InStart)
	for _, w := range c.OutAdj {
		c.InStart[w+1]++
	}
	for i := int32(0); i < n; i++ {
		c.InStart[i+1] += c.InStart[i]
	}
	c.InAdj = sized(c.InAdj, m)
	c.next = sized(c.next, int(n))
	copy(c.next, c.InStart[:n])
	for i := int32(0); i < n; i++ {
		for _, w := range c.Out(i) {
			c.InAdj[c.next[w]] = i
			c.next[w]++
		}
	}
}

// CSRInto materializes the fragment into c, reusing c's backing slices.
// Positions follow insertion order, so a matcher that walks the CSR
// explores candidates deterministically in the order nodes entered the
// fragment. It reads no adjacency: both directions come from the
// fragment's edge log by two counting passes — one counts every edge
// into its source's and its target's row, one places it in both — and
// the log's order (see AddCost) leaves every row ascending. c keeps no
// position index of its own; PosOf asks f.
func (f *Fragment) CSRInto(c *FragCSR) {
	c.frag = f
	n := len(f.order)
	c.Orig = append(c.Orig[:0], f.order...)
	c.Labels = sized(c.Labels, n)
	for i, v := range f.order {
		c.Labels[i] = f.parent.LabelOf(v)
	}
	c.OutStart = sized(c.OutStart, n+1)
	c.InStart = sized(c.InStart, n+1)
	clear(c.OutStart)
	clear(c.InStart)
	for _, e := range f.edges {
		c.OutStart[e.src+1]++
		c.InStart[e.dst+1]++
	}
	for i := 0; i < n; i++ {
		c.OutStart[i+1] += c.OutStart[i]
		c.InStart[i+1] += c.InStart[i]
	}
	m := len(f.edges)
	c.OutAdj = sized(c.OutAdj, m)
	c.InAdj = sized(c.InAdj, m)
	c.next = sized(c.next, 2*n)
	out, in := c.next[:n], c.next[n:]
	copy(out, c.OutStart[:n])
	copy(in, c.InStart[:n])
	for _, e := range f.edges {
		c.OutAdj[out[e.src]] = e.dst
		out[e.src]++
		c.InAdj[in[e.dst]] = e.src
		in[e.dst]++
	}
}

// ToGraph rebuilds the view as a standalone Graph whose node i is the
// view's position i, re-interning label strings from parent. It is a
// cold-path helper for benchmarks and reference comparisons — the query
// engines always match on the FragCSR directly.
func (c *FragCSR) ToGraph(parent *Graph) *Graph {
	b := NewBuilder(c.NumNodes(), c.NumEdges())
	for i := 0; i < c.NumNodes(); i++ {
		b.AddNode(parent.LabelName(c.Labels[i]))
	}
	for i := int32(0); i < int32(c.NumNodes()); i++ {
		for _, j := range c.Out(i) {
			b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return b.Build()
}
