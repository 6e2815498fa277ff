package graph

import "slices"

// FragCSR is a reusable, allocation-free materialization of an induced
// subgraph: plain CSR arrays over dense positions 0..N-1, where position i
// is the i-th node of the materializing node list (a Fragment's insertion
// order, or a region's or ball's BFS discovery order). It holds no maps
// and interns no labels — Labels carries the parent graph's LabelIDs — so
// the downstream matchers can run on it without touching the Go allocator
// once the backing slices have grown to a steady-state size. It is the only
// subgraph representation in the system: the reduced fragments G_Q, the
// d_Q-regions of the exact baselines and StrongSim's balls are all
// FragCSR views of the parent graph.
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

	// pos maps a parent node to its position, epoch-stamped so reuse across
	// queries needs no O(|V|) clear: pos[v] = epoch<<32 | position.
	pos   []uint64
	epoch uint32
	next  []int32 // counting-sort cursor scratch
}

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
// materialized subgraph.
func (c *FragCSR) PosOf(v NodeID) int32 {
	if int(v) >= len(c.pos) {
		return -1
	}
	if p := c.pos[v]; uint32(p>>32) == c.epoch {
		return int32(uint32(p))
	}
	return -1
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
	// Refresh the epoch-stamped position index. A pooled FragCSR serves
	// successive snapshots of a growing graph: regrow with headroom, so
	// that a node added per publish does not cost 8·|V| bytes per publish.
	if n := g.NumNodes(); len(c.pos) < n {
		c.pos = make([]uint64, n+n/8)
		c.epoch = 0
	}
	c.epoch++
	if c.epoch == 0 { // wrapped: stale stamps could collide, clear once
		clear(c.pos)
		c.epoch = 1
	}

	// Claim positions in first-occurrence order, deduplicating via the
	// fresh epoch stamps.
	if cap(c.Orig) < len(nodes) {
		c.Orig = make([]NodeID, 0, len(nodes))
	}
	c.Orig = c.Orig[:0]
	for _, v := range nodes {
		if c.PosOf(v) >= 0 {
			continue
		}
		c.pos[v] = uint64(c.epoch)<<32 | uint64(uint32(len(c.Orig)))
		c.Orig = append(c.Orig, v)
	}
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
			if p := c.PosOf(w); p >= 0 {
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
// fragment.
func (f *Fragment) CSRInto(c *FragCSR) {
	f.parent.CSRInto(f.order, c)
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
