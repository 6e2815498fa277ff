package graph

// This file holds the graph-owned traversal scratch pools. Every
// breadth-first walk over a Graph — BFS, Walk, Reachable, BallInto,
// RegionInto — needs a dense per-node visited marker and a queue; both
// are pooled on the Graph itself so steady-state traversals never touch
// the allocator, mirroring the per-engine scratch pools that Aux owns
// for the query engines. RegionInto and BallInto borrow only the queue:
// their walk marks nodes in the position table of the FragCSR it fills.

// visited is a pooled, epoch-stamped per-node marker for one walk over
// the graph. Marking is a single array access with no hashing, and
// clearing is O(1): acquiring a visited from the graph's pool bumps its
// epoch instead of zeroing the array. It is owned by a single goroutine
// between acquireVisited and the pool Put.
type visited struct {
	stamp []uint32
	epoch uint32
}

// mark records v and reports whether it was unmarked.
func (m *visited) mark(v NodeID) bool {
	if m.stamp[v] == m.epoch {
		return false
	}
	m.stamp[v] = m.epoch
	return true
}

// acquireVisited borrows an empty visited sized for g from the graph's
// pool.
func (g *Graph) acquireVisited() *visited {
	m, _ := g.visitPool.Get().(*visited)
	if m == nil || len(m.stamp) < g.NumNodes() {
		m = &visited{stamp: make([]uint32, g.NumNodes())}
	}
	if m.epoch == ^uint32(0) { // wrapped: stale stamps could alias
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch++
	return m
}

// travItem is one BFS queue entry: a node and its depth.
type travItem struct {
	v NodeID
	d int32
}

// trav is the pooled queue/order scratch of one traversal.
type trav struct {
	queue  []travItem
	labels []uint64 // RegionInto's label bitset
}

func (g *Graph) acquireTrav() *trav {
	t, _ := g.travPool.Get().(*trav)
	if t == nil {
		t = &trav{queue: make([]travItem, 0, 64)}
	}
	return t
}

func (g *Graph) releaseTrav(t *trav) {
	t.queue = t.queue[:0]
	g.travPool.Put(t)
}
