package graph

// This file holds the graph-owned traversal scratch pools. Every
// breadth-first walk over a Graph — BFS, Walk, BallInto, RegionInto,
// reachability baselines — needs a dense per-node visited marker and a
// queue; both are pooled on the Graph itself so steady-state traversals
// never touch the allocator, mirroring the per-engine scratch pools that
// Aux owns for the query engines. RegionInto and BallInto borrow only
// the queue: their walk marks nodes in the position table of the
// FragCSR it fills.

// Visited is a pooled, epoch-stamped per-node marker for traversals over
// one graph. Marking and probing are single array accesses with no
// hashing, and clearing is O(1): acquiring a Visited from the graph's pool
// bumps its epoch instead of zeroing the array.
//
// A Visited distinguishes two mark classes (0 and 1) so bidirectional
// searches can keep their forward and backward frontiers in one array.
// Like every pooled scratch value, a Visited is owned by a single
// goroutine between AcquireVisited and ReleaseVisited.
type Visited struct {
	stamp []uint32
	epoch uint32
}

// visitStride is the epoch step per acquisition; marks are epoch+class
// with class < visitStride, so stamps from earlier acquisitions are
// always below the current epoch.
const visitStride = 2

// Mark records v under the given class (0 or 1).
func (m *Visited) Mark(v NodeID, class uint32) { m.stamp[v] = m.epoch + class }

// Seen reports whether v has been marked since the Visited was acquired.
func (m *Visited) Seen(v NodeID) bool { return m.stamp[v] >= m.epoch }

// Class returns the class v was marked under, or -1 if v is unmarked.
func (m *Visited) Class(v NodeID) int {
	if s := m.stamp[v]; s >= m.epoch {
		return int(s - m.epoch)
	}
	return -1
}

// AcquireVisited borrows an empty Visited sized for g from the graph's
// pool. Callers must pair it with ReleaseVisited; the reachability
// baselines in internal/reach draw their per-query visited arrays from
// here.
func (g *Graph) AcquireVisited() *Visited {
	m, _ := g.visitPool.Get().(*Visited)
	if m == nil || len(m.stamp) < g.NumNodes() {
		m = &Visited{stamp: make([]uint32, g.NumNodes())}
	}
	if m.epoch >= ^uint32(0)-2*visitStride { // wrapped: stale stamps could alias
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch += visitStride
	return m
}

// ReleaseVisited returns a Visited to the graph's pool.
func (g *Graph) ReleaseVisited(m *Visited) { g.visitPool.Put(m) }

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
