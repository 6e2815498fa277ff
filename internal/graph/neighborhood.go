package graph

import "rbq/internal/interrupt"

// This file implements the locality machinery of Section 2 of the paper:
// N_r(v), the set of nodes within r hops of v following edges in either
// direction; G_r(v), the subgraph induced by N_r(v), materialized as a
// pooled FragCSR by BallInto; its label-closed sub-region, the part of
// the ball a pattern's matches can occupy, materialized by RegionInto
// for the exact baselines; directed BFS utilities; and the graph
// diameter used for pattern queries.

// Direction selects which edges a traversal follows.
type Direction int

const (
	// Forward follows edges from source to target (children).
	Forward Direction = iota
	// Backward follows edges from target to source (parents).
	Backward
	// Both follows edges in either direction, as in the paper's
	// r-hop neighborhoods.
	Both
)

// NodesWithin returns N_r(v): every node reachable from v by a path of at
// most r edges, following edges in either direction (Section 2 of the
// paper). The result includes v itself, is in BFS order, and is freshly
// allocated (callers own it).
func (g *Graph) NodesWithin(v NodeID, r int) []NodeID {
	return g.BFS(v, Both, r, nil)
}

// Walk runs a breadth-first traversal from start, following dir edges, up
// to maxDepth hops (maxDepth < 0 means unbounded), calling visit(node,
// depth) for every discovered node; a false return stops the traversal
// early. Unlike BFS it records no discovery order, so steady-state calls
// allocate nothing: the visited marker and the queue come from the
// graph's traversal pools.
func (g *Graph) Walk(start NodeID, dir Direction, maxDepth int, visit func(v NodeID, depth int) bool) {
	g.walk(start, dir, maxDepth, visit, nil, nil, nil, nil)
}

// BFS is Walk plus discovery order: it returns the visited nodes in the
// order they were found, as a fresh slice the caller owns. visit may be
// nil.
func (g *Graph) BFS(start NodeID, dir Direction, maxDepth int, visit func(v NodeID, depth int) bool) []NodeID {
	order := make([]NodeID, 0, 64)
	order, _ = g.walk(start, dir, maxDepth, visit, order, nil, nil, nil)
	return order
}

// walkSeen is a walk's visited marker: a pooled Visited, or the position
// index of the FragCSR a region is materialized into, which then records
// each node's discovery position — its index in the BFS queue.
type walkSeen struct {
	vis *Visited
	idx *posIndex
}

// discover marks w, the queue's p-th node, and reports whether it was
// unmarked.
func (s walkSeen) discover(w NodeID, p int) bool {
	if s.idx != nil {
		if s.idx.get(w) >= 0 {
			return false
		}
		s.idx.set(w, int32(p))
		return true
	}
	if s.vis.Seen(w) {
		return false
	}
	s.vis.Mark(w, 0)
	return true
}

// walk is the shared BFS core. When order is non-nil every discovered
// node is appended to it; the (possibly grown) slice is returned. A
// non-nil done channel is polled every interrupt.Stride dequeued nodes;
// when it fires the traversal stops and complete reports false (the
// partial order is returned for the caller to discard). A nil done
// costs nothing: the probe branch tests the dequeue counter first.
//
// A non-nil within is a bitset over LabelIDs (see labelSet) that closes
// the traversal under labels: a neighbour whose label is not in it is
// neither visited nor expanded, so the walk stays inside the connected
// part of start that carries those labels. start itself is exempt.
//
// A non-nil idx, renewed for g by the caller, is the visited marker: it
// ends up mapping every discovered node to its discovery position.
// Otherwise the walk borrows a Visited from the graph's pool.
func (g *Graph) walk(start NodeID, dir Direction, maxDepth int, visit func(v NodeID, depth int) bool, order []NodeID, done <-chan struct{}, within []uint64, idx *posIndex) (_ []NodeID, complete bool) {
	seen := walkSeen{idx: idx}
	if idx == nil {
		seen.vis = g.AcquireVisited()
		defer g.ReleaseVisited(seen.vis)
	}
	tr := g.acquireTrav()
	defer g.releaseTrav(tr)

	queue := append(tr.queue[:0], travItem{start, 0})
	seen.discover(start, 0)
	for head := 0; head < len(queue); head++ {
		if head&(interrupt.Stride-1) == interrupt.Stride-1 && interrupt.Fired(done) {
			tr.queue = queue
			return order, false
		}
		it := queue[head]
		if order != nil {
			order = append(order, it.v)
		}
		if visit != nil && !visit(it.v, int(it.d)) {
			break
		}
		if maxDepth >= 0 && int(it.d) == maxDepth {
			continue
		}
		if dir != Backward {
			for _, w := range g.Out(it.v) {
				if within != nil && !hasLabel(within, g.LabelOf(w)) {
					continue
				}
				if seen.discover(w, len(queue)) {
					queue = append(queue, travItem{w, it.d + 1})
				}
			}
		}
		if dir != Forward {
			for _, w := range g.In(it.v) {
				if within != nil && !hasLabel(within, g.LabelOf(w)) {
					continue
				}
				if seen.discover(w, len(queue)) {
					queue = append(queue, travItem{w, it.d + 1})
				}
			}
		}
	}
	tr.queue = queue // keep grown capacity pooled
	return order, true
}

// Reachable reports whether to is reachable from from by a directed path
// (including the trivial empty path when from == to). Steady-state calls
// allocate nothing.
func (g *Graph) Reachable(from, to NodeID) bool {
	if from == to {
		return true
	}
	found := false
	g.Walk(from, Forward, -1, func(v NodeID, _ int) bool {
		if v == to {
			found = true
			return false
		}
		return true
	})
	return found
}

// Eccentricity returns the longest shortest-path distance from v to any
// node reachable from it under dir, in hops.
func (g *Graph) Eccentricity(v NodeID, dir Direction) int {
	max := 0
	g.Walk(v, dir, -1, func(_ NodeID, d int) bool {
		if d > max {
			max = d
		}
		return true
	})
	return max
}

// Diameter returns the length of the longest shortest path between any two
// nodes, treating edges per dir and considering only connected pairs. It is
// O(|V|·|E|) and intended for patterns and small test graphs, matching its
// use in the paper (d_Q is always computed on a query, never on G).
func (g *Graph) Diameter(dir Direction) int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if e := g.Eccentricity(NodeID(v), dir); e > max {
			max = e
		}
	}
	return max
}

// BallInto materializes G_r(v), the subgraph induced by N_r(v) (the
// paper's r-neighborhood graph of v), into the reusable CSR c: RegionInto
// with no label constraint. StrongSim's per-center balls and the bench
// harness's ball-size column use it — their membership is by distance
// through nodes of any label.
func (g *Graph) BallInto(v NodeID, r int, c *FragCSR, done <-chan struct{}) (complete bool) {
	return g.RegionInto(v, r, nil, c, done)
}

// RegionInto materializes into the reusable CSR c the subgraph induced
// by the label-closed r-region of v: the nodes reachable from v by a
// path of at most r edges, in either direction, all of whose nodes carry
// one of labels (NoLabel entries are ignored; v itself is always
// included). It is a subset of the ball N_r(v), and equals it when
// labels is nil. Positions follow BFS discovery order from v, so
// c.PosOf(v) == 0 always holds. The traversal scratch — the label bitset
// included — comes from the graph's pools and c reuses its backing
// slices, so repeated extractions allocate nothing once warm — this is
// the hot path of the exact baselines (MatchOpt, VF2Opt), which pass the
// pattern's labels: every match of a connected pattern pinned at v is
// joined to v by the image of a pattern path, whose nodes all carry
// pattern labels, so the region holds every match and everything a match
// depends on, and is typically a small fraction of the ball.
//
// done is a cooperative cancellation probe in the extraction BFS (polled
// every interrupt.Stride dequeued nodes; nil never fires): giant regions
// on dense graphs are the expensive half of the exact baselines, and a
// bounded cancellation latency must cover them, not just the matcher that
// follows. When done fires the extraction is abandoned — complete reports
// false and c holds an unspecified partial state the caller must not use.
func (g *Graph) RegionInto(v NodeID, r int, labels []LabelID, c *FragCSR, done <-chan struct{}) (complete bool) {
	tr := g.acquireTrav()
	defer g.releaseTrav(tr)
	var within []uint64
	if labels != nil {
		tr.labels = labelSet(tr.labels, g.NumLabels(), labels)
		within = tr.labels
	}
	// The walk claims each node's position in c's own index as it
	// discovers it, in the order it appends the node to c.Orig.
	c.index.renew(g.NumNodes())
	if c.Orig == nil {
		c.Orig = make([]NodeID, 0, 64)
	}
	c.Orig, complete = g.walk(v, Both, r, nil, c.Orig[:0], done, within, &c.index)
	if !complete {
		return false
	}
	g.buildCSR(c)
	return true
}

// labelSet fills buf, reusing its capacity, with the bitset over
// [0, numLabels) whose members are labels; NoLabel entries are skipped.
// The result is never nil, so walk takes it as a constraint even when
// it is empty.
func labelSet(buf []uint64, numLabels int, labels []LabelID) []uint64 {
	words := (numLabels + 63) / 64
	if buf == nil || cap(buf) < words {
		buf = make([]uint64, words)
	}
	buf = buf[:words]
	clear(buf)
	for _, l := range labels {
		if l != NoLabel {
			buf[l>>6] |= 1 << (uint(l) & 63)
		}
	}
	return buf
}

func hasLabel(set []uint64, l LabelID) bool { return set[l>>6]&(1<<(uint(l)&63)) != 0 }
