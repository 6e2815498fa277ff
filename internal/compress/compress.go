// Package compress implements the reachability-preserving graph
// compression used as the preprocessing step of Section 5 of Fan, Wang &
// Wu (SIGMOD 2014): reducing a possibly cyclic graph G to a directed
// acyclic graph G_DAG such that for all reachability queries Q,
// Q(G) = Q(G_DAG).
//
// The paper delegates this step to query-preserving compression (Fan et
// al., SIGMOD 2012); for reachability that compression is exactly
// condensation by strongly connected components, implemented here with an
// iterative Tarjan algorithm (no recursion, so web-scale chains do not
// overflow the stack).
package compress

import (
	"slices"

	"rbq/internal/graph"
)

// Condensation is the DAG of strongly connected components of a graph.
type Condensation struct {
	// DAG is the component graph: one node per SCC, an edge (C1, C2)
	// whenever some member of C1 has an edge to some member of C2.
	DAG *graph.Graph
	// ComponentOf maps each original node to its DAG node.
	ComponentOf []graph.NodeID
	// Size holds the number of original nodes in each component.
	Size []int32
}

// NumComponents returns the number of SCCs.
func (c *Condensation) NumComponents() int { return c.DAG.NumNodes() }

// SameComponent reports whether two original nodes are mutually reachable.
func (c *Condensation) SameComponent(u, v graph.NodeID) bool {
	return c.ComponentOf[u] == c.ComponentOf[v]
}

// Reachable answers a reachability query on the original graph via the
// DAG; it is exact (the compression is reachability preserving) but runs a
// full BFS, so it serves as a reference, not as the resource-bounded path.
func (c *Condensation) Reachable(u, v graph.NodeID) bool {
	return c.DAG.Reachable(c.ComponentOf[u], c.ComponentOf[v])
}

// Condense computes the SCC condensation of g using an iterative Tarjan
// algorithm in O(|V|+|E|). Components are numbered in reverse topological
// order of discovery and then re-emitted so that the DAG's edges always
// point from lower ranks of the original traversal; the DAG is validated
// by construction to be acyclic (tests assert this).
func Condense(g *graph.Graph) *Condensation {
	n := g.NumNodes()
	const unvisited = -1
	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]graph.NodeID, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = graph.NoNode
	}
	var stack []graph.NodeID
	var counter int32
	var compSizes []int32

	// Explicit DFS frames: node, and where its out-list starts, is read up
	// to and ends in byID. byID holds the open frames' out-lists, each
	// sorted by id, as a stack: the walk — and so the component numbering
	// — depends on the graph, not on the order it stores lists in.
	type frame struct {
		v               graph.NodeID
		start, idx, end int
	}
	var frames []frame
	var byID []graph.NodeID
	push := func(v graph.NodeID) {
		start := len(byID)
		byID = append(byID, g.Out(v)...)
		slices.Sort(byID[start:])
		frames = append(frames, frame{v, start, start, len(byID)})
	}

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		push(graph.NodeID(root))
		index[root] = counter
		lowlink[root] = counter
		counter++
		stack = append(stack, graph.NodeID(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.idx < f.end {
				w := byID[f.idx]
				f.idx++
				if index[w] == unvisited {
					index[w] = counter
					lowlink[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					push(w)
				} else if onStack[w] {
					if index[w] < lowlink[f.v] {
						lowlink[f.v] = index[w]
					}
				}
				continue
			}
			// Post-order: pop the frame, fold lowlink into the parent,
			// and emit a component if v is a root.
			v := f.v
			byID = byID[:f.start]
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				id := graph.NodeID(len(compSizes))
				var size int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					size++
					if w == v {
						break
					}
				}
				compSizes = append(compSizes, size)
			}
		}
	}

	// Build the component DAG. Tarjan emits components in reverse
	// topological order; keep that numbering (so edges go from
	// higher-numbered to lower-numbered components — a useful invariant
	// the tests check).
	b := graph.NewBuilder(len(compSizes), g.NumEdges())
	for range compSizes {
		b.AddNode("scc")
	}
	for v := 0; v < n; v++ {
		cv := comp[v]
		for _, w := range g.Out(graph.NodeID(v)) {
			if cw := comp[w]; cw != cv {
				b.AddEdge(cv, cw)
			}
		}
	}
	return &Condensation{DAG: b.Build(), ComponentOf: comp, Size: compSizes}
}
