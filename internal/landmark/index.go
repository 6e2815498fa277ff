package landmark

import (
	"fmt"
	"sort"

	"rbq/internal/graph"
)

// BuildOptions configures RBIndex.
type BuildOptions struct {
	// Alpha is the resource ratio α: the index holds at most ⌊α|G|/2⌋
	// landmarks and at most α|G| nodes+edges in total (Section 5.1).
	Alpha float64
	// FrontierCap bounds the per-node label sets v.E (landmark frontiers
	// reachable by landmark-free paths). The paper bounds |v.E| by
	// α|G|/2; the cap enforces a practical bound and only costs recall,
	// never soundness. Zero means the default 32.
	FrontierCap int
	// MaxLevels caps the hierarchy height; 1 produces the flat-index
	// ablation (rbbench -exp abl-flat: leaves only, no roll-up edges). Zero
	// means unlimited (the build stops when one landmark remains).
	MaxLevels int
	// AttachCap bounds how many upper-level landmarks each landmark may
	// link to. The paper connects a promoted landmark to every lower
	// landmark it reaches; the cap keeps the index within its α|G| size
	// budget on dense graphs. Zero means the default 4.
	AttachCap int
}

// TreeEdge is one index edge incident to a landmark. Down reports the
// reachability direction the edge witnesses: true when the upper (parent)
// landmark reaches the lower (child) one in the DAG, false when the child
// reaches the parent — the direction annotation of Section 5.1's labels.
type TreeEdge struct {
	Other graph.NodeID
	Down  bool
}

// Index is the hierarchical landmark index I: a leveled DAG over the
// landmarks of a data DAG with reachability-annotated edges, cover sizes,
// topological ranks and ranges, plus per-node frontier labels v.E for the
// non-landmark nodes. (The paper describes I as a forest; we allow each
// landmark a bounded number of upper-level links — see
// BuildOptions.AttachCap — which strictly increases recall at the same
// asymptotic size.)
type Index struct {
	dag  *graph.Graph
	opts BuildOptions

	// rank[v] is the topological rank of every DAG node.
	rank []int32

	landmarks  []graph.NodeID // all landmarks, selection order
	isLandmark []bool
	level      map[graph.NodeID]int

	// parents[c] holds the upper-level links of c; children[p] the
	// lower-level links of p. Edge direction semantics per TreeEdge.
	parents  map[graph.NodeID][]TreeEdge
	children map[graph.NodeID][]TreeEdge
	numEdges int

	// cover[m] is the cover size m.cs: (ancestors+1)·(descendants+1)−1, a
	// monotone proxy for the number of connected pairs m covers.
	cover map[graph.NodeID]int64
	// subtreeSize[m] estimates the number of index nodes under m.
	subtreeSize map[graph.NodeID]int
	// rangeLo/rangeHi give m.R = [r1, r2], the topological-rank range of
	// the sub-DAG under m (Lemma 5(2)'s pruning guard).
	rangeLo, rangeHi map[graph.NodeID]int32

	// fwdE[v] lists the landmarks v reaches by a landmark-free path (the
	// <1,·,1> entries of v.E); bwdE[v] the landmarks reaching v likewise.
	fwdE, bwdE [][]graph.NodeID
}

// DAG returns the graph the index was built over.
func (x *Index) DAG() *graph.Graph { return x.dag }

// Rank returns the topological rank of a DAG node.
func (x *Index) Rank(v graph.NodeID) int32 { return x.rank[v] }

// Landmarks returns all landmarks in selection order. Shared slice; do not
// modify.
func (x *Index) Landmarks() []graph.NodeID { return x.landmarks }

// IsLandmark reports whether v is a landmark.
func (x *Index) IsLandmark(v graph.NodeID) bool { return x.isLandmark[v] }

// Level returns the hierarchy level of a landmark (leaves are 1), or 0 for
// non-landmarks.
func (x *Index) Level(m graph.NodeID) int { return x.level[m] }

// Parents returns the upper-level links of landmark m. Shared slice.
func (x *Index) Parents(m graph.NodeID) []TreeEdge { return x.parents[m] }

// Children returns the lower-level links of landmark m. Shared slice.
func (x *Index) Children(m graph.NodeID) []TreeEdge { return x.children[m] }

// Cover returns m.cs.
func (x *Index) Cover(m graph.NodeID) int64 { return x.cover[m] }

// SubtreeSize returns the estimated number of index nodes under m
// (inclusive).
func (x *Index) SubtreeSize(m graph.NodeID) int { return x.subtreeSize[m] }

// Range returns m.R = [r1, r2], the rank range of m's sub-DAG.
func (x *Index) Range(m graph.NodeID) (int32, int32) { return x.rangeLo[m], x.rangeHi[m] }

// FwdLabels returns v.E restricted to flag 1: landmarks v reaches by a
// landmark-free path (v itself included when v is a landmark).
func (x *Index) FwdLabels(v graph.NodeID) []graph.NodeID {
	if x.isLandmark[v] {
		return []graph.NodeID{v}
	}
	return x.fwdE[v]
}

// BwdLabels returns v.E restricted to flag 0: landmarks reaching v by a
// landmark-free path (v itself included when v is a landmark).
func (x *Index) BwdLabels(v graph.NodeID) []graph.NodeID {
	if x.isLandmark[v] {
		return []graph.NodeID{v}
	}
	return x.bwdE[v]
}

// NumTreeEdges returns the number of index edges.
func (x *Index) NumTreeEdges() int { return x.numEdges }

// Size returns the index footprint in the paper's units: landmarks plus
// index edges, bounded by α|G|.
func (x *Index) Size() int { return len(x.landmarks) + x.numEdges }

// Validate checks the structural invariants the query algorithm relies on;
// it runs reachability checks per edge and is intended for tests.
func (x *Index) Validate() error {
	for _, m := range x.landmarks {
		if !x.isLandmark[m] {
			return fmt.Errorf("landmark %d not flagged", m)
		}
		lo, hi := x.Range(m)
		if lo > x.rank[m] || hi < x.rank[m] {
			return fmt.Errorf("landmark %d rank %d outside its own range [%d,%d]", m, x.rank[m], lo, hi)
		}
		for _, e := range x.parents[m] {
			plo, phi := x.Range(e.Other)
			if plo > lo || phi < hi {
				return fmt.Errorf("range of %d not nested in parent %d", m, e.Other)
			}
			if x.level[e.Other] <= x.level[m] {
				return fmt.Errorf("parent %d level %d not above child %d level %d",
					e.Other, x.level[e.Other], m, x.level[m])
			}
			// Direction annotation must reflect true DAG reachability.
			if e.Down {
				if !x.dag.Reachable(e.Other, m) {
					return fmt.Errorf("down edge (%d,%d) without reachability", e.Other, m)
				}
			} else if !x.dag.Reachable(m, e.Other) {
				return fmt.Errorf("up edge (%d,%d) without reachability", m, e.Other)
			}
		}
	}
	for v := 0; v < x.dag.NumNodes(); v++ {
		for _, m := range x.fwdE[v] {
			if !x.isLandmark[m] {
				return fmt.Errorf("fwdE[%d] holds non-landmark %d", v, m)
			}
		}
	}
	return nil
}

// Build runs RBIndex (Fig. 6) over a DAG: greedy landmark selection by
// (degree·rank)/(D·L), frontier label computation, bottom-up hierarchy
// construction with direction-annotated edges, cover sizes and rank
// ranges. Build panics if dag is cyclic (condense first; see package
// compress).
func Build(dag *graph.Graph, opts BuildOptions) *Index {
	if opts.FrontierCap <= 0 {
		opts.FrontierCap = 32
	}
	if opts.AttachCap <= 0 {
		opts.AttachCap = 4
	}
	x := &Index{
		dag:         dag,
		opts:        opts,
		rank:        Ranks(dag),
		isLandmark:  make([]bool, dag.NumNodes()),
		level:       make(map[graph.NodeID]int),
		parents:     make(map[graph.NodeID][]TreeEdge),
		children:    make(map[graph.NodeID][]TreeEdge),
		cover:       make(map[graph.NodeID]int64),
		subtreeSize: make(map[graph.NodeID]int),
		rangeLo:     make(map[graph.NodeID]int32),
		rangeHi:     make(map[graph.NodeID]int32),
	}
	if dag.NumNodes() == 0 {
		x.fwdE = [][]graph.NodeID{}
		x.bwdE = [][]graph.NodeID{}
		return x
	}
	x.selectLeafLandmarks()
	x.computeFrontiers()
	reach := x.landmarkClosure()
	x.buildHierarchy(reach)
	x.computeCovers()
	x.computeRanges()
	return x
}

// selectLeafLandmarks is the greedy selection of Section 5.1: repeatedly
// take the unremoved node maximizing degree·rank, then remove it and up to
// a = ⌊2/α⌋ of its neighbors from further consideration.
func (x *Index) selectLeafLandmarks() {
	g := x.dag
	k := int(x.opts.Alpha * float64(g.Size()) / 2)
	if k < 1 {
		k = 1
	}
	if k > g.NumNodes() {
		k = g.NumNodes()
	}
	a := 2
	if x.opts.Alpha > 0 {
		a = int(2 / x.opts.Alpha)
	}
	type cand struct {
		v     graph.NodeID
		score float64
	}
	cands := make([]cand, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		cands[v] = cand{id, float64(g.Degree(id)) * float64(x.rank[id]+1)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].v < cands[j].v
	})
	removed := make([]bool, g.NumNodes())
	for _, c := range cands {
		if len(x.landmarks) >= k {
			break
		}
		if removed[c.v] {
			continue
		}
		x.landmarks = append(x.landmarks, c.v)
		x.isLandmark[c.v] = true
		x.level[c.v] = 1
		removed[c.v] = true
		// Suppress up to a neighbors so landmarks spread out.
		suppressed := 0
		for _, w := range g.Out(c.v) {
			if suppressed >= a {
				break
			}
			if !removed[w] {
				removed[w] = true
				suppressed++
			}
		}
		for _, w := range g.In(c.v) {
			if suppressed >= a {
				break
			}
			if !removed[w] {
				removed[w] = true
				suppressed++
			}
		}
	}
}

// computeFrontiers fills fwdE/bwdE by dynamic programming over the
// topological order: the forward frontier of v is the union over children
// c of ({c} if c is a landmark, else frontier(c)), capped at FrontierCap.
func (x *Index) computeFrontiers() {
	g := x.dag
	order, _ := TopoOrder(g)
	n := g.NumNodes()
	x.fwdE = make([][]graph.NodeID, n)
	x.bwdE = make([][]graph.NodeID, n)
	cap_ := x.opts.FrontierCap
	merge := func(dst []graph.NodeID, add []graph.NodeID) []graph.NodeID {
		for _, m := range add {
			if len(dst) >= cap_ {
				return dst
			}
			found := false
			for _, e := range dst {
				if e == m {
					found = true
					break
				}
			}
			if !found {
				dst = append(dst, m)
			}
		}
		return dst
	}
	// Forward: sinks first.
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		var f []graph.NodeID
		for _, c := range g.Out(v) {
			if x.isLandmark[c] {
				f = merge(f, []graph.NodeID{c})
			} else {
				f = merge(f, x.fwdE[c])
			}
		}
		x.fwdE[v] = f
	}
	// Backward: sources first.
	for i := 0; i < n; i++ {
		v := order[i]
		var f []graph.NodeID
		for _, p := range g.In(v) {
			if x.isLandmark[p] {
				f = merge(f, []graph.NodeID{p})
			} else {
				f = merge(f, x.bwdE[p])
			}
		}
		x.bwdE[v] = f
	}
}

// landmarkClosure computes, for every landmark, the set of landmarks it
// reaches in the DAG, as the transitive closure of the immediate-successor
// (frontier) graph over landmarks.
func (x *Index) landmarkClosure() map[graph.NodeID]map[graph.NodeID]bool {
	reach := make(map[graph.NodeID]map[graph.NodeID]bool, len(x.landmarks))
	for _, m := range x.landmarks {
		seen := map[graph.NodeID]bool{}
		stack := append([]graph.NodeID(nil), x.fwdE[m]...)
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[w] {
				continue
			}
			seen[w] = true
			stack = append(stack, x.fwdE[w]...)
		}
		reach[m] = seen
	}
	return reach
}

// buildHierarchy performs the bottom-up loop of RBIndex: at each level,
// greedily promote ⌊α|G_{l−1}|/2⌋ landmarks (at least one, fewer than
// remain), link each unpromoted landmark to the connected promoted
// landmarks (up to AttachCap, within the α|G| size budget) with
// direction-annotated edges, and recurse on the promoted set.
func (x *Index) buildHierarchy(reach map[graph.NodeID]map[graph.NodeID]bool) {
	edgeBudget := int(x.opts.Alpha*float64(x.dag.Size())) - len(x.landmarks)
	current := append([]graph.NodeID(nil), x.landmarks...)
	level := 1
	for len(current) > 1 && edgeBudget > x.numEdges {
		if x.opts.MaxLevels > 0 && level >= x.opts.MaxLevels {
			break
		}
		// |G_{l-1}|: nodes plus reachability edges among the current set.
		curSet := make(map[graph.NodeID]bool, len(current))
		for _, m := range current {
			curSet[m] = true
		}
		edges := 0
		for _, m := range current {
			for w := range reach[m] {
				if curSet[w] {
					edges++
				}
			}
		}
		k := int(x.opts.Alpha * float64(len(current)+edges) / 2)
		if k < 1 {
			k = 1
		}
		if k >= len(current) {
			k = len(current) - 1
			if k < 1 {
				break
			}
		}
		// Greedy promotion by connectivity-weighted score.
		type cand struct {
			m     graph.NodeID
			score float64
		}
		cands := make([]cand, 0, len(current))
		for _, m := range current {
			conn := 0
			for w := range reach[m] {
				if curSet[w] {
					conn++
				}
			}
			for _, w := range current {
				if reach[w][m] {
					conn++
				}
			}
			cands = append(cands, cand{m, float64(conn+1) * float64(x.rank[m]+1)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].m < cands[j].m
		})
		promoted := make([]graph.NodeID, 0, k)
		promotedSet := make(map[graph.NodeID]bool, k)
		for _, c := range cands[:k] {
			promoted = append(promoted, c.m)
			promotedSet[c.m] = true
			x.level[c.m] = level + 1
		}
		// Link every unpromoted landmark to its connected promoted ones.
		for _, m := range current {
			if promotedSet[m] {
				continue
			}
			links := 0
			for _, p := range promoted {
				if links >= x.opts.AttachCap || x.numEdges >= edgeBudget {
					break
				}
				if reach[p][m] { // p reaches m: down edge
					x.attach(p, m, true)
					links++
				} else if reach[m][p] { // m reaches p: up edge
					x.attach(p, m, false)
					links++
				}
			}
			// Landmarks with no connected promoted peer stay as roots.
		}
		current = promoted
		level++
	}
}

func (x *Index) attach(parent, child graph.NodeID, down bool) {
	x.parents[child] = append(x.parents[child], TreeEdge{Other: parent, Down: down})
	x.children[parent] = append(x.children[parent], TreeEdge{Other: child, Down: down})
	x.numEdges++
}

// computeCovers fills cover sizes by one forward and one backward walk per
// landmark over the DAG — the O((α|G|)²)-ish indexing cost the paper
// budgets for. Only the visit counts are needed, so the pooled Walk is
// used instead of materializing BFS orders.
func (x *Index) computeCovers() {
	count := func(m graph.NodeID, dir graph.Direction) int64 {
		n := int64(0)
		x.dag.Walk(m, dir, -1, func(graph.NodeID, int) bool { n++; return true })
		return n - 1 // exclude m itself
	}
	for _, m := range x.landmarks {
		desc := count(m, graph.Forward)
		anc := count(m, graph.Backward)
		x.cover[m] = (anc+1)*(desc+1) - 1
	}
}

// computeRanges fills sub-DAG size estimates and rank ranges bottom-up:
// leaves get [r,r]; internal landmarks fold in their children.
func (x *Index) computeRanges() {
	// Process landmarks by ascending level so children precede parents.
	byLevel := append([]graph.NodeID(nil), x.landmarks...)
	sort.Slice(byLevel, func(i, j int) bool {
		if x.level[byLevel[i]] != x.level[byLevel[j]] {
			return x.level[byLevel[i]] < x.level[byLevel[j]]
		}
		return byLevel[i] < byLevel[j]
	})
	for _, m := range byLevel {
		lo, hi := x.rank[m], x.rank[m]
		size := 1
		for _, e := range x.children[m] {
			c := e.Other
			if x.rangeLo[c] < lo {
				lo = x.rangeLo[c]
			}
			if x.rangeHi[c] > hi {
				hi = x.rangeHi[c]
			}
			size += x.subtreeSize[c]
		}
		x.rangeLo[m], x.rangeHi[m] = lo, hi
		x.subtreeSize[m] = size
	}
}
