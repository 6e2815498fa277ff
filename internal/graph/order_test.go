package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// hubEdges is hubGraph's input: node labels, and an edge list with
// duplicates, self-loops and a few hubs, in random order.
func hubEdges(rng *rand.Rand, n, labels int) ([]string, [][2]int) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("L%d", rng.Intn(labels))
	}
	var edges [][2]int
	for i := 0; i < 2*n; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	for h := 0; h < 3; h++ {
		hub := rng.Intn(n)
		for i := 0; i < n/2; i++ {
			edges = append(edges, [2]int{hub, rng.Intn(n)}, [2]int{rng.Intn(n), hub})
		}
		edges = append(edges, [2]int{hub, hub})
	}
	for i := 0; i < n/10; i++ {
		v := rng.Intn(n)
		edges = append(edges, [2]int{v, v})
	}
	return names, edges
}

// requireAdjacencyOrder checks that every list of g is strictly in
// (label, id) order and that HasEdge agrees with a linear scan, for every
// edge and for random pairs.
func requireAdjacencyOrder(t *testing.T, what string, g *Graph, rng *rand.Rand) {
	t.Helper()
	n := g.NumNodes()
	before := func(a, b NodeID) bool {
		return g.LabelOf(a) < g.LabelOf(b) || g.LabelOf(a) == g.LabelOf(b) && a < b
	}
	for v := range NodeID(n) {
		for dir, list := range [][]NodeID{g.Out(v), g.In(v)} {
			for i := 1; i < len(list); i++ {
				if !before(list[i-1], list[i]) {
					t.Fatalf("%s: list %d of node %d not in (label, id) order: %v", what, dir, v, list)
				}
			}
		}
		for _, w := range g.Out(v) {
			if !g.HasEdge(v, w) {
				t.Fatalf("%s: HasEdge(%d, %d) false for an out-list entry", what, v, w)
			}
		}
		for _, w := range g.In(v) {
			if !g.HasEdge(w, v) {
				t.Fatalf("%s: HasEdge(%d, %d) false for an in-list entry", what, w, v)
			}
		}
		for range 4 {
			w := NodeID(rng.Intn(n))
			if got, want := g.HasEdge(v, w), slices.Contains(g.Out(v), w); got != want {
				t.Fatalf("%s: HasEdge(%d, %d) = %v, a scan says %v", what, v, w, got, want)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestOneAdjacencyOrder: every way of making a graph's lists — the
// Builder from shuffled edges and from edges in Out order, WithOverlay's
// merge, CompactIncremental's splice — leaves them in adjacency order, by
// label and then id; the Aux's label blocks, base and patched, are those
// lists filtered by label; HasEdge finds exactly the listed edges; and
// Validate refuses a list with two entries swapped.
func TestOneAdjacencyOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(200)
		labels, edges := hubEdges(rng, n, 1+rng.Intn(20))
		_, g := buildFrom(labels, edges)

		// Out order is what WriteBinary, Save and compaction emit: it
		// stays on the Builder's in-place path and builds the same arrays.
		var outOrder [][2]int
		for v := range NodeID(n) {
			for _, w := range g.Out(v) {
				outOrder = append(outOrder, [2]int{int(v), int(w)})
			}
		}
		b, again := buildFrom(labels, outOrder)
		if b.unsorted {
			t.Fatalf("seed %d: edges in Out order left the in-place path", seed)
		}
		requireSameArrays(t, "rebuilt from Out order", g, again)

		aux := BuildAux(g)
		view, err := g.WithOverlay(randomDelta(g, 5, 2*n, n/3, seed+100))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		patched, err := aux.PatchedFor(view)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, caux := CompactIncremental(view, patched)
		for _, c := range []struct {
			what string
			aux  *Aux
		}{{"base", aux}, {"overlay", patched}, {"compacted", caux}} {
			requireAdjacencyOrder(t, c.what, c.aux.Graph(), rng)
			requireLabelIndex(t, c.what, c.aux)
		}

		// Swap two entries of one list in a private copy: Validate refuses.
		_, bad := buildFrom(labels, edges)
		for _, arr := range []struct {
			start []int32
			adj   []NodeID
		}{{bad.outStart, bad.outAdj}, {bad.inStart, bad.inAdj}} {
			v := 0 // the hubs make some list at least two long
			for arr.start[v+1]-arr.start[v] < 2 {
				v++
			}
			i := arr.start[v]
			arr.adj[i], arr.adj[i+1] = arr.adj[i+1], arr.adj[i]
			if bad.Validate() == nil {
				t.Fatalf("seed %d: Validate accepted node %d's list with two entries swapped", seed, v)
			}
			arr.adj[i], arr.adj[i+1] = arr.adj[i+1], arr.adj[i]
		}
	}
}

// TestRegionScratchHoldsNoNodeSizedSlice: the twin of bounded's
// TestRunnerHoldsNoNodeSizedSlice for the exact baselines' scratch. After
// RegionInto materializes a region of at most 100 nodes of a 200k-node
// graph, no slice reachable from the FragCSR — its position table
// included, which RegionInto's walk also marks visits in — holds |V|/8 or
// more elements.
func TestRegionScratchHoldsNoNodeSizedSlice(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(39))
	g := randomGraph(rng, n, 3*n, 20)
	var c FragCSR
	found := false
	for tries := 0; tries < 1000 && !found; tries++ {
		v := NodeID(rng.Intn(n))
		labels := []LabelID{g.LabelOf(v), LabelID(rng.Intn(g.NumLabels())), LabelID(rng.Intn(g.NumLabels()))}
		if !g.RegionInto(v, 3, labels, &c, nil) {
			t.Fatal("RegionInto reported cancellation without a done channel")
		}
		found = c.NumNodes() > 1 && c.NumNodes() <= 100
	}
	if !found {
		t.Fatal("no region of 2..100 nodes found")
	}
	var big []string
	bigSlices(reflect.ValueOf(&c), "FragCSR", n/8, &big)
	if len(big) > 0 {
		t.Fatalf("a %d-node region's scratch holds slices of %d or more elements: %v", c.NumNodes(), n/8, big)
	}
}

// bigSlices appends to big the path of every slice reachable from v with
// capacity of at least limit elements, without entering a Graph.
func bigSlices(v reflect.Value, path string, limit int, big *[]string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && v.Type() != reflect.TypeOf((*Graph)(nil)) {
			bigSlices(v.Elem(), path, limit, big)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			bigSlices(v.Field(i), path+"."+v.Type().Field(i).Name, limit, big)
		}
	case reflect.Slice:
		if v.Cap() >= limit {
			*big = append(*big, path)
		}
	}
}
