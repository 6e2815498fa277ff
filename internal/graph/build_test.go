package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// The loader equivalence tests: the Builder's in-place CSR for sorted
// input and the bitset histograms of BuildAux must produce, array for
// array, what the radix path and the sort-based histograms produce.

// loaderCase is one random graph as a node-label list and a strictly
// ascending, duplicate-free edge list.
type loaderCase struct {
	name   string
	labels []string
	edges  [][2]int
}

func loaderCases() []loaderCase {
	gen := func(name string, n, m, numLabels int, seed int64) loaderCase {
		rng := rand.New(rand.NewSource(seed))
		c := loaderCase{name: name}
		for v := 0; v < n; v++ {
			c.labels = append(c.labels, fmt.Sprintf("L%d", rng.Intn(numLabels)))
		}
		seen := map[[2]int]bool{}
		for i := 0; i < m && n > 0; i++ {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			if i%7 == 0 {
				e[1] = e[0] // self-loop
			}
			if !seen[e] {
				seen[e] = true
				c.edges = append(c.edges, e)
			}
		}
		slices.SortFunc(c.edges, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		return c
	}
	return []loaderCase{
		gen("empty", 0, 0, 1, 1),
		gen("no-edges", 40, 0, 3, 2),
		gen("one-label", 200, 900, 1, 3),
		gen("few-labels", 300, 1500, 15, 4),
		gen("wide-alphabet", 400, 4000, 200, 5), // > 64 labels: several bitset words
		gen("dense", 30, 2000, 70, 6),
		gen("sparse-tail", 500, 60, 5, 7), // most sources, and the last nodes, have no out-edge
		gen("above-serial-cutoff", auxSerialCutoff*3, auxSerialCutoff*8, 90, 8),
	}
}

func buildFrom(labels []string, edges [][2]int) (*Builder, *Graph) {
	b := NewBuilder(0, 0)
	for _, l := range labels {
		b.AddNode(l)
	}
	for _, e := range edges {
		b.AddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	return b, b.Build()
}

// requireSameArrays compares every array of two base graphs.
func requireSameArrays(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"labels", got.labels, want.labels},
		{"labelNames", got.labelNames, want.labelNames},
		{"labelIndex", got.labelIndex, want.labelIndex},
		{"outStart", got.outStart, want.outStart},
		{"outAdj", got.outAdj, want.outAdj},
		{"inStart", got.inStart, want.inStart},
		{"inAdj", got.inAdj, want.inAdj},
		{"labelStart", got.labelStart, want.labelStart},
		{"labelNodes", got.labelNodes, want.labelNodes},
		{"degCount", got.degCount, want.degCount},
		{"maxDegree", got.maxDegree, want.maxDegree},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs:\n got  %v\n want %v", what, f.name, f.got, f.want)
		}
	}
}

func requireSameHists(t *testing.T, what string, got, want *Hists) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: histogram arrays differ", what)
	}
}

func TestSortedBuildEqualsRadixBuild(t *testing.T) {
	for _, c := range loaderCases() {
		t.Run(c.name, func(t *testing.T) {
			sb, sorted := buildFrom(c.labels, c.edges)
			if sb.unsorted {
				t.Fatal("ascending input left the in-place path")
			}
			if err := sorted.Validate(); err != nil {
				t.Fatal(err)
			}
			sortedAux := BuildAux(sorted).BaseHists()

			rng := rand.New(rand.NewSource(int64(len(c.edges))))
			shuffled := slices.Clone(c.edges)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			var dup [][2]int // ascending, but every third edge twice
			for i, e := range c.edges {
				dup = append(dup, e)
				if i%3 == 0 {
					dup = append(dup, e)
				}
			}
			// Ascending until the very last edge, so the spill converts a
			// nearly complete CSR.
			lateBreak := slices.Clone(c.edges)
			if len(lateBreak) > 0 {
				lateBreak = append(lateBreak, lateBreak[0])
			}
			for _, alt := range []struct {
				name  string
				edges [][2]int
			}{{"shuffled", shuffled}, {"duplicates", dup}, {"late-break", lateBreak}, {"shuffled+duplicates", append(shuffled, dup...)}} {
				ab, g := buildFrom(c.labels, alt.edges)
				if len(c.edges) > 1 && !ab.unsorted {
					t.Fatalf("%s input stayed on the in-place path", alt.name)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("%s: %v", alt.name, err)
				}
				requireSameArrays(t, alt.name, sorted, g)
				requireSameHists(t, alt.name, sortedAux, BuildAux(g).BaseHists())
			}
		})
	}
}

// TestBuilderReuseAfterBuild: Build leaves the Builder usable in both
// shapes, and a graph already built does not see later additions.
func TestBuilderReuseAfterBuild(t *testing.T) {
	b := NewBuilder(0, 0)
	for i := 0; i < 4; i++ {
		b.AddNode("A")
	}
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g1 := b.Build()
	b.AddNode("B")
	b.AddEdge(3, 4)
	g2 := b.Build()
	b.AddEdge(1, 0) // out of order: spills
	g3 := b.Build()
	for i, want := range []struct {
		g     *Graph
		n, m  int
		edges [][2]int
	}{
		{g1, 4, 2, [][2]int{{0, 1}, {2, 3}}},
		{g2, 5, 3, [][2]int{{0, 1}, {2, 3}, {3, 4}}},
		{g3, 5, 4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}}},
	} {
		if err := want.g.Validate(); err != nil {
			t.Fatalf("g%d: %v", i+1, err)
		}
		if want.g.NumNodes() != want.n || want.g.NumEdges() != want.m {
			t.Fatalf("g%d: |V|=%d |E|=%d, want %d/%d", i+1, want.g.NumNodes(), want.g.NumEdges(), want.n, want.m)
		}
		for _, e := range want.edges {
			if !want.g.HasEdge(NodeID(e[0]), NodeID(e[1])) {
				t.Fatalf("g%d: edge %v missing", i+1, e)
			}
		}
	}
}

// sortHistBuilder is the histogram builder BuildAux used before the
// bitset: collect the labels a list touches, sort them, emit. It is kept
// as the reference the bitset builder is compared against.
type sortHistBuilder struct {
	g       *Graph
	counts  []int32
	touched []LabelID
}

func (hb *sortHistBuilder) appendHist(dst []LabelCount, neigh []NodeID) []LabelCount {
	hb.touched = hb.touched[:0]
	for _, w := range neigh {
		l := hb.g.LabelOf(w)
		if hb.counts[l] == 0 {
			hb.touched = append(hb.touched, l)
		}
		hb.counts[l]++
	}
	slices.Sort(hb.touched)
	for _, l := range hb.touched {
		dst = append(dst, LabelCount{l, hb.counts[l]})
		hb.counts[l] = 0
	}
	return dst
}

// sortBasedHists is the reference Aux layout: histograms by sorting
// labels, grouped lists by a stable sort of each list on label, masks by
// reading every neighbor's label.
func sortBasedHists(g *Graph) *Hists {
	n := g.NumNodes()
	hb := &sortHistBuilder{g: g, counts: make([]int32, g.NumLabels())}
	h := &Hists{
		OutStart: make([]int32, n+1), InStart: make([]int32, n+1), OutHist: []LabelCount{}, InHist: []LabelCount{},
		AdjOutStart: g.outStart, AdjInStart: g.inStart,
		OutByLabel: []NodeID{}, InByLabel: []NodeID{}, Mask: make([]uint32, n),
	}
	for v := 0; v < n; v++ {
		id := NodeID(v)
		h.OutHist = hb.appendHist(h.OutHist, g.Out(id))
		h.OutStart[v+1] = int32(len(h.OutHist))
		h.InHist = hb.appendHist(h.InHist, g.In(id))
		h.InStart[v+1] = int32(len(h.InHist))
		h.OutByLabel = append(h.OutByLabel, groupedByLabel(g, g.Out(id))...)
		h.InByLabel = append(h.InByLabel, groupedByLabel(g, g.In(id))...)
		h.Mask[v] = refMask(g, id)
	}
	return h
}

// groupedByLabel is a neighbor list stably sorted on label.
func groupedByLabel(g *Graph, neigh []NodeID) []NodeID {
	out := slices.Clone(neigh)
	slices.SortStableFunc(out, func(a, b NodeID) int { return int(g.LabelOf(a)) - int(g.LabelOf(b)) })
	return out
}

// refMask is v's presence mask from its neighbors' labels.
func refMask(g *Graph, v NodeID) uint32 {
	var m uint32
	for _, w := range g.Out(v) {
		m |= OutMaskBit(g.LabelOf(w))
	}
	for _, w := range g.In(v) {
		m |= InMaskBit(g.LabelOf(w))
	}
	return m
}

// requireLabelIndex checks a's grouped lists and masks, through the
// accessors every engine reads, against neighbor lists filtered by
// label: the check for patched views, whose overrides live per slot.
func requireLabelIndex(t *testing.T, what string, a *Aux) {
	t.Helper()
	g := a.Graph()
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		if got, want := a.LabelMask(id), refMask(g, id); got != want {
			t.Fatalf("%s: node %d mask %#x, want %#x", what, v, got, want)
		}
		for l := LabelID(-1); int(l) <= g.NumLabels(); l++ {
			has := func(w NodeID) bool { return int(l) >= 0 && int(l) < g.NumLabels() && g.LabelOf(w) == l }
			if got, want := a.OutBlock(id, l), slices.DeleteFunc(slices.Clone(g.Out(id)), func(w NodeID) bool { return !has(w) }); !slices.Equal(got, want) {
				t.Fatalf("%s: node %d out block of label %d: got %v, want %v", what, v, l, got, want)
			}
			if got, want := a.InBlock(id, l), slices.DeleteFunc(slices.Clone(g.In(id)), func(w NodeID) bool { return !has(w) }); !slices.Equal(got, want) {
				t.Fatalf("%s: node %d in block of label %d: got %v, want %v", what, v, l, got, want)
			}
			// A label that owns its bit is present exactly when the bit is set.
			if l >= 0 && OwnsMaskBit(l, g.NumLabels()) {
				m := a.LabelMask(id)
				if m&OutMaskBit(l) != 0 != (len(a.OutBlock(id, l)) > 0) || m&InMaskBit(l) != 0 != (len(a.InBlock(id, l)) > 0) {
					t.Fatalf("%s: node %d mask %#x does not decide label %d", what, v, m, l)
				}
			}
		}
	}
}

func TestOwnsMaskBit(t *testing.T) {
	for _, c := range []struct {
		numLabels int
		owners    []LabelID
	}{
		{1, []LabelID{0}},
		{15, []LabelID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
		{MaskLabels, []LabelID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{MaskLabels + 3, []LabelID{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{40, nil},
	} {
		var owners []LabelID
		for l := LabelID(-1); int(l) <= c.numLabels; l++ {
			if OwnsMaskBit(l, c.numLabels) {
				owners = append(owners, l)
			}
		}
		if !slices.Equal(owners, c.owners) {
			t.Errorf("%d labels: owners %v, want %v", c.numLabels, owners, c.owners)
		}
	}
}

func TestBitsetBuildAuxEqualsSortBased(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range loaderCases() {
			_, g := buildFrom(c.labels, c.edges)
			what := fmt.Sprintf("%s at GOMAXPROCS %d", c.name, procs)
			aux := BuildAux(g)
			requireSameHists(t, what, aux.BaseHists(), sortBasedHists(g))
			requireLabelIndex(t, what, aux)
		}
		runtime.GOMAXPROCS(prev)
	}
}
