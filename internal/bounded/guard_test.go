package bounded

import (
	"fmt"
	"math/rand"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// References for Guard and Potential: one guard per class, written
// straight from Sections 4.1 and 4.2 — they walk the pattern's neighbour
// lists on every probe and recount each label's multiplicity in place —
// and the potential summed per pattern neighbour.

type refSemantics struct {
	aux    *graph.Aux
	p      *pattern.Pattern
	labels []graph.LabelID
}

func newRef(aux *graph.Aux, p *pattern.Pattern) *refSemantics {
	return &refSemantics{aux: aux, p: p, labels: aux.Graph().InternLabels(p.Labels(), nil)}
}

func (s *refSemantics) simGuard(v graph.NodeID, u pattern.NodeID) bool {
	if s.aux.Graph().LabelOf(v) != s.labels[u] {
		return false
	}
	for _, uc := range s.p.Out(u) {
		l := s.labels[uc]
		if l == graph.NoLabel || s.aux.OutLabelCount(v, l) == 0 {
			return false
		}
	}
	for _, ua := range s.p.In(u) {
		l := s.labels[ua]
		if l == graph.NoLabel || s.aux.InLabelCount(v, l) == 0 {
			return false
		}
	}
	return true
}

func (s *refSemantics) subGuard(v graph.NodeID, u pattern.NodeID) bool {
	g := s.aux.Graph()
	if g.LabelOf(v) != s.labels[u] {
		return false
	}
	if g.OutDegree(v) < len(s.p.Out(u)) || g.InDegree(v) < len(s.p.In(u)) {
		return false
	}
	return s.enoughDistinct(v, s.p.Out(u), true) && s.enoughDistinct(v, s.p.In(u), false)
}

func (s *refSemantics) enoughDistinct(v graph.NodeID, patNeigh []pattern.NodeID, out bool) bool {
	for i, u := range patNeigh {
		l := s.labels[u]
		if l == graph.NoLabel {
			return false
		}
		first := true
		for _, w := range patNeigh[:i] {
			if s.labels[w] == l {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		var need int32
		for _, w := range patNeigh[i:] {
			if s.labels[w] == l {
				need++
			}
		}
		have := s.aux.InLabelCount(v, l)
		if out {
			have = s.aux.OutLabelCount(v, l)
		}
		if have < need {
			return false
		}
	}
	return true
}

func (s *refSemantics) potential(v graph.NodeID, u pattern.NodeID) float64 {
	total := 0
	for _, uc := range s.p.Out(u) {
		if l := s.labels[uc]; l != graph.NoLabel {
			total += int(s.aux.OutLabelCount(v, l))
		}
	}
	for _, ua := range s.p.In(u) {
		if l := s.labels[ua]; l != graph.NoLabel {
			total += int(s.aux.InLabelCount(v, l))
		}
	}
	return float64(total)
}

// guardPattern draws a connected pattern over the labels a..d — the graphs
// below never carry d, so some patterns name an absent label — with few
// labels among up to six nodes (repeated neighbour labels), extra edges
// and self-loops.
func guardPattern(rng *rand.Rand, names []string) *pattern.Pattern {
	for {
		b := pattern.NewBuilder()
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			b.AddNode(names[rng.Intn(len(names))])
		}
		for i := 1; i < n; i++ {
			b.AddEdge(pattern.NodeID(rng.Intn(i)), pattern.NodeID(i))
		}
		for i := rng.Intn(4); i > 0; i-- {
			b.AddEdge(pattern.NodeID(rng.Intn(n)), pattern.NodeID(rng.Intn(n)))
		}
		if rng.Intn(2) == 0 {
			u := pattern.NodeID(rng.Intn(n))
			b.AddEdge(u, u)
		}
		b.SetPersonalized(0).SetOutput(pattern.NodeID(n - 1))
		if p, err := b.Build(); err == nil {
			return p
		}
	}
}

// overlayOf layers new nodes and added and deleted edges over base.
func overlayOf(t *testing.T, rng *rand.Rand, base *graph.Graph) *graph.Graph {
	t.Helper()
	d := graph.OverlayDelta{NewNodeLabels: []string{"a", "b", "c", "z"}}
	n := base.NumNodes() + len(d.NewNodeLabels)
	seen := map[[2]graph.NodeID]bool{}
	for k := 0; k < 40; k++ {
		e := [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		if seen[e] || (int(e[0]) < base.NumNodes() && int(e[1]) < base.NumNodes() && base.HasEdge(e[0], e[1])) {
			continue
		}
		seen[e] = true
		d.AddEdges = append(d.AddEdges, e)
	}
	for k := 0; k < 20; k++ {
		v := graph.NodeID(rng.Intn(base.NumNodes()))
		if out := base.Out(v); len(out) > 0 {
			e := [2]graph.NodeID{v, out[rng.Intn(len(out))]}
			if !seen[e] {
				seen[e] = true
				d.DelEdges = append(d.DelEdges, e)
			}
		}
	}
	view, err := base.WithOverlay(d)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// collidingNames are the node labels of collidingLabeled's graphs.
var collidingNames = []string{"a", "b", "c", "f0", "f1", "f2"}

// collidingLabeled is randomLabeled over labels that share presence-mask
// bits: f0..f15 take label ids 0..15, so a, b and c (ids 16..18) collide
// with f0, f1 and f2. Nodes carry one of collidingNames.
func collidingLabeled(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < graph.MaskLabels; i++ {
		b.Intern(fmt.Sprintf("f%d", i))
	}
	names := collidingNames
	for i := 0; i < n; i++ {
		b.AddNode(names[rng.Intn(len(names))])
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// TestGuardEqualsPerClassReference: over random graphs — each as a base
// Aux and as a PatchedFor overlay view — and random patterns, Guard and
// Potential equal the per-class references at every (v, u). Every other
// graph's labels collide in the presence mask, so the histogram fallback
// behind a mask that cannot decide is exercised too.
func TestGuardEqualsPerClassReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	// What the cases exercised: guard outcomes per class, pairs the
	// simulation guard admits but the isomorphism guard turns away, and
	// pairs whose mask passed on a colliding label that the histogram
	// then rejected.
	var passed, rejected [2]int
	simOnly, collided := 0, 0
	for gi := 0; gi < 30; gi++ {
		base, names := randomLabeled(rng, 30+rng.Intn(40), 60+rng.Intn(160), 3), []string{"a", "b", "c", "d"}
		if gi%2 == 1 {
			base, names = collidingLabeled(rng, 30+rng.Intn(40), 60+rng.Intn(160)), collidingNames
		}
		baseAux := graph.BuildAux(base)
		view := overlayOf(t, rng, base)
		patched, err := baseAux.PatchedFor(view)
		if err != nil {
			t.Fatal(err)
		}
		for _, aux := range []*graph.Aux{baseAux, patched} {
			g := aux.Graph()
			for pi := 0; pi < 8; pi++ {
				p := guardPattern(rng, names)
				ref := newRef(aux, p)
				sim, sub := NewSemantics(aux, p, Simulation), NewSemantics(aux, p, Subgraph)
				for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
					for u := pattern.NodeID(0); int(u) < p.NumNodes(); u++ {
						tag := fmt.Sprintf("graph %d overlay=%v pattern %d v=%d u=%d\n%s", gi, g.HasOverlay(), pi, v, u, p)
						gotSim, wantSim := sim.Guard(v, u), ref.simGuard(v, u)
						if gotSim != wantSim {
							t.Fatalf("%s: simulation Guard %v, reference %v", tag, gotSim, wantSim)
						}
						gotSub, wantSub := sub.Guard(v, u), ref.subGuard(v, u)
						if gotSub != wantSub {
							t.Fatalf("%s: isomorphism Guard %v, reference %v", tag, gotSub, wantSub)
						}
						want := ref.potential(v, u)
						if got := sim.Potential(v, u); got != want {
							t.Fatalf("%s: simulation Potential %v, reference %v", tag, got, want)
						}
						if got := sub.Potential(v, u); got != want {
							t.Fatalf("%s: isomorphism Potential %v, reference %v", tag, got, want)
						}
						for c, ok := range []bool{gotSim, gotSub} {
							if ok {
								passed[c]++
							} else {
								rejected[c]++
							}
						}
						if gotSim && !gotSub {
							simOnly++
						}
						r := &sim.reqs[u]
						if !gotSim && g.LabelOf(v) == sim.labels[u] && !r.absent && !r.decided && sim.labelMask(v)&r.mask == r.mask {
							collided++
						}
					}
				}
			}
		}
	}
	if min(passed[0], passed[1], rejected[0], rejected[1]) == 0 || simOnly == 0 || collided == 0 {
		t.Fatalf("degenerate cases: passed %v, rejected %v, simulation-only %d, mask collisions %d", passed, rejected, simOnly, collided)
	}
}
