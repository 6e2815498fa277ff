package bounded

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
	"rbq/internal/subiso"
)

// TestSkippedMatcherEqualsMaterialized: a run that skips materializing
// and matching G_Q — v_p is not in it, or some pattern label has no
// member — answers what a run that always materializes and matches
// answers, under both classes, and a skipped isomorphism run is
// complete.
func TestSkippedMatcherEqualsMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	skipped, matched := 0, 0
	for gi := 0; gi < 20; gi++ {
		g := randomLabeled(rng, 60+rng.Intn(140), 150+rng.Intn(400), 5)
		aux := graph.BuildAux(g)
		for pi := 0; pi < 10; pi++ {
			p := randomPattern(rng, 5)
			want := g.LabelIDOf(p.Label(p.Personalized()))
			if want == graph.NoLabel {
				continue
			}
			pins := g.NodesWithLabel(want)
			vp := pins[rng.Intn(len(pins))]
			opts := reduce.Options{Alpha: []float64{0.005, 0.02, 0.1}[rng.Intn(3)]}
			for _, c := range []Class{Simulation, Subgraph} {
				got := Run(aux, p, vp, Compile(g, p, c), opts, nil)

				sem := NewSemantics(aux, p, c)
				frag, _ := reduce.Search(aux, p, vp, sem, opts)
				var csr graph.FragCSR
				frag.CSRInto(&csr)
				var ref []graph.NodeID
				complete := true
				if pin := csr.PosOf(vp); pin >= 0 {
					if c == Subgraph {
						ref, complete = subiso.MatchFragment(&csr, p, sem.labels, pin, nil, &subiso.Scratch{})
					} else {
						ref, _, _ = simulation.MatchFragment(&csr, p, sem.labels, pin, &simulation.Scratch{}, nil)
					}
				}
				if !slices.Equal(got.Matches, ref) || got.Complete != complete {
					t.Fatalf("graph %d pattern %d class %d vp %d: got %v (complete %v), materialized %v (complete %v)\n%s",
						gi, pi, c, vp, got.Matches, got.Complete, ref, complete, p)
				}
				r := Runner{frag: frag, sem: *sem}
				if frag.PosOf(vp) < 0 || !r.holdsEveryLabel() {
					skipped++
				} else if len(ref) > 0 {
					matched++
				}
			}
		}
	}
	if skipped == 0 || matched == 0 {
		t.Fatalf("a case untested: %d skipped runs, %d matched with answers", skipped, matched)
	}
}

// TestRunnerHoldsNoNodeSizedSlice: after bounded runs of both classes
// from many pins, a pooled Runner holds no slice with |V| or more
// elements, apart from the fragment's membership bitset: everything the
// extraction keeps — the edge log, the member positions, the view — is
// sized by G_Q.
func TestRunnerHoldsNoNodeSizedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n = 50_000
	g := randomLabeled(rng, n, 3*n, 4)
	aux := graph.BuildAux(g)
	for _, c := range []Class{Simulation, Subgraph} {
		ran := 0
		r := Borrow(aux, Compile(g, randomPattern(rng, 4), c))
		for ran < 20 {
			p := randomPattern(rng, 4)
			pins := g.NodesWithLabel(g.LabelIDOf(p.Label(p.Personalized())))
			r.sem = Compile(g, p, c).On(aux)
			if res := r.Run(p, pins[rng.Intn(len(pins))], reduce.Options{Alpha: 2e-3}, nil); res.Stats.FragmentNodes > 1 {
				ran++
			}
		}
		r.Release()
		var big []string
		nodeSized(reflect.ValueOf(r), "Runner", n, map[uintptr]bool{}, &big)
		if len(big) > 0 {
			t.Fatalf("class %d: the pooled Runner holds node-sized slices: %v", c, big)
		}
	}
}

var (
	graphType    = reflect.TypeOf((*graph.Graph)(nil))
	auxType      = reflect.TypeOf((*graph.Aux)(nil))
	fragmentType = reflect.TypeOf(graph.Fragment{})
)

// nodeSized appends to big the path of every slice reachable from v with
// capacity of at least n elements. It does not enter the graph or the
// Aux a value points at, nor the fragment's membership bitset.
func nodeSized(v reflect.Value, path string, n int, seen map[uintptr]bool, big *[]string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == graphType || v.Type() == auxType || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		nodeSized(v.Elem(), path, n, seen, big)
	case reflect.Interface:
		if !v.IsNil() {
			nodeSized(v.Elem(), path, n, seen, big)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if v.Type() == fragmentType && f.Name == "member" {
				continue
			}
			nodeSized(v.Field(i), path+"."+f.Name, n, seen, big)
		}
	case reflect.Slice:
		if v.Cap() >= n {
			*big = append(*big, path)
		}
		if holdsRefs(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				nodeSized(v.Index(i), path+"[]", n, seen, big)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			nodeSized(v.Index(i), path+"[]", n, seen, big)
		}
	}
}

// holdsRefs reports whether values of t can reach a slice.
func holdsRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Interface:
		return true
	case reflect.Array:
		return holdsRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
