package bounded

import (
	"testing"

	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
)

// edgelessGraph returns a graph of size nodes and no edges, one node in a
// thousand labelled A and the rest B.
func edgelessGraph(size int) *graph.Graph {
	b := graph.NewBuilder(size, 0)
	for i := 0; i < size; i++ {
		if i%1000 == 0 {
			b.AddNode("A")
		} else {
			b.AddNode("B")
		}
	}
	return b.Build()
}

// TestIntegerBudgetIsTheShare: a run given an integer Budget — an
// unanchored request's anchor share — gets exactly that budget, for
// every share up to 5000 on graphs of the sizes of the benchmark's
// modes_cold and of a 3.8M-item graph. At those sizes the ratio
// share/|G| the budget used to travel as loses an item for some shares.
func TestIntegerBudgetIsTheShare(t *testing.T) {
	if testing.Short() {
		t.Skip("builds graphs of 1.1M and 3.8M items")
	}
	pb := pattern.NewBuilder()
	pb.SetPersonalized(pb.AddNode("A")).SetOutput(0)
	p := pb.MustBuild()
	for _, size := range []int{1_139_206, 3_798_255} {
		g := edgelessGraph(size)
		if g.Size() != size {
			t.Fatalf("the fixture has size %d, want %d", g.Size(), size)
		}
		aux := graph.BuildAux(g)
		r := Borrow(aux, Compile(g, p, Simulation))
		rounded := 0
		for share := 1; share <= 5000; share++ {
			if int(float64(share)/float64(size)*float64(size)) != share {
				rounded++
			}
			res := r.Run(p, 0, reduce.Options{Budget: share}, nil)
			if res.Stats.Budget != share || res.Stats.FragmentSize != 1 {
				r.Release()
				t.Fatalf("|G| = %d, share %d: budget %d, fragment %d", size, share, res.Stats.Budget, res.Stats.FragmentSize)
			}
		}
		r.Release()
		if rounded == 0 {
			t.Fatalf("|G| = %d: no share is rounded by the ratio, the sizes test nothing", size)
		}
	}
}
