package rbany

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/subiso"
)

// parallelFixtures yields generated (aux, pattern) pairs whose anchor has
// many candidates, so the exact fan-out has work to share. PatternAt
// keeps real labels (no unique personalized node) — the unanchored
// setting.
func parallelFixtures(t *testing.T) []struct {
	name string
	aux  *graph.Aux
	p    *pattern.Pattern
} {
	t.Helper()
	var out []struct {
		name string
		aux  *graph.Aux
		p    *pattern.Pattern
	}
	for _, cfg := range []gen.GraphConfig{
		{Nodes: 1500, Edges: 4500, Seed: 11, PowerLaw: true},
		{Nodes: 1000, Edges: 2000, Seed: 23},
	} {
		g := gen.Random(cfg)
		aux := graph.BuildAux(g)
		for _, pseed := range []int64{1, 7} {
			p := gen.PatternAt(g, graph.NodeID(42+13*pseed), gen.PatternConfig{Nodes: 4, Edges: 6, Seed: pseed})
			if p == nil {
				continue
			}
			out = append(out, struct {
				name string
				aux  *graph.Aux
				p    *pattern.Pattern
			}{fmt.Sprintf("g%d/p%d", cfg.Seed, pseed), aux, p})
		}
	}
	if len(out) == 0 {
		t.Fatal("no fixtures generated")
	}
	return out
}

// The exact baselines must return the same answer at every pool width,
// workers = 1 being the inline serial loop (their merge is a commutative
// sorted union, so this pins the plumbing rather than a subtle
// algorithm), and abandon the evaluation on a fired done channel.
func TestParallelExactEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	done := make(chan struct{})
	close(done)
	for _, fx := range parallelFixtures(t) {
		g := fx.aux.Graph()
		simWant, simOK := SimulationExact(g, fx.p, 1, nil)
		subWant, subOK := SubgraphExact(g, fx.p, 1, nil)
		if !simOK || len(simWant) == 0 {
			t.Fatalf("%s: serial SimulationExact = %v (ok=%v), want a non-empty answer", fx.name, simWant, simOK)
		}
		for _, workers := range []int{2, 4, 8} {
			got, ok := SimulationExact(g, fx.p, workers, nil)
			if !ok || !reflect.DeepEqual(got, simWant) {
				t.Errorf("%s SimulationExact(W=%d) = %v (ok=%v), want %v",
					fx.name, workers, got, ok, simWant)
			}
			gotSub, gotOK := SubgraphExact(g, fx.p, workers, nil)
			if gotOK != subOK || !reflect.DeepEqual(gotSub, subWant) {
				t.Errorf("%s SubgraphExact(W=%d) = %v (ok=%v), want %v (ok=%v)",
					fx.name, workers, gotSub, gotOK, subWant, subOK)
			}
		}
		for _, workers := range []int{1, 4} {
			if got, ok := SimulationExact(g, fx.p, workers, done); ok || got != nil {
				t.Errorf("%s SimulationExact(W=%d) ignored a fired done: %v (ok=%v)", fx.name, workers, got, ok)
			}
			if _, ok := SubgraphExact(g, fx.p, workers, &subiso.Options{Interrupt: done}); ok {
				t.Errorf("%s SubgraphExact(W=%d) reported complete under a fired done", fx.name, workers)
			}
		}
	}
}
