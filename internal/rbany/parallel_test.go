package rbany

import (
	"fmt"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/subiso"
)

// parallelFixtures yields generated (aux, pattern) pairs whose anchor has
// many candidates, so concurrent unanchored runs have work to share.
// PatternAt keeps real labels (no unique personalized node) — the
// unanchored setting.
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

// The exact baselines — a serial MatchOpt loop over the anchor
// candidates — answer on these fixtures, and abandon the evaluation on a
// fired done channel: SimulationExact returns nil with ok=false,
// SubgraphExact reports incomplete.
func TestParallelExactEqualsSerial(t *testing.T) {
	done := make(chan struct{})
	close(done)
	for _, fx := range parallelFixtures(t) {
		g := fx.aux.Graph()
		if got, ok := SimulationExact(g, fx.p, nil); !ok || len(got) == 0 {
			t.Fatalf("%s: SimulationExact = %v (ok=%v), want a non-empty answer", fx.name, got, ok)
		}
		if got, ok := SubgraphExact(g, fx.p, nil); !ok || len(got) == 0 {
			t.Fatalf("%s: SubgraphExact = %v (ok=%v), want a non-empty answer", fx.name, got, ok)
		}
		if got, ok := SimulationExact(g, fx.p, done); ok || got != nil {
			t.Errorf("%s: SimulationExact ignored a fired done: %v (ok=%v)", fx.name, got, ok)
		}
		if _, ok := SubgraphExact(g, fx.p, &subiso.Options{Interrupt: done}); ok {
			t.Errorf("%s: SubgraphExact reported complete under a fired done", fx.name)
		}
	}
}
