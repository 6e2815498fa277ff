package rbany

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
	"rbq/internal/subiso"
)

// parallelFixtures yields generated (aux, pattern) pairs whose anchor has
// many candidates, so the speculative waves actually form. PatternAt
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

// The core determinism property: speculative-wave execution must return
// a Result bit-for-bit identical to the serial path — matches AND every
// counter (Evaluated, Visited, FragmentSize, Candidates) — across
// semantics, budgets and pool widths.
func TestParallelUnanchoredBitForBitEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, fx := range parallelFixtures(t) {
		for _, alpha := range []float64{0.005, 0.05, 0.3, 1.0} {
			base := Options{Alpha: alpha}
			pr := Prepare(fx.aux, fx.p)
			simWant := pr.Simulation(base)
			subWant := pr.Subgraph(base, nil)
			subCapWant := pr.Subgraph(base, &subiso.Options{MaxSteps: 200})
			for _, workers := range []int{1, 2, 4, 8} {
				opts := base
				opts.Workers = workers
				if got := pr.Simulation(opts); !reflect.DeepEqual(got, simWant) {
					t.Errorf("%s sim α=%v W=%d:\n got %+v\nwant %+v",
						fx.name, alpha, workers, got, simWant)
				}
				if got := pr.Subgraph(opts, nil); !reflect.DeepEqual(got, subWant) {
					t.Errorf("%s sub α=%v W=%d:\n got %+v\nwant %+v",
						fx.name, alpha, workers, got, subWant)
				}
				if got := pr.Subgraph(opts, &subiso.Options{MaxSteps: 200}); !reflect.DeepEqual(got, subCapWant) {
					t.Errorf("%s sub(capped) α=%v W=%d:\n got %+v\nwant %+v",
						fx.name, alpha, workers, got, subCapWant)
				}
			}
		}
	}
}

// A pre-fired interrupt must stop a parallel run before any anchor is
// evaluated, exactly like the serial path.
func TestParallelUnanchoredPreFiredInterrupt(t *testing.T) {
	fx := parallelFixtures(t)[0]
	done := make(chan struct{})
	close(done)
	opts := Options{Alpha: 1.0, Workers: 4, Reduce: reduce.Options{Interrupt: done}}
	pr := Prepare(fx.aux, fx.p)
	res := pr.Simulation(opts)
	if res.Evaluated != 0 || res.Matches != nil {
		t.Fatalf("pre-fired interrupt evaluated %d anchors, matches %v", res.Evaluated, res.Matches)
	}
	serial := opts
	serial.Workers = 0
	if want := pr.Simulation(serial); !reflect.DeepEqual(res, want) {
		t.Fatalf("pre-fired parallel %+v != serial %+v", res, want)
	}
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

// Waves must make real progress even when every prediction past the
// first mispredicts (tiny budgets force constant rollover divergence):
// the run must terminate and still agree with serial.
func TestParallelUnanchoredTinyBudget(t *testing.T) {
	fx := parallelFixtures(t)[0]
	pr := Prepare(fx.aux, fx.p)
	for _, alpha := range []float64{0.0005, 0.001, 0.002} {
		want := pr.Simulation(Options{Alpha: alpha})
		got := pr.Simulation(Options{Alpha: alpha, Workers: 8})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("α=%v: parallel %+v != serial %+v", alpha, got, want)
		}
	}
}
