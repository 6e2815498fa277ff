package rbq

// Benchmarks regenerating every table and figure of Section 6 of Fan,
// Wang & Wu (SIGMOD 2014), plus micro-benchmarks of the individual
// engines. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks execute the corresponding experiment of
// internal/bench at a reduced scale (one iteration is one full sweep); use
// cmd/rbbench for full-scale tables with readable output.

import (
	"io"
	"math/rand"
	"testing"

	"rbq/internal/bench"
	"rbq/internal/bounded"
	"rbq/internal/compress"
	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/landmark"
	"rbq/internal/plan"
	"rbq/internal/rbreach"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
	"rbq/internal/subiso"
)

// benchScale keeps one experiment iteration in the hundreds of
// milliseconds so `go test -bench=.` finishes in minutes.
func benchScale() bench.Scale {
	return bench.Scale{
		YoutubeNodes:     4000,
		YahooNodes:       4000,
		SyntheticDivisor: 500, // 4k-20k nodes
		Patterns:         3,
		ReachQueries:     30,
		Seed:             1,
	}
}

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable2(b *testing.B)                      { benchExperiment(b, "table2") }
func BenchmarkFig8aVaryAlphaTime(b *testing.B)          { benchExperiment(b, "fig8a") }
func BenchmarkFig8bVaryAlphaTime(b *testing.B)          { benchExperiment(b, "fig8b") }
func BenchmarkFig8cVaryAlphaAccuracy(b *testing.B)      { benchExperiment(b, "fig8c") }
func BenchmarkFig8dVaryAlphaAccuracy(b *testing.B)      { benchExperiment(b, "fig8d") }
func BenchmarkFig8eVaryQTime(b *testing.B)              { benchExperiment(b, "fig8e") }
func BenchmarkFig8fVaryQTime(b *testing.B)              { benchExperiment(b, "fig8f") }
func BenchmarkFig8gVaryQAccuracy(b *testing.B)          { benchExperiment(b, "fig8g") }
func BenchmarkFig8hVaryQAccuracy(b *testing.B)          { benchExperiment(b, "fig8h") }
func BenchmarkFig8iVaryVTime(b *testing.B)              { benchExperiment(b, "fig8i") }
func BenchmarkFig8jVaryVAccuracy(b *testing.B)          { benchExperiment(b, "fig8j") }
func BenchmarkFig8kReachVaryAlphaTime(b *testing.B)     { benchExperiment(b, "fig8k") }
func BenchmarkFig8lReachVaryAlphaTime(b *testing.B)     { benchExperiment(b, "fig8l") }
func BenchmarkFig8mReachVaryAlphaAccuracy(b *testing.B) { benchExperiment(b, "fig8m") }
func BenchmarkFig8nReachVaryAlphaAccuracy(b *testing.B) { benchExperiment(b, "fig8n") }
func BenchmarkFig8oReachVaryVTime(b *testing.B)         { benchExperiment(b, "fig8o") }
func BenchmarkFig8pReachVaryVAccuracy(b *testing.B)     { benchExperiment(b, "fig8p") }

// Ablation benches for the paper's design choices (`rbbench -list`, abl-*).

func BenchmarkAblationFairnessBound(b *testing.B) { benchExperiment(b, "abl-bound") }
func BenchmarkAblationWeights(b *testing.B)       { benchExperiment(b, "abl-weight") }
func BenchmarkAblationGuard(b *testing.B)         { benchExperiment(b, "abl-guard") }
func BenchmarkAblationFlatIndex(b *testing.B)     { benchExperiment(b, "abl-flat") }
func BenchmarkAblationNoCondense(b *testing.B)    { benchExperiment(b, "abl-condense") }

// --- Micro-benchmarks of the individual engines ---

type patternFixture struct {
	g    *graph.Graph
	aux  *graph.Aux
	q    *Pattern
	vp   graph.NodeID
	opts reduce.Options
}

func newPatternFixture(b *testing.B) *patternFixture {
	b.Helper()
	g := YoutubeLike(30_000, 1)
	aux := graph.BuildAux(g)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(vp) < 2 {
			continue
		}
		q := gen.PatternAt(g, vp, gen.PatternConfig{Nodes: 4, Edges: 8, Seed: 3})
		if q == nil {
			continue
		}
		return &patternFixture{g: g, aux: aux, q: q, vp: vp,
			opts: reduce.Options{Alpha: 0.001}}
	}
	b.Fatal("could not extract a benchmark pattern")
	return nil
}

func BenchmarkPreparedRBSimQuery(b *testing.B) {
	f := newPatternFixture(b)
	pl, err := plan.New(f.aux, f.q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Bounded(f.aux, bounded.Simulation, f.vp, f.opts, nil)
	}
}

func BenchmarkPreparedRBSubQuery(b *testing.B) {
	f := newPatternFixture(b)
	pl, err := plan.New(f.aux, f.q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Bounded(f.aux, bounded.Subgraph, f.vp, f.opts, nil)
	}
}

func BenchmarkReduceSearch(b *testing.B) {
	f := newPatternFixture(b)
	sem := bounded.NewSemantics(f.aux, f.q, bounded.Simulation)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduce.Search(f.aux, f.q, f.vp, sem, f.opts)
	}
}

func BenchmarkDualSimulation(b *testing.B) {
	f := newPatternFixture(b)
	// Rebuild the d_Q-ball as a standalone Graph so this keeps measuring
	// the whole-(sub)graph fixpoint; BenchmarkMatchOptExact covers the
	// pooled exact path, which reads only the ball's label-closed region.
	var csr graph.FragCSR
	f.g.BallInto(f.vp, f.q.Diameter(), &csr, nil)
	ballG := csr.ToGraph(f.g)
	bvp := graph.NodeID(csr.PosOf(f.vp))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulation.DualSimulation(ballG, f.q, bvp)
	}
}

func BenchmarkMatchOptExact(b *testing.B) {
	f := newPatternFixture(b)
	labels := f.g.InternLabels(f.q.Labels(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulation.MatchOpt(f.g, f.q, labels, f.vp, nil)
	}
}

func BenchmarkVF2OptExact(b *testing.B) {
	f := newPatternFixture(b)
	labels := f.g.InternLabels(f.q.Labels(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subiso.MatchOpt(f.g, f.q, labels, f.vp, &subiso.Options{MaxSteps: 20_000_000})
	}
}

func BenchmarkBuildAux(b *testing.B) {
	g := YoutubeLike(30_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BuildAux(g)
	}
}

type reachFixture struct {
	g      *graph.Graph
	oracle *rbreach.Oracle
	qs     []gen.ReachQuery
}

func newReachFixture(b *testing.B) *reachFixture {
	b.Helper()
	g := YahooLike(20_000, 1)
	oracle := rbreach.New(g, landmark.BuildOptions{Alpha: 0.005})
	return &reachFixture{g: g, oracle: oracle, qs: gen.ReachQueries(g, 64, 9)}
}

func BenchmarkRBReachQuery(b *testing.B) {
	f := newReachFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.qs[i%len(f.qs)]
		f.oracle.Query(q.From, q.To)
	}
}

func BenchmarkBFSReachQuery(b *testing.B) {
	f := newReachFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.qs[i%len(f.qs)]
		f.g.Reachable(q.From, q.To)
	}
}

func BenchmarkBFSOptReachQuery(b *testing.B) {
	f := newReachFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.qs[i%len(f.qs)]
		cu := f.oracle.Cond.ComponentOf[q.From]
		cv := f.oracle.Cond.ComponentOf[q.To]
		f.oracle.Cond.DAG.Reachable(cu, cv)
	}
}

func BenchmarkLMReachQuery(b *testing.B) {
	f := newReachFixture(b)
	lm := landmark.BuildLM(f.oracle.Cond.DAG, 40, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.qs[i%len(f.qs)]
		lm.Query(f.oracle.Cond.ComponentOf[q.From], f.oracle.Cond.ComponentOf[q.To])
	}
}

func BenchmarkCondense(b *testing.B) {
	g := YahooLike(20_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.Condense(g)
	}
}

func BenchmarkLandmarkIndexBuild(b *testing.B) {
	g := YahooLike(20_000, 1)
	cond := compress.Condense(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		landmark.Build(cond.DAG, landmark.BuildOptions{Alpha: 0.005})
	}
}

func BenchmarkPatternExtract(b *testing.B) {
	g := YoutubeLike(30_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.PatternAt(g, graph.NodeID(i%g.NumNodes()), gen.PatternConfig{Nodes: 4, Edges: 8, Seed: int64(i)})
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		YoutubeLike(30_000, 1)
	}
}
