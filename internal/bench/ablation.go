package bench

import (
	"fmt"
	"io"

	"rbq/internal/accuracy"
	"rbq/internal/bounded"
	"rbq/internal/compress"
	"rbq/internal/gen"
	"rbq/internal/landmark"
	"rbq/internal/rbreach"
	"rbq/internal/reduce"
)

// Ablation studies for the paper's design choices. Each compares the
// paper's choice against a degraded variant on the same workload,
// reporting accuracy and data accessed.

func init() {
	register(Experiment{"abl-bound", "Ablation: fairness bound b (escalating vs frozen vs greedy)", runAblationBound})
	register(Experiment{"abl-weight", "Ablation: frontier ranking p/(c+1) vs degree vs random", runAblationWeight})
	register(Experiment{"abl-guard", "Ablation: guarded condition C(v,u) on vs off", runAblationGuard})
	register(Experiment{"abl-flat", "Ablation: hierarchical vs flat landmark index", runAblationFlat})
	register(Experiment{"abl-condense", "Ablation: SCC condensation before reachability indexing", runAblationCondense})
}

// ablationPatternSetup prepares the shared pattern workload on the
// Youtube-like stand-in at the paper's α = 1.6e-5.
func ablationPatternSetup(s Scale) ([]patternEval, float64) {
	d := realDatasets(s)[0]
	queries := patternWorkload(d.aux, s.Patterns, defaultQSize[0], defaultQSize[1], s.Seed)
	evals := make([]patternEval, 0, len(queries))
	for _, q := range queries {
		e := patternEval{q: q}
		e.exactSim, _ = q.pl.Exact(q.aux, bounded.Simulation, q.vp, nil, 0)
		evals = append(evals, e)
	}
	return evals, effAlpha(1.6e-5, d.paperSize, d.g)
}

func runSimVariant(evals []patternEval, opts reduce.Options) (acc float64, visited, frag int) {
	for _, e := range evals {
		r := e.q.pl.Bounded(e.q.aux, bounded.Simulation, e.q.vp, opts, nil)
		acc += accuracy.Matches(e.exactSim, r.Matches).F
		visited += r.Stats.Visited
		frag += r.Stats.FragmentSize
	}
	n := maxInt(len(evals), 1)
	return acc / float64(len(evals)), visited / n, frag / n
}

func runAblationBound(w io.Writer, s Scale) error {
	evals, eff := ablationPatternSetup(s)
	if len(evals) == 0 {
		fmt.Fprintln(w, "(no queries extracted)")
		return nil
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "variant\taccuracy\tavg visited\tavg |G_Q|")
	variants := []struct {
		name string
		opts reduce.Options
	}{
		{"escalating b (paper)", reduce.Options{Alpha: eff}},
		{"frozen b=2", reduce.Options{Alpha: eff, MaxBound: 2}},
		{"greedy b=64", reduce.Options{Alpha: eff, InitialBound: 64}},
	}
	for _, v := range variants {
		acc, vis, frag := runSimVariant(evals, v.opts)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", v.name, pct(acc), vis, frag)
	}
	return tw.Flush()
}

func runAblationWeight(w io.Writer, s Scale) error {
	evals, eff := ablationPatternSetup(s)
	if len(evals) == 0 {
		fmt.Fprintln(w, "(no queries extracted)")
		return nil
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "ranking\taccuracy\tavg visited\tavg |G_Q|")
	variants := []struct {
		name string
		st   reduce.WeightStrategy
	}{
		{"p/(c+1) (paper)", reduce.WeightPotentialCost},
		{"degree-greedy", reduce.WeightDegree},
		{"random", reduce.WeightRandom},
	}
	for _, v := range variants {
		acc, vis, frag := runSimVariant(evals, reduce.Options{Alpha: eff, Strategy: v.st, Seed: s.Seed})
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", v.name, pct(acc), vis, frag)
	}
	return tw.Flush()
}

func runAblationGuard(w io.Writer, s Scale) error {
	evals, eff := ablationPatternSetup(s)
	if len(evals) == 0 {
		fmt.Fprintln(w, "(no queries extracted)")
		return nil
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "guard\taccuracy\tavg visited\tavg |G_Q|")
	for _, v := range []struct {
		name    string
		disable bool
	}{{"C(v,u) on (paper)", false}, {"label-only", true}} {
		acc, vis, frag := runSimVariant(evals, reduce.Options{Alpha: eff, DisableGuard: v.disable})
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", v.name, pct(acc), vis, frag)
	}
	return tw.Flush()
}

func runAblationFlat(w io.Writer, s Scale) error {
	d := realDatasets(s)[0]
	cond := compress.Condense(d.g)
	queries := gen.ReachQueries(d.g, s.ReachQueries, s.Seed+7)
	truth := make([]bool, len(queries))
	for i, q := range queries {
		truth[i] = q.Truth
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "index\taccuracy\tindex size")
	eff := effAlpha(5e-4, d.paperSize, d.g)
	for _, v := range []struct {
		name      string
		maxLevels int
	}{{"hierarchical (paper)", 0}, {"flat (leaves only)", 1}} {
		oracle := rbreach.FromCondensation(cond,
			landmark.BuildOptions{Alpha: eff, MaxLevels: v.maxLevels}, d.g.Size())
		ans := make([]bool, len(queries))
		for i, q := range queries {
			ans[i] = oracle.Query(q.From, q.To).Answer
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\n", v.name,
			pct(accuracy.Booleans(truth, ans, nil).F), oracle.Index.Size())
	}
	return tw.Flush()
}

func runAblationCondense(w io.Writer, s Scale) error {
	d := realDatasets(s)[0]
	cond := compress.Condense(d.g)
	tw := newTable(w)
	fmt.Fprintln(tw, "stage\tnodes\tedges\t|G|")
	fmt.Fprintf(tw, "raw graph\t%d\t%d\t%d\n", d.g.NumNodes(), d.g.NumEdges(), d.g.Size())
	fmt.Fprintf(tw, "condensed DAG\t%d\t%d\t%d\n",
		cond.DAG.NumNodes(), cond.DAG.NumEdges(), cond.DAG.Size())
	if err := tw.Flush(); err != nil {
		return err
	}
	ratio := float64(cond.DAG.Size()) / float64(d.g.Size())
	fmt.Fprintf(w, "condensation keeps %s of |G| while preserving all reachability answers\n", pct(ratio))
	return nil
}
