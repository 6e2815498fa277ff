package bench

import (
	"context"
	"fmt"
	"io"

	"rbq/internal/accuracy"
	"rbq/internal/bounded"
	"rbq/internal/calibrate"
	"rbq/internal/rbany"
)

// Experiments for the Section 7 extensions implemented in this repository
// (not paper artifacts): unanchored pattern matching and α-calibration.

func init() {
	register(Experiment{"ext-unanchored", "Extension: patterns without a personalized node (budget split across anchors)", runExtUnanchored})
	register(Experiment{"ext-calibrate", "Extension: empirical accuracy curve and minimal alpha for target accuracy", runExtCalibrate})
}

func runExtUnanchored(w io.Writer, s Scale) error {
	d := realDatasets(s)[0]
	queries := patternWorkload(d.aux, s.Patterns, defaultQSize[0], defaultQSize[1], s.Seed)
	if len(queries) == 0 {
		fmt.Fprintln(w, "(no queries extracted)")
		return nil
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "α(paper)\tα(effective)\taccuracy\tanchors evaluated\ttotal |G_Q|")
	for _, a := range []float64{1e-4, 1e-3, 1e-2} {
		eff := effAlpha(a, d.paperSize, d.g)
		acc, anchors, frag := 0.0, 0, 0
		for _, q := range queries {
			exact, _ := rbany.SimulationExact(d.g, q.pl.Pattern(), 1, nil)
			res := q.pl.Unanchored(q.aux, bounded.Simulation, rbany.Options{Alpha: eff}, nil)
			acc += accuracy.Matches(exact, res.Matches).F
			anchors += res.Evaluated
			frag += res.FragmentSize
		}
		n := len(queries)
		fmt.Fprintf(tw, "%.0e\t%s\t%s\t%.1f\t%d\n",
			a, pct(eff), pct(acc/float64(n)), float64(anchors)/float64(n), frag/n)
	}
	return tw.Flush()
}

func runExtCalibrate(w io.Writer, s Scale) error {
	d := realDatasets(s)[0]
	raw := patternWorkload(d.aux, s.Patterns, defaultQSize[0], defaultQSize[1], s.Seed)
	if len(raw) == 0 {
		fmt.Fprintln(w, "(no queries extracted)")
		return nil
	}
	queries := make([]calibrate.Query, len(raw))
	for i, q := range raw {
		queries[i] = calibrate.Query{P: q.pl.Pattern(), VP: q.vp}
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "α\taccuracy\tmean |G_Q|")
	alphas := []float64{
		effAlpha(1.1e-5, d.paperSize, d.g),
		effAlpha(2e-5, d.paperSize, d.g),
		effAlpha(1e-4, d.paperSize, d.g),
	}
	for _, pt := range calibrate.Curve(context.Background(), d.aux, queries, alphas) {
		fmt.Fprintf(tw, "%.5f\t%s\t%.1f\n", pt.Alpha, pct(pt.Accuracy), pt.MeanFragment)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	pt, ok := calibrate.MinAlpha(context.Background(), d.aux, queries, 1.0, effAlpha(1e-3, d.paperSize, d.g), 5)
	if ok {
		fmt.Fprintf(w, "minimal α for 100%% accuracy on this workload: %.6f (mean |G_Q| = %.1f)\n",
			pt.Alpha, pt.MeanFragment)
	} else {
		fmt.Fprintf(w, "100%% accuracy not reached below the sweep ceiling (best %s)\n", pct(pt.Accuracy))
	}
	return nil
}
