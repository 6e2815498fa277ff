package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"rbq/internal/accuracy"
	"rbq/internal/compress"
	"rbq/internal/gen"
	"rbq/internal/landmark"
	"rbq/internal/rbreach"
)

// Paper sweep (Section 6, Exp-2): α from 0.01% to 0.1%.
var reachAlphas = []float64{1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 6e-4, 7e-4, 8e-4, 9e-4, 1e-3}

func init() {
	register(Experiment{"fig8k", "Fig 8(k): reachability time vs alpha (Youtube-like)", figReachVsAlpha(0, true)})
	register(Experiment{"fig8l", "Fig 8(l): reachability time vs alpha (Yahoo-like)", figReachVsAlpha(1, true)})
	register(Experiment{"fig8m", "Fig 8(m): reachability accuracy vs alpha (Youtube-like)", figReachVsAlpha(0, false)})
	register(Experiment{"fig8n", "Fig 8(n): reachability accuracy vs alpha (Yahoo-like)", figReachVsAlpha(1, false)})
	register(Experiment{"fig8o", "Fig 8(o): reachability time vs |V| (synthetic)", figReachVsV(true)})
	register(Experiment{"fig8p", "Fig 8(p): reachability accuracy vs |V| (synthetic)", figReachVsV(false)})
}

// reachSweep is one reachability workload measured once: RBReach at each
// α of a sweep, and the three baselines (mean query times, and LM's
// accuracy; BFS and BFSOpt are exact).
type reachSweep struct {
	rb              []reachCell
	bfs, bfsOpt, lm time.Duration
	lmAcc           float64
}

// reachCell is RBReach at one α: mean query time, accuracy and false
// positives against the ground truth.
type reachCell struct {
	time time.Duration
	acc  float64
	fp   int
}

// measureReach measures the reachability workload of d at each paper α.
// The condensation is shared across all α, and the LM baseline is sized
// 4·log|V| per the paper.
func measureReach(d *ds, s Scale, alphas []float64) reachSweep {
	cond := compress.Condense(d.g)
	lm := landmark.BuildLM(cond.DAG, int(4*math.Log(float64(d.g.NumNodes()))), s.Seed)
	queries := gen.ReachQueries(d.g, s.ReachQueries, s.Seed+7)
	n := time.Duration(max(len(queries), 1))
	truth := make([]bool, len(queries))
	ans := make([]bool, len(queries))
	var sw reachSweep
	for i, q := range queries {
		truth[i] = q.Truth
		sw.bfs += timeIt(func() { d.g.Reachable(q.From, q.To) })
		sw.bfsOpt += timeIt(func() { cond.Reachable(q.From, q.To) })
		cu, cv := cond.ComponentOf[q.From], cond.ComponentOf[q.To]
		sw.lm += timeIt(func() { ans[i] = lm.Query(cu, cv) })
	}
	sw.bfs, sw.bfsOpt, sw.lm = sw.bfs/n, sw.bfsOpt/n, sw.lm/n
	sw.lmAcc = accuracy.Booleans(truth, ans, nil).F
	for _, a := range alphas {
		oracle := rbreach.FromCondensation(cond, landmark.BuildOptions{Alpha: effAlpha(a, d.paperSize, d.g)}, d.g.Size())
		var total time.Duration
		for i, q := range queries {
			total += timeIt(func() { ans[i] = oracle.Query(q.From, q.To).Answer })
		}
		sw.rb = append(sw.rb, reachCell{total / n, accuracy.Booleans(truth, ans, nil).F, accuracy.FalsePositives(truth, ans)})
	}
	return sw
}

// figReachVsAlpha is Fig. 8(k)–(n): RBReach on real dataset idx across
// the paper's α sweep beside the baselines, as query time (timing) or
// accuracy.
func figReachVsAlpha(idx int, timing bool) func(io.Writer, Scale) error {
	return func(w io.Writer, s Scale) error {
		d := realDatasets(s)[idx]
		sw := measureReach(d, s, reachAlphas)
		tw := newTable(w)
		if timing {
			fmt.Fprintln(tw, "α(paper)\tα(effective)\tRBReach\tBFSOpt\tBFS\tLM")
		} else {
			fmt.Fprintln(tw, "α(paper)\tα(effective)\tRBReach acc\tfalse pos\tBFS acc\tLM acc")
		}
		for j, a := range reachAlphas {
			fmt.Fprintf(tw, "%.2fe-4\t%s\t", a*1e4, pct(effAlpha(a, d.paperSize, d.g)))
			if c := sw.rb[j]; timing {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", ms(c.time), ms(sw.bfsOpt), ms(sw.bfs), ms(sw.lm))
			} else {
				fmt.Fprintf(tw, "%s\t%d\t100.0%%\t%s\n", pct(c.acc), c.fp, pct(sw.lmAcc))
			}
		}
		return tw.Flush()
	}
}

// Synthetic reachability sweep: the paper fixes α at 0.02% and 0.01%.
var reachSyntheticAlphas = []float64{2e-4, 1e-4}

// figReachVsV is Fig. 8(o)–(p): RBReach at the two synthetic α beside
// the baselines across the synthetic graph sizes, as query time (timing)
// or accuracy.
func figReachVsV(timing bool) func(io.Writer, Scale) error {
	return func(w io.Writer, s Scale) error {
		tw := newTable(w)
		if timing {
			fmt.Fprintln(tw, "|V|(paper)\t|V|(run)\tRBReach[0.02%]\tRBReach[0.01%]\tBFSOpt\tBFS\tLM")
		} else {
			fmt.Fprintln(tw, "|V|(paper)\t|V|(run)\tRBReach[0.02%]\tRBReach[0.01%]\tBFS\tLM")
		}
		for i, nodes := range syntheticSizes(s) {
			d := newDS(fmt.Sprintf("syn-%d", nodes), syntheticGraph(nodes, s.Seed+int64(i)), 3*nodes*s.SyntheticDivisor)
			sw := measureReach(d, s, reachSyntheticAlphas)
			fmt.Fprintf(tw, "%dM\t%d\t", nodes*s.SyntheticDivisor/1_000_000, nodes)
			if timing {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", ms(sw.rb[0].time), ms(sw.rb[1].time), ms(sw.bfsOpt), ms(sw.bfs), ms(sw.lm))
			} else {
				fmt.Fprintf(tw, "%s\t%s\t100.0%%\t%s\n", pct(sw.rb[0].acc), pct(sw.rb[1].acc), pct(sw.lmAcc))
			}
		}
		return tw.Flush()
	}
}
