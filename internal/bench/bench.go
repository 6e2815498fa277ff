// Package bench is the experiment harness that regenerates every table and
// figure of Section 6 of Fan, Wang & Wu (SIGMOD 2014), plus the ablation
// studies of ablation.go (fairness bound, frontier ranking, guard, flat
// index, condensation). Each experiment prints the same rows/series the
// paper reports.
//
// The paper evaluates on Youtube (|G| ≈ 6.1M items) and a Yahoo web graph
// (|G| ≈ 18M items); this harness runs on power-law stand-ins at a reduced
// scale (see package dataset). To keep the paper's α values meaningful,
// resource budgets are mapped through the original graph sizes: a row
// labeled α = 1.6×10⁻⁵ gets the same absolute budget α·|G_paper| the
// paper's run had, expressed as an effective ratio on the stand-in. All
// output tables print both numbers.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"rbq/internal/graph"
)

// Paper |G| = |V| + |E| of the original datasets (Section 6).
const (
	YoutubePaperSize = 1_609_969 + 4_509_826
	YahooPaperSize   = 3_000_022 + 14_979_447
)

// Scale controls how large the stand-in workloads are. The zero value is
// usable: withDefaults fills laptop-friendly sizes; multiply via Factor to
// approach the paper's scale.
type Scale struct {
	// YoutubeNodes / YahooNodes size the two real-graph stand-ins.
	YoutubeNodes, YahooNodes int
	// SyntheticDivisor divides the paper's 2M–10M synthetic node counts
	// (e.g. 20 → 100k–500k).
	SyntheticDivisor int
	// Patterns is the number of pattern queries per measurement point.
	Patterns int
	// ReachQueries is the number of reachability queries per point (the
	// paper uses 100).
	ReachQueries int
	// Seed drives all generators.
	Seed int64
}

// DefaultScale returns the laptop-friendly default workload.
func DefaultScale() Scale {
	return Scale{
		YoutubeNodes:     40_000,
		YahooNodes:       60_000,
		SyntheticDivisor: 40,
		Patterns:         5,
		ReachQueries:     100,
		Seed:             1,
	}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.YoutubeNodes <= 0 {
		s.YoutubeNodes = d.YoutubeNodes
	}
	if s.YahooNodes <= 0 {
		s.YahooNodes = d.YahooNodes
	}
	if s.SyntheticDivisor <= 0 {
		s.SyntheticDivisor = d.SyntheticDivisor
	}
	if s.Patterns <= 0 {
		s.Patterns = d.Patterns
	}
	if s.ReachQueries <= 0 {
		s.ReachQueries = d.ReachQueries
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// Experiment is one table or figure of the paper (or one ablation).
type Experiment struct {
	// ID is the handle used by cmd/rbbench -exp (e.g. "fig8a").
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment and prints its table to w.
	Run func(w io.Writer, s Scale) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the named experiments (all of them when ids is empty),
// separating their outputs with headers.
func Run(w io.Writer, s Scale, ids []string) error {
	s = s.withDefaults()
	var todo []Experiment
	if len(ids) == 0 {
		todo = Experiments()
	} else {
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				return fmt.Errorf("bench: unknown experiment %q (try: %s)", id, allIDs())
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(w, s); err != nil {
			return fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func allIDs() string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ", "
		}
		out += id
	}
	return out
}

// effAlpha maps a paper α to the effective ratio on a stand-in graph so
// the absolute budget α·|G_paper| is preserved (clamped below 1).
func effAlpha(paperAlpha float64, paperSize int, g *graph.Graph) float64 {
	a := paperAlpha * float64(paperSize) / float64(g.Size())
	if a >= 1 {
		a = 0.999
	}
	return a
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// timeIt measures f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// ms formats a duration in milliseconds with sub-ms resolution.
func ms(d time.Duration) string { return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000) }
