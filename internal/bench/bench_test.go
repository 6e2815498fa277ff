package bench

import (
	"bytes"
	"strings"
	"testing"

	"rbq/internal/graph"
)

// tinyScale keeps harness tests fast while exercising every code path.
func tinyScale() Scale {
	return Scale{
		YoutubeNodes:     1000,
		YahooNodes:       1000,
		SyntheticDivisor: 2000, // 1k–5k nodes
		Patterns:         2,
		ReachQueries:     15,
		Seed:             1,
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must have an experiment, plus the ablations.
	want := []string{
		"table2",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
		"fig8i", "fig8j", "fig8k", "fig8l", "fig8m", "fig8n", "fig8o", "fig8p",
		"abl-bound", "abl-weight", "abl-guard", "abl-flat", "abl-condense",
		"ext-unanchored", "ext-calibrate",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if got := len(Experiments()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestRunUnknownIDFails(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, tinyScale(), []string{"nope"}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestEffAlphaPreservesBudget(t *testing.T) {
	g := syntheticGraph(1000, 1)
	a := effAlpha(1e-5, YoutubePaperSize, g)
	budget := a * float64(g.Size())
	wantBudget := 1e-5 * float64(YoutubePaperSize)
	if budget < wantBudget*0.99 || budget > wantBudget*1.01 {
		t.Fatalf("budget %.1f, want %.1f", budget, wantBudget)
	}
	// Clamped below 1.
	if eff := effAlpha(0.9, YahooPaperSize, g); eff >= 1 {
		t.Fatalf("effAlpha not clamped: %v", eff)
	}
}

func TestScaleDefaults(t *testing.T) {
	s := Scale{}.withDefaults()
	if s.Patterns == 0 || s.ReachQueries == 0 || s.YoutubeNodes == 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestPatternWorkloadShapes(t *testing.T) {
	g := syntheticGraph(2000, 3)
	qs := patternWorkload(graph.BuildAux(g), 4, 4, 8, 7)
	if len(qs) == 0 {
		t.Fatal("no queries extracted")
	}
	for _, q := range qs {
		p := q.pl.Pattern()
		if p.NumNodes() != 4 {
			t.Fatalf("|V_p| = %d", p.NumNodes())
		}
		if g.Label(q.vp) != p.Label(p.Personalized()) {
			t.Fatal("anchor label mismatch")
		}
	}
}

// Smoke-run each experiment at tiny scale: tables must render and include
// their header line.
func TestExperimentsSmoke(t *testing.T) {
	headers := map[string]string{
		"table2": "dataset",
		"fig8a":  "RBSim", "fig8b": "RBSim",
		"fig8c": "RBSim acc", "fig8d": "RBSim acc",
		"fig8e": "MatchOpt", "fig8f": "MatchOpt",
		"fig8g": "RBSub acc", "fig8h": "RBSub acc",
		"fig8i": "VF2Opt", "fig8j": "RBSim acc",
		"fig8k": "RBReach", "fig8l": "RBReach",
		"fig8m": "false pos", "fig8n": "false pos",
		"fig8o": "RBReach[0.02%]", "fig8p": "RBReach[0.02%]",
		"abl-bound": "escalating", "abl-weight": "degree-greedy",
		"abl-guard": "label-only", "abl-flat": "hierarchical",
		"abl-condense":   "condensed DAG",
		"ext-unanchored": "anchors evaluated", "ext-calibrate": "mean |G_Q|",
	}
	// The reachability experiments build landmark indexes and dominate the
	// suite's runtime; skip them under -short so CI stays fast while the
	// full `go test ./...` keeps exercising every experiment.
	slow := map[string]bool{
		"fig8k": true, "fig8l": true, "fig8m": true, "fig8n": true,
		"fig8o": true, "fig8p": true,
	}
	s := tinyScale()
	for id, want := range headers {
		id, want := id, want
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && slow[id] {
				t.Skip("reachability harness; skipped in -short")
			}
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("missing experiment %s", id)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, s); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("%s output missing %q:\n%s", id, want, buf.String())
			}
		})
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	var buf bytes.Buffer
	if err := Run(&buf, tinyScale(), []string{"table2", "fig8c", "fig8m"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== table2", "=== fig8c", "=== fig8m", "completed in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}
