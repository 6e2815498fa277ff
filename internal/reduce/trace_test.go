package reduce

import (
	"bytes"
	"strings"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/obs"
)

func TestTraceEventOrder(t *testing.T) {
	// P -> C with one valid and one guarded-out child.
	b := graph.NewBuilder(3, 2)
	h := b.AddNode("P")
	c := b.AddNode("C")
	b.AddEdge(h, c)
	x := b.AddNode("X")
	b.AddEdge(h, x)
	g := b.Build()
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")

	var events []Event
	Search(aux, p, h, labelSemantics{g, p}, Options{
		Alpha: 1.0,
		Trace: func(e Event) { events = append(events, e) },
	})
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	if events[0].Kind != EventRound || events[0].Bound != 2 {
		t.Fatalf("first event = %+v, want round with b=2", events[0])
	}
	var sawPop, sawAdd, sawPush, sawReject bool
	addsBeforePops := 0
	popsSeen := 0
	for _, e := range events {
		switch e.Kind {
		case EventPop:
			popsSeen++
			sawPop = true
		case EventAdd:
			if popsSeen == 0 {
				addsBeforePops++
			}
			sawAdd = true
		case EventPush:
			sawPush = true
			if e.Weight < 0 {
				t.Fatalf("negative push weight: %+v", e)
			}
		case EventGuardReject:
			sawReject = true
			if g.Label(e.V) != "X" {
				t.Fatalf("guard rejected the wrong node: %+v", e)
			}
		}
	}
	if !sawPop || !sawAdd || !sawPush {
		t.Fatalf("missing core events: pop=%v add=%v push=%v", sawPop, sawAdd, sawPush)
	}
	if !sawReject {
		t.Fatal("the X child must be guard-rejected")
	}
	if addsBeforePops != 0 {
		t.Fatal("a node was added before any pop")
	}
}

func TestTraceBudgetStop(t *testing.T) {
	g, h := starGraph("P", 20, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	var kinds []EventKind
	Search(aux, p, h, labelSemantics{g, p}, Options{
		Alpha: 0.2, // budget 8 of |G|=41: must stop on budget
		Trace: func(e Event) { kinds = append(kinds, e.Kind) },
	})
	found := false
	for _, k := range kinds {
		if k == EventBudgetStop {
			found = true
		}
	}
	if !found {
		t.Fatal("no budget-stop event on an over-budget workload")
	}
}

func TestWriteTracerRendersAllKinds(t *testing.T) {
	var buf bytes.Buffer
	tr := WriteTracer(&buf)
	for _, e := range []Event{
		{Kind: EventRound, Bound: 2},
		{Kind: EventPop, U: 1, V: 2},
		{Kind: EventAdd, V: 3, Weight: 2},
		{Kind: EventPush, U: 1, V: 4, Weight: 1.5},
		{Kind: EventGuardReject, U: 1, V: 5},
		{Kind: EventBudgetStop},
		{Kind: EventVisitStop},
	} {
		tr(e)
	}
	out := buf.String()
	for _, want := range []string{
		"round with b=2", "pop", "add v=3 (+2 items)",
		"push (u=1, v=4) w=1.500", "guard-reject", "budget-stop", "visit-stop",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
	if EventPop.String() != "pop" {
		t.Fatalf("got %q", EventPop.String())
	}
}

func TestNoTraceNoOverheadPath(t *testing.T) {
	// Smoke: tracing disabled must not panic or change results.
	g, h := starGraph("P", 10, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	f1, s1 := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0})
	f2, s2 := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0, Trace: func(Event) {}})
	if f1.Size() != f2.Size() || s1.Visited != s2.Visited {
		t.Fatal("tracing changed the search")
	}
}

// Per-neighbor guard-reject events belong to a list's first scan: a later
// round replays the memoized list, emits none of them again, and still
// reports the full count in its round span.
func TestTraceGuardRejectsOnFirstScanOnly(t *testing.T) {
	// P -> 6 C children and 5 X children: three rounds (b = 2, 3, 4) each
	// pick over the hub's 11 neighbors, 5 of which the guard rejects.
	b := graph.NewBuilder(12, 11)
	h := b.AddNode("P")
	for i := 0; i < 6; i++ {
		b.AddEdge(h, b.AddNode("C"))
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(h, b.AddNode("X"))
	}
	g := b.Build()
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")

	root := obs.StartSpan("test")
	rejectsInRound := map[int]int{}
	_, stats := Search(aux, p, h, labelSemantics{g, p}, Options{
		Alpha: 1.0, MaxBound: 4, Obs: root,
		Trace: func(e Event) {
			if e.Kind == EventGuardReject {
				rejectsInRound[e.Bound]++
			}
		},
	})
	if stats.Rounds != 3 {
		t.Fatalf("fixture ran %d rounds, want 3: %+v", stats.Rounds, stats)
	}
	if len(rejectsInRound) != 1 || rejectsInRound[2] != 5 {
		t.Fatalf("guard-reject events per bound = %v, want 5 in the first round (b=2) only", rejectsInRound)
	}
	rounds := root.Find(obs.PhaseReduce).Children
	if len(rounds) != 3 {
		t.Fatalf("%d round spans, want 3", len(rounds))
	}
	for i, r := range rounds {
		if n, _ := r.Counter("guard_rejects"); n != 5 {
			t.Fatalf("round %d span: guard_rejects = %d, want 5 (replays carry the count)", i+1, n)
		}
	}
}
