package reduce

import (
	"reflect"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/obs"
)

// roundCounters reads the "round" spans under root's "reduce" span as
// [bound, pops, adds, pushes, guard_rejects] rows.
func roundCounters(t *testing.T, root *obs.Span) [][5]int64 {
	t.Helper()
	red := root.Find(obs.PhaseReduce)
	if red == nil {
		t.Fatal("no reduce span")
	}
	var rows [][5]int64
	for _, r := range red.Children {
		var row [5]int64
		for i, name := range []string{"bound", "pops", "adds", "pushes", "guard_rejects"} {
			row[i], _ = r.Counter(name)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestTraceEventOrder walks the smallest two-round search and checks every
// counter of its Stats and of its round spans, and the order in which the
// fragment admitted its nodes.
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

	root := obs.StartSpan("test")
	frag, stats := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0, Obs: root})
	// Round 1 pops (P,h) and admits h, scans h's list — C kept, X
	// rejected by label — and pushes c; it pops (C,c), admits c and
	// probes the edge back to the pinned h. Round 2 replays h's list and
	// admits nothing, which ends the search. Ranking c reads h in c's
	// parents in round 1, and round 2 takes it from the cost memo;
	// admitting h searches h's children for the self-loop, and admitting
	// c reads c's one parent.
	want := Stats{
		Budget: 5, FragmentSize: 3, FragmentNodes: 2, FragmentEdges: 1,
		Visited: 10, Pops: 4, EdgeProbes: 2, ListCharges: 2, ReplayCharges: 2,
		GuardCalls: 1, CostReads: 1, InducedReads: 2,
		Adds: 2, Pushes: 2, GuardRejects: 2,
		Rounds: 2, FinalBound: 3, PairHighWater: 2,
	}
	if stats != want {
		t.Fatalf("stats:\n got  %+v\n want %+v", stats, want)
	}
	if got := roundCounters(t, root); !reflect.DeepEqual(got, [][5]int64{{2, 2, 2, 1, 1}, {3, 2, 0, 1, 1}}) {
		t.Fatalf("round spans [bound pops adds pushes guard_rejects] = %v", got)
	}
	if !reflect.DeepEqual(frag.Nodes(), []graph.NodeID{h, c}) {
		t.Fatalf("fragment order %v, want [%d %d]", frag.Nodes(), h, c)
	}
	if frag.Contains(x) {
		t.Fatal("the X child must be guard-rejected")
	}
}

// TestTraceBudgetStop: a search the size budget stops says so on its
// reduce span.
func TestTraceBudgetStop(t *testing.T) {
	g, h := starGraph("P", 20, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	root := obs.StartSpan("test")
	_, stats := Search(aux, p, h, labelSemantics{g, p}, Options{
		Alpha: 0.2, // budget 8 of |G|=41: must stop on budget
		Obs:   root,
	})
	if !stats.BudgetExhausted {
		t.Fatalf("no budget stop on an over-budget workload: %+v", stats)
	}
	if n, _ := root.Find(obs.PhaseReduce).Counter("budget_exhausted"); n != 1 {
		t.Fatalf("reduce span budget_exhausted = %d, want 1", n)
	}
}

// TestNoTraceNoOverheadPath: a traced run reads what an untraced one
// reads, so every counter and the fragment agree.
func TestNoTraceNoOverheadPath(t *testing.T) {
	g, h := starGraph("P", 10, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	f1, s1 := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0})
	f2, s2 := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0, Obs: obs.StartSpan("test")})
	if s1 != s2 || !reflect.DeepEqual(f1.Nodes(), f2.Nodes()) {
		t.Fatalf("tracing changed the search:\n off %+v\n on  %+v", s1, s2)
	}
}

// The guarded condition runs on a list's first scan only: a later round
// replays the memoized list, calls the guard on none of its neighbours
// again, and still reports the list's rejects in its round span.
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
	_, stats := Search(aux, p, h, labelSemantics{g, p}, Options{Alpha: 1.0, MaxBound: 4, Obs: root})
	if stats.Rounds != 3 {
		t.Fatalf("fixture ran %d rounds, want 3: %+v", stats.Rounds, stats)
	}
	if stats.GuardCalls != 6 || stats.ListCharges != 11 || stats.ReplayCharges != 22 {
		t.Fatalf("guard calls %d, list charges %d, replay charges %d: want 6 (the C children, once), 11 and 22",
			stats.GuardCalls, stats.ListCharges, stats.ReplayCharges)
	}
	rounds := roundCounters(t, root)
	if len(rounds) != 3 {
		t.Fatalf("%d round spans, want 3", len(rounds))
	}
	for i, r := range rounds {
		if r[4] != 5 {
			t.Fatalf("round %d span: guard_rejects = %d, want 5 (replays carry the count)", i+1, r[4])
		}
	}
}
