package reduce_test

// Differential test of the list memo: refSearch is the scan-every-round
// engine this package had before Pick memoized adjacency lists — Go maps
// for the pair sets, the pushed-set test ahead of the guard, a full sort
// of every frontier, c(v,u) by brute force — kept here as the reference
// the production engine must equal bit for bit: Stats, fragment insertion
// order, the per-round span counters, and the event stream up to the
// guard-reject events a replay does not repeat.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rbq/internal/bounded"
	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/obs"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
)

type refPair struct {
	u pattern.NodeID
	v graph.NodeID
}

type refCand struct {
	v   graph.NodeID
	deg int
	w   float64
}

type refEngine struct {
	g    *graph.Graph
	p    *pattern.Pattern
	sem  reduce.Semantics
	opts reduce.Options
	rng  *rand.Rand
	frag *graph.Fragment
	vp   graph.NodeID

	budget, visitBudget, visited, bound int
	stack                               []refPair
	onStack, expanded                   map[refPair]bool
	changed, exhausted                  bool
	visitsDone, canceled                bool
	stats                               reduce.Stats
}

func refSearch(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem reduce.Semantics, opts reduce.Options) (*graph.Fragment, reduce.Stats) {
	g := aux.Graph()
	e := &refEngine{g: g, p: p, sem: sem, opts: opts, frag: graph.NewFragment(g), vp: vp}
	e.budget = int(opts.Alpha * float64(g.Size()))
	e.visitBudget = opts.VisitBudget
	if e.visitBudget <= 0 {
		e.visitBudget = (e.budget + 1) * max(1, g.MaxDegree())
	}
	e.bound = opts.InitialBound
	if e.bound <= 0 {
		e.bound = 2
	}
	if opts.Strategy == reduce.WeightRandom {
		e.rng = rand.New(rand.NewSource(opts.Seed))
	}
	e.run()
	e.stats.Budget = e.budget
	e.stats.FragmentSize = e.frag.Size()
	e.stats.FragmentNodes = e.frag.NumNodes()
	e.stats.FragmentEdges = e.frag.NumEdges()
	e.stats.Visited = e.visited
	e.stats.FinalBound = e.bound
	e.stats.BudgetExhausted = e.exhausted
	e.stats.VisitsExhausted = e.visitsDone
	e.stats.Canceled = e.canceled
	return e.frag, e.stats
}

func (e *refEngine) emit(kind reduce.EventKind, u pattern.NodeID, v graph.NodeID, w float64) {
	if e.opts.Trace != nil {
		e.opts.Trace(reduce.Event{Kind: kind, U: u, V: v, Weight: w, Bound: e.bound})
	}
}

func (e *refEngine) stopVisit() bool {
	e.visited++
	if e.visited > e.visitBudget {
		e.visitsDone = true
		return true
	}
	if e.visited%interrupt.Stride == 0 && interrupt.Fired(e.opts.Interrupt) {
		e.canceled = true
		return true
	}
	return false
}

func (e *refEngine) stopped() bool { return e.visitsDone || e.canceled }

func (e *refEngine) stopKind() reduce.EventKind {
	if e.canceled {
		return reduce.EventCanceled
	}
	return reduce.EventVisitStop
}

func (e *refEngine) push(k refPair) {
	if !e.onStack[k] {
		e.onStack[k] = true
		e.stack = append(e.stack, k)
	}
}

func (e *refEngine) run() {
	if e.budget < 1 {
		return
	}
	for {
		e.stats.Rounds++
		e.emit(reduce.EventRound, 0, 0, 0)
		e.onStack, e.expanded = map[refPair]bool{}, map[refPair]bool{}
		e.stack = e.stack[:0]
		e.changed = false
		e.push(refPair{e.p.Personalized(), e.vp})
		e.round()
		e.stats.PairHighWater = max(e.stats.PairHighWater, len(e.onStack))
		if e.exhausted || e.stopped() || !e.changed {
			return
		}
		if e.opts.MaxBound > 0 && e.bound >= e.opts.MaxBound {
			return
		}
		e.bound++
	}
}

func (e *refEngine) round() {
	for len(e.stack) > 0 {
		k := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		if e.stopVisit() {
			e.emit(e.stopKind(), k.u, k.v, 0)
			return
		}
		e.emit(reduce.EventPop, k.u, k.v, 0)
		if !e.frag.Contains(k.v) {
			inc := 1 + e.frag.InducedEdgeCost(k.v)
			if e.frag.Size()+inc > e.budget {
				e.exhausted = true
				e.emit(reduce.EventBudgetStop, k.u, k.v, 0)
				continue
			}
			e.frag.Add(k.v)
			e.changed = true
			e.emit(reduce.EventAdd, k.u, k.v, float64(inc))
			if e.frag.Size() >= e.budget {
				e.exhausted = true
				e.emit(reduce.EventBudgetStop, k.u, k.v, 0)
				return
			}
		}
		if e.expanded[k] {
			continue
		}
		e.expanded[k] = true
		for _, uc := range e.p.Out(k.u) {
			if e.pick(k.v, uc, graph.Forward); e.stopped() {
				return
			}
		}
		for _, ua := range e.p.In(k.u) {
			if e.pick(k.v, ua, graph.Backward); e.stopped() {
				return
			}
		}
	}
}

func (e *refEngine) adj(v graph.NodeID, dir graph.Direction) []graph.NodeID {
	if dir == graph.Forward {
		return e.g.Out(v)
	}
	return e.g.In(v)
}

func (e *refEngine) pick(v graph.NodeID, target pattern.NodeID, dir graph.Direction) {
	if target == e.p.Personalized() {
		if e.stopVisit() {
			return
		}
		has := e.g.HasEdge(v, e.vp)
		if dir == graph.Backward {
			has = e.g.HasEdge(e.vp, v)
		}
		if has {
			e.push(refPair{target, e.vp})
		}
		return
	}
	var cands []refCand
	for _, w := range e.adj(v, dir) {
		if e.stopVisit() {
			e.emit(e.stopKind(), target, w, 0)
			return
		}
		if e.onStack[refPair{target, w}] {
			continue
		}
		if !e.guard(w, target) {
			e.emit(reduce.EventGuardReject, target, w, 0)
			continue
		}
		cands = append(cands, refCand{w, e.g.Degree(w), e.weight(w, target)})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.w != b.w {
			return a.w > b.w
		}
		if a.deg != b.deg {
			return a.deg > b.deg
		}
		return a.v < b.v
	})
	for i := min(len(cands), e.bound) - 1; i >= 0; i-- {
		e.emit(reduce.EventPush, target, cands[i].v, cands[i].w)
		e.push(refPair{target, cands[i].v})
	}
}

func (e *refEngine) guard(v graph.NodeID, u pattern.NodeID) bool {
	if e.opts.DisableGuard {
		return e.g.Label(v) == e.p.Label(u)
	}
	return e.sem.Guard(v, u)
}

func (e *refEngine) weight(v graph.NodeID, u pattern.NodeID) float64 {
	switch e.opts.Strategy {
	case reduce.WeightDegree:
		return float64(e.g.Degree(v))
	case reduce.WeightRandom:
		return e.rng.Float64()
	}
	misses := 0
	for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
		pn := e.p.Out(u)
		if dir == graph.Backward {
			pn = e.p.In(u)
		}
		for _, un := range pn {
			found := false
			for _, w := range e.adj(v, dir) {
				found = found || (e.frag.Contains(w) && e.g.Label(w) == e.p.Label(un))
			}
			if !found {
				misses++
			}
		}
	}
	return e.sem.Potential(v, u) / float64(misses+1)
}

// roundTally is what a "round" span carries.
type roundTally struct{ bound, pops, adds, pushes, rejects int64 }

// tallyEvents aggregates an event stream the way the span bridge does.
func tallyEvents(events []reduce.Event) []roundTally {
	var out []roundTally
	for _, ev := range events {
		if ev.Kind == reduce.EventRound {
			out = append(out, roundTally{bound: int64(ev.Bound)})
			continue
		}
		r := &out[len(out)-1]
		switch ev.Kind {
		case reduce.EventPop:
			r.pops++
		case reduce.EventAdd:
			r.adds++
		case reduce.EventPush:
			r.pushes++
		case reduce.EventGuardReject:
			r.rejects++
		}
	}
	return out
}

func tallySpans(red *obs.Span) []roundTally {
	var out []roundTally
	for _, c := range red.Children {
		if c.Name != obs.PhaseRound {
			continue
		}
		var r roundTally
		r.bound, _ = c.Counter("bound")
		r.pops, _ = c.Counter("pops")
		r.adds, _ = c.Counter("adds")
		r.pushes, _ = c.Counter("pushes")
		r.rejects, _ = c.Counter("guard_rejects")
		out = append(out, r)
	}
	return out
}

func withoutRejects(events []reduce.Event) []reduce.Event {
	var out []reduce.Event
	for _, ev := range events {
		if ev.Kind != reduce.EventGuardReject {
			out = append(out, ev)
		}
	}
	return out
}

// diffCase runs both engines on one configuration and reports the first
// divergence. sc is reused across cases, as the pooled Scratch is in
// production: a memo surviving into the next query would show here.
func diffCase(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem reduce.Semantics, opts reduce.Options, sc *reduce.Scratch, frag *graph.Fragment) (reduce.Stats, error) {
	var wantEvents, gotEvents []reduce.Event
	ro := opts
	ro.Trace = func(ev reduce.Event) { wantEvents = append(wantEvents, ev) }
	wantFrag, want := refSearch(aux, p, vp, sem, ro)

	root := obs.StartSpan("test")
	no := opts
	no.Obs = root
	no.Trace = func(ev reduce.Event) { gotEvents = append(gotEvents, ev) }
	got := reduce.SearchInto(aux, p, vp, sem, no, frag, sc)

	if got != want {
		return want, fmt.Errorf("stats diverge:\n got  %+v\n want %+v", got, want)
	}
	if !reflect.DeepEqual(frag.Nodes(), wantFrag.Nodes()) {
		return want, fmt.Errorf("fragment order diverges:\n got  %v\n want %v", frag.Nodes(), wantFrag.Nodes())
	}
	if g, w := tallySpans(root.Find(obs.PhaseReduce)), tallyEvents(wantEvents); !reflect.DeepEqual(g, w) {
		return want, fmt.Errorf("round span counters diverge:\n got  %+v\n want %+v", g, w)
	}
	if g, w := withoutRejects(gotEvents), withoutRejects(wantEvents); !reflect.DeepEqual(g, w) {
		return want, fmt.Errorf("event streams diverge (guard-rejects aside): %d vs %d events", len(g), len(w))
	}
	// The untraced run takes the same path: same Stats, same fragment.
	plain := reduce.SearchInto(aux, p, vp, sem, opts, frag, sc)
	if plain != want || !reflect.DeepEqual(frag.Nodes(), wantFrag.Nodes()) {
		return want, fmt.Errorf("untraced run diverges: %+v", plain)
	}
	return want, nil
}

type namedSemantics struct {
	name string
	sem  reduce.Semantics
}

func diffSemantics(aux *graph.Aux, p *pattern.Pattern) []namedSemantics {
	return []namedSemantics{
		{"sim", bounded.NewSemantics(aux, p, bounded.Simulation)},
		{"sub", bounded.NewSemantics(aux, p, bounded.Subgraph)},
	}
}

// TestMemoizedPickEqualsScanEveryRound: random graphs × patterns × α ×
// InitialBound/MaxBound × the three weight strategies × DisableGuard ×
// both semantics, each with its default visit budget and with random
// smaller ones.
func TestMemoizedPickEqualsScanEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(20140622))
	graphs := 12
	if testing.Short() {
		graphs = 4
	}
	cases, multiRound := 0, 0
	for gi := 0; gi < graphs; gi++ {
		n := 40 + rng.Intn(160)
		g := gen.Random(gen.GraphConfig{
			Nodes: n, Edges: n * (2 + rng.Intn(4)), Seed: rng.Int63(),
			Labels: gen.DefaultAlphabet[:2+rng.Intn(4)], PowerLaw: gi%2 == 0,
		})
		aux := graph.BuildAux(g)
		sc, frag := reduce.NewScratch(), graph.NewFragment(g)
		for pi := 0; pi < 6; pi++ {
			vp := graph.NodeID(rng.Intn(n))
			p := gen.PatternAt(g, vp, gen.PatternConfig{Nodes: 3 + rng.Intn(3), Edges: 4 + rng.Intn(6), Seed: rng.Int63()})
			if p == nil {
				continue
			}
			for _, ns := range diffSemantics(aux, p) {
				name, sem := ns.name, ns.sem
				for _, strategy := range []reduce.WeightStrategy{reduce.WeightPotentialCost, reduce.WeightDegree, reduce.WeightRandom} {
					opts := reduce.Options{
						Alpha:        []float64{0.02, 0.1, 0.4, 1}[rng.Intn(4)],
						InitialBound: rng.Intn(4),
						Strategy:     strategy,
						Seed:         rng.Int63(),
						DisableGuard: rng.Intn(4) == 0,
					}
					if rng.Intn(3) == 0 {
						opts.MaxBound = max(opts.InitialBound, 2) + rng.Intn(4)
					}
					tag := fmt.Sprintf("graph %d pattern %d %s %+v", gi, pi, name, opts)
					full, err := diffCase(aux, p, vp, sem, opts, sc, frag)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					cases++
					if full.Rounds > 1 {
						multiRound++
					}
					for i := 0; i < 4 && full.Visited > 1; i++ {
						opts.VisitBudget = 1 + rng.Intn(full.Visited)
						if _, err := diffCase(aux, p, vp, sem, opts, sc, frag); err != nil {
							t.Fatalf("%s visit budget %d: %v", tag, opts.VisitBudget, err)
						}
					}
				}
			}
		}
	}
	if multiRound*4 < cases {
		t.Fatalf("only %d of %d cases escalated the bound: the replay path is under-tested", multiRound, cases)
	}
}

// TestMemoizedPickEveryVisitBudget sweeps every visit budget from 1 to
// the unbudgeted run's Visited on a hub-rooted multi-round search, so the
// budget expires at every possible item: between lists, inside a first
// scan, and inside a list an earlier round memoized.
func TestMemoizedPickEveryVisitBudget(t *testing.T) {
	g := gen.Random(gen.GraphConfig{Nodes: 60, Edges: 240, Seed: 7, Labels: gen.DefaultAlphabet[:3], PowerLaw: true})
	aux := graph.BuildAux(g)
	hub := graph.NodeID(0)
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) > g.Degree(hub) {
			hub = graph.NodeID(v)
		}
	}
	p := gen.PatternAt(g, hub, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 3})
	if p == nil {
		t.Fatal("no pattern at the hub")
	}
	sc, frag := reduce.NewScratch(), graph.NewFragment(g)
	for _, ns := range diffSemantics(aux, p) {
		name, sem := ns.name, ns.sem
		opts := reduce.Options{Alpha: 0.5}
		full, err := diffCase(aux, p, hub, sem, opts, sc, frag)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if full.Rounds < 3 {
			t.Fatalf("%s: fixture ran %d rounds, want a multi-round search", name, full.Rounds)
		}
		step := 1
		if testing.Short() {
			step = 7 // coprime with the list lengths: still lands inside scans and replays
		}
		for b := 1; b <= full.Visited; b += step {
			opts.VisitBudget = b
			if _, err := diffCase(aux, p, hub, sem, opts, sc, frag); err != nil {
				t.Fatalf("%s visit budget %d of %d: %v", name, b, full.Visited, err)
			}
		}
	}
}

// TestMemoizedPickCancelsWhereScanEveryRoundDoes: an Interrupt closed as
// round r begins stops both engines at the same visit — the next stride
// boundary — whether that boundary falls in a first scan or inside a list
// the production engine would otherwise have replayed in one charge.
func TestMemoizedPickCancelsWhereScanEveryRoundDoes(t *testing.T) {
	g := gen.Random(gen.GraphConfig{Nodes: 3000, Edges: 15000, Seed: 11, Labels: gen.DefaultAlphabet[:3], PowerLaw: true})
	aux := graph.BuildAux(g)
	hub := graph.NodeID(0)
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(graph.NodeID(v)) > g.Degree(hub) {
			hub = graph.NodeID(v)
		}
	}
	p := gen.PatternAt(g, hub, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 3})
	if p == nil {
		t.Fatal("no pattern at the hub")
	}
	sem := bounded.NewSemantics(aux, p, bounded.Simulation)
	opts := reduce.Options{Alpha: 1, MaxBound: 6}
	_, full := refSearch(aux, p, hub, sem, opts)
	if full.Rounds < 3 || full.Visited < 4*interrupt.Stride {
		t.Fatalf("fixture too small: %+v", full)
	}
	closeAtRound := func(r int) reduce.Options {
		o, done, seen := opts, make(chan struct{}), 0
		o.Interrupt = done
		o.Trace = func(ev reduce.Event) {
			if ev.Kind == reduce.EventRound {
				if seen++; seen == r {
					close(done)
				}
			}
		}
		return o
	}
	for r := 1; r <= full.Rounds; r++ {
		wantFrag, want := refSearch(aux, p, hub, sem, closeAtRound(r))
		gotFrag, got := reduce.Search(aux, p, hub, sem, closeAtRound(r))
		if got != want || !reflect.DeepEqual(gotFrag.Nodes(), wantFrag.Nodes()) {
			t.Fatalf("interrupt at round %d:\n got  %+v\n want %+v", r, got, want)
		}
		if !want.Canceled && r < full.Rounds {
			t.Fatalf("interrupt at round %d of %d never observed: %+v", r, full.Rounds, want)
		}
	}
}
