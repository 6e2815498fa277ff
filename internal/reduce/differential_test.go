package reduce_test

// Differential test of the list memo: refSearch is the scan-every-round
// engine this package had before Pick memoized adjacency lists — Go maps
// for the pair sets, the pushed-set test ahead of the guard, a full sort
// of every frontier, c(v,u) by brute force — kept here as the reference
// the production engine must equal bit for bit: fragment insertion order,
// every Stats counter the two engines define alike, and the per-round
// span counters against the reference's own tallies. The memo changes
// only where Visited is charged, never how much: the reference charges
// every list entry by entry, and the production engine's first-scan and
// replay charges must add up to the same, with its four charge sites
// summing to Visited.

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
	"rbq/internal/simulation"
	"rbq/internal/subiso"
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
	sem  guardedSemantics
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

	// The reference's own tallies: per round, and the list entries its
	// scans charged.
	rounds      []roundTally
	listCharges int
}

// roundTally is what a "round" span carries.
type roundTally struct{ bound, pops, adds, pushes, rejects int64 }

// guardedSemantics is a reduce.Semantics that also evaluates the whole
// guarded condition, label test included, as bounded.Semantics does.
type guardedSemantics interface {
	reduce.Semantics
	Guard(v graph.NodeID, u pattern.NodeID) bool
}

func refSearch(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem guardedSemantics, opts reduce.Options) *refEngine {
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
	e.stats.InducedReads = e.frag.Reads()
	for _, r := range e.rounds {
		e.stats.Pops += int(r.pops)
		e.stats.Adds += int(r.adds)
		e.stats.Pushes += int(r.pushes)
		e.stats.GuardRejects += int(r.rejects)
	}
	return e
}

// tally is the current round's.
func (e *refEngine) tally() *roundTally { return &e.rounds[len(e.rounds)-1] }

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
		if hook := reduce.RoundHook(e.opts); hook != nil {
			hook(e.stats.Rounds)
		}
		e.rounds = append(e.rounds, roundTally{bound: int64(e.bound)})
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
		e.tally().pops++
		if e.stopVisit() {
			return
		}
		if !e.frag.Contains(k.v) {
			inc := 1 + e.frag.InducedEdgeCost(k.v)
			if e.frag.Size()+inc > e.budget {
				e.exhausted = true
				continue
			}
			e.frag.AddCost(k.v)
			e.changed = true
			e.tally().adds++
			if e.frag.Size() >= e.budget {
				e.exhausted = true
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
		e.stats.EdgeProbes++
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
		e.listCharges++
		if e.stopVisit() {
			return
		}
		if e.onStack[refPair{target, w}] {
			continue
		}
		if !e.guard(w, target) {
			e.tally().rejects++
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
		e.tally().pushes++
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

// alike is s without the counters the reference defines differently:
// where the charges fall, and the guard and cost reads it does not spare.
func alike(s reduce.Stats) reduce.Stats {
	s.ListCharges, s.ReplayCharges, s.GuardCalls, s.CostReads = 0, 0, 0, 0
	return s
}

// diffCase runs both engines on one configuration and reports the first
// divergence. sc is reused across cases, as the pooled Scratch is in
// production: a memo surviving into the next query would show here.
func diffCase(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem guardedSemantics, opts reduce.Options, sc *reduce.Scratch, frag *graph.Fragment) (reduce.Stats, error) {
	ref := refSearch(aux, p, vp, sem, opts)
	want := ref.stats

	root := obs.StartSpan("test")
	no := opts
	no.Obs = root
	got := reduce.SearchInto(aux, p, vp, sem, no, frag, sc)

	if alike(got) != want {
		return want, fmt.Errorf("stats diverge:\n got  %+v\n want %+v", got, want)
	}
	if !reflect.DeepEqual(frag.Nodes(), ref.frag.Nodes()) {
		return want, fmt.Errorf("fragment order diverges:\n got  %v\n want %v", frag.Nodes(), ref.frag.Nodes())
	}
	if sum := got.Pops + got.EdgeProbes + got.ListCharges + got.ReplayCharges; sum != got.Visited {
		return want, fmt.Errorf("charge sites sum to %d, Visited is %d: %+v", sum, got.Visited, got)
	}
	if n := got.ListCharges + got.ReplayCharges; n != ref.listCharges {
		return want, fmt.Errorf("list charges: %d scanned + %d replayed, reference charged %d", got.ListCharges, got.ReplayCharges, ref.listCharges)
	}
	if g, w := tallySpans(root.Find(obs.PhaseReduce)), ref.rounds; !reflect.DeepEqual(g, w) {
		return want, fmt.Errorf("round span counters diverge:\n got  %+v\n want %+v", g, w)
	}
	// The untraced run takes the same path: same Stats, same fragment.
	plain := reduce.SearchInto(aux, p, vp, sem, opts, frag, sc)
	if plain != got || !reflect.DeepEqual(frag.Nodes(), ref.frag.Nodes()) {
		return want, fmt.Errorf("untraced run diverges: %+v", plain)
	}
	return want, nil
}

type namedSemantics struct {
	name string
	sem  guardedSemantics
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
	full := refSearch(aux, p, hub, sem, opts).stats
	if full.Rounds < 3 || full.Visited < 4*interrupt.Stride {
		t.Fatalf("fixture too small: %+v", full)
	}
	closeAtRound := func(r int) reduce.Options {
		o, done := opts, make(chan struct{})
		o.Interrupt = done
		return reduce.WithRoundHook(o, func(round int) {
			if round == r {
				close(done)
			}
		})
	}
	for r := 1; r <= full.Rounds; r++ {
		ref := refSearch(aux, p, hub, sem, closeAtRound(r))
		want := ref.stats
		gotFrag, got := reduce.Search(aux, p, hub, sem, closeAtRound(r))
		if alike(got) != want || !reflect.DeepEqual(gotFrag.Nodes(), ref.frag.Nodes()) {
			t.Fatalf("interrupt at round %d:\n got  %+v\n want %+v", r, got, want)
		}
		if !want.Canceled && r < full.Rounds {
			t.Fatalf("interrupt at round %d of %d never observed: %+v", r, full.Rounds, want)
		}
	}
}

// TestScratchReuseAcrossQueries: a Scratch and a Fragment that served
// earlier queries — other patterns, pins, semantics and strategies, on
// the base graph and on an overlay view of it, as a pooled Scratch does —
// must give every query what a fresh Scratch gives it: the same Stats,
// counter for counter, the same fragment order and the same answer. A
// memo that outlived its query would show in CostReads at least.
func TestScratchReuseAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	queries := 0
	for gi := 0; gi < 6; gi++ {
		n := 60 + rng.Intn(120)
		base := gen.Random(gen.GraphConfig{
			Nodes: n, Edges: n * (2 + rng.Intn(4)), Seed: rng.Int63(),
			Labels: gen.DefaultAlphabet[:2+rng.Intn(3)], PowerLaw: gi%2 == 0,
		})
		baseAux := graph.BuildAux(base)
		var add [][2]graph.NodeID
		seen := map[[2]graph.NodeID]bool{}
		for len(add) < n/4 {
			e := [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
			if !seen[e] && !base.HasEdge(e[0], e[1]) {
				seen[e] = true
				add = append(add, e)
			}
		}
		view, err := base.WithOverlay(graph.OverlayDelta{AddEdges: add})
		if err != nil {
			t.Fatal(err)
		}
		patched, err := baseAux.PatchedFor(view)
		if err != nil {
			t.Fatal(err)
		}
		pooled, frag := reduce.NewScratch(), graph.NewFragment(view)
		for qi := 0; qi < 24; qi++ {
			aux := []*graph.Aux{baseAux, patched}[rng.Intn(2)]
			g := aux.Graph()
			vp := graph.NodeID(rng.Intn(n))
			p := gen.PatternAt(g, vp, gen.PatternConfig{Nodes: 3 + rng.Intn(3), Edges: 4 + rng.Intn(6), Seed: rng.Int63()})
			if p == nil {
				continue
			}
			ns := diffSemantics(aux, p)[rng.Intn(2)]
			opts := reduce.Options{
				Alpha:        []float64{0.05, 0.2, 0.5}[rng.Intn(3)],
				InitialBound: rng.Intn(3),
				Strategy:     []reduce.WeightStrategy{reduce.WeightPotentialCost, reduce.WeightPotentialCost, reduce.WeightDegree}[rng.Intn(3)],
			}
			frag.Rebind(g)
			got := reduce.SearchInto(aux, p, vp, ns.sem, opts, frag, pooled)
			freshFrag := graph.NewFragment(g)
			want := reduce.SearchInto(aux, p, vp, ns.sem, opts, freshFrag, reduce.NewScratch())
			tag := fmt.Sprintf("graph %d query %d overlay=%v %s %+v", gi, qi, g.HasOverlay(), ns.name, opts)
			if got != want {
				t.Fatalf("%s: stats diverge:\n pooled %+v\n fresh  %+v", tag, got, want)
			}
			if !reflect.DeepEqual(frag.Nodes(), freshFrag.Nodes()) {
				t.Fatalf("%s: fragment order diverges:\n pooled %v\n fresh  %v", tag, frag.Nodes(), freshFrag.Nodes())
			}
			if a, b := fragAnswer(frag, p, vp, ns), fragAnswer(freshFrag, p, vp, ns); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: answers diverge:\n pooled %v\n fresh  %v", tag, a, b)
			}
			queries++
		}
	}
	if queries < 100 {
		t.Fatalf("only %d queries ran", queries)
	}
}

// fragAnswer is the bounded answer on frag: the matches of p pinned at
// vp under ns's semantics, nil when frag lacks vp.
func fragAnswer(frag *graph.Fragment, p *pattern.Pattern, vp graph.NodeID, ns namedSemantics) []graph.NodeID {
	pin := frag.PosOf(vp)
	if pin < 0 {
		return nil
	}
	var csr graph.FragCSR
	frag.CSRInto(&csr)
	labels := ns.sem.Labels()
	if ns.name == "sub" {
		m, _ := subiso.MatchFragment(&csr, p, labels, pin, nil, &subiso.Scratch{})
		return m
	}
	m, _, _ := simulation.MatchFragment(&csr, p, labels, pin, &simulation.Scratch{}, nil)
	return m
}
