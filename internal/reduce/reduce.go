// Package reduce implements the dynamic reduction scheme of Section 4 of
// Fan, Wang & Wu (SIGMOD 2014): a query-guided, weight-ranked, budgeted
// traversal that extracts a fragment G_Q of a data graph G with
// |G_Q| ≤ α·|G|, visiting a bounded amount of data.
//
// The engine is the Search/Pick machinery of Fig. 3, parameterized by the
// matching semantics (strong simulation for RBSim, subgraph isomorphism
// for RBSub; package bounded binds both) through a Semantics value that
// supplies the guarded condition
// C(v,u) and the potential p(v,u). The engine itself owns the parts both
// algorithms share: the stack-driven traversal guided by the pattern, the
// dynamically maintained cost c(v,u), the weight p/(c+1), the fairness
// bound b (initially 2, escalated when a round stalls), the size budget
// α|G|, the visit budget c·α|G|, and cooperative cancellation
// (Options.Interrupt, polled every interrupt.Stride visited items).
//
// # Scratch state and pooling
//
// The engine keeps no per-round heap state and no Go map. The per-round
// (u,v) sets of Fig. 3 ("pushed this round", "expanded this round") are
// epoch-stamped open-addressing tables (pairTable) sized from the budget
// α|G|, not from |Q|·|V|: a query touches a few thousand pairs, so the
// tables stay cache-resident on any graph and are emptied by bumping an
// epoch. The frontier ranking runs over a reusable candidate buffer with
// a concrete-type selection of the top-b (no sort.Slice, no reflection).
//
// Every bound-escalation round restarts from (u_p, v_p) and would re-scan
// the adjacency lists the earlier rounds already filtered. Pick therefore
// reads each (v, target, dir) list once per query: the first scan records
// the neighbors that pass the guarded condition — with their degree and
// potential — in a per-query memo (one more pairTable, keyed by the list,
// over an arena of candidates); a later round replays the recorded
// candidates. The first scan reads only the neighbors that can pass: the
// Aux holds every list grouped by label (graph.Aux.OutBlock), so the scan
// guards the block of target's label and never reads the labels of the
// rest. Scan and replay alike charge Visited the whole list at once —
// unless the list holds the search's stop point, which the scan then
// finds item by item — so Visited and the stop point are those of a scan
// of every neighbor in every round. The memo needs no invalidation: Guard
// and Potential are pure functions of the Aux, a query runs against one
// immutable snapshot, and the memo is emptied when the next query starts.
// What depends on the round — the pushed set, the cost c(v,u), the random
// weight — is recomputed at replay, so a replayed round selects exactly
// what a re-scanned one would.
//
// All of it lives in a Scratch that Search borrows from the Aux's scratch
// pool (graph.ScratchReduce) and returns on exit, so steady-state
// reductions do not allocate; callers that manage their own pooling
// (bounded.Run) pass a Scratch and a reusable Fragment to SearchInto
// directly. Tables and arena that one hub-rooted query grew beyond
// maxTableEntries are dropped at the next reset instead of staying pinned
// in the pool.
//
// Thread-safety: a Scratch (and the Fragment given to SearchInto) is owned
// by one goroutine for the duration of the call; the Aux pools hand each
// borrower a distinct value, which is what makes concurrent batch
// evaluation over one shared Aux safe.
package reduce

import (
	"math"
	"math/rand"
	"slices"

	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/obs"
	"rbq/internal/pattern"
)

// Semantics supplies the query-class-specific ingredients of the dynamic
// reduction. Implementations must be cheap and pure: both methods are
// evaluated against the offline auxiliary structure, not by traversing G,
// and the engine evaluates each (v,u) at most once per list and query.
type Semantics interface {
	// Guard is the guarded condition C(v,u): false means v provably
	// cannot match u and is pruned from the search. C(v,u) includes label
	// equality (Section 4.1), so the engine tests the label itself before
	// asking: Guard is only called for a v that carries u's label.
	Guard(v graph.NodeID, u pattern.NodeID) bool
	// Potential is p(v,u), an optimistic estimate of how many matches of
	// u's pattern neighbors live in N(v).
	Potential(v graph.NodeID, u pattern.NodeID) float64
	// Labels is the pattern's label constraints resolved against the
	// graph (Labels()[u] = interned id of the pattern's label of u,
	// graph.NoLabel if absent). Guard and Potential compare these ids, and
	// the engine's own label probes share the one resolution.
	Labels() []graph.LabelID
}

// WeightStrategy selects how frontier candidates are ranked; alternatives
// to the paper's formula exist for the ablation study (rbbench -exp
// abl-weight).
type WeightStrategy int

const (
	// WeightPotentialCost ranks by p(v,u)/(c(v,u)+1), the paper's weight.
	WeightPotentialCost WeightStrategy = iota
	// WeightDegree ranks by node degree (a degree-greedy frontier).
	WeightDegree
	// WeightRandom ranks randomly (an uninformed frontier), seeded for
	// reproducibility.
	WeightRandom
)

// Options configures a reduction run.
type Options struct {
	// Alpha is the resource ratio α ∈ (0,1): the fragment size budget is
	// ⌊α·|G|⌋ (in nodes+edges).
	Alpha float64
	// Budget, when positive, is the fragment size budget itself and Alpha
	// is not read: rbany grants each anchor run an integer share of α|G|,
	// which a ratio share/|G| would round away.
	Budget int
	// VisitBudget caps Visited (see Stats.Visited) — the paper's α·c·|G|
	// with c = d_G. Zero applies the default (⌊α·|G|⌋+1)·maxDegree(G).
	// The search stops at the first charge past the cap.
	VisitBudget int
	// InitialBound, MaxBound, Strategy, Seed and DisableGuard are
	// ablation knobs: only internal/bench's ablation experiments and
	// tests set them, and every request path leaves them zero.
	//
	// InitialBound is the fairness bound b of Fig. 3; zero means the
	// paper's initial value 2.
	InitialBound int
	// MaxBound caps bound escalation; zero means unlimited (escalation
	// already stops when a round adds no new node).
	MaxBound int
	// Strategy selects the candidate ranking; the zero value is the
	// paper's p/(c+1).
	Strategy WeightStrategy
	// Seed feeds WeightRandom.
	Seed int64
	// DisableGuard drops the guarded condition to a label-only test
	// (ablation).
	DisableGuard bool
	// Trace, when non-nil, receives every reduction step (see Event).
	Trace Tracer
	// Obs, when non-nil, is the parent span for this run's observability
	// tree: SearchInto hangs a "reduce" child with per-round aggregate
	// spans (bridged from the event stream, not raw events) plus summary
	// counters off it. Nil keeps the hot path span-free.
	Obs *obs.Span
	// Interrupt, when non-nil, is polled every interrupt.Stride visited
	// items; once it is closed the search stops cooperatively and Stats
	// reports Canceled. The facade passes a context's Done channel here —
	// nil (context.Background) keeps the hot path probe-free.
	Interrupt <-chan struct{}
}

// Budget is the resource bound ⌊α·|G|⌋ on a graph of size |G| = size:
// the one rule every bounded evaluation and EXPLAIN size their budget by.
func Budget(alpha float64, size int) int {
	return int(alpha * float64(size))
}

// Stats reports what a reduction run did.
type Stats struct {
	// Budget is ⌊α·|G|⌋, or Options.Budget, the fragment size cap.
	Budget int
	// FragmentSize is |G_Q| = nodes + edges actually extracted.
	FragmentSize int
	// FragmentNodes and FragmentEdges break FragmentSize down.
	FragmentNodes, FragmentEdges int
	// Visited counts the data items the search is charged for, the
	// quantity Theorem 3(a) bounds by d_G·α|G|: one per pair popped; one
	// per edge-existence probe when Pick targets the personalized node;
	// and, for every other Pick, the whole length of the adjacency list
	// it ranks — charged at the first scan and again at each replay,
	// whatever the label index spared the scan from reading. Not charged
	// are the reads that price a step: Fragment.InducedEdgeCost's for
	// each node the fragment admits — which also records the induced
	// edges it finds, so the fragment is materialized without reading
	// them again — and c(v,u)'s for each candidate ranked.
	Visited int
	// Rounds is the number of bound-escalation rounds executed.
	Rounds int
	// FinalBound is the fairness bound b when the search stopped.
	FinalBound int
	// BudgetExhausted reports whether the size budget stopped the search
	// (as opposed to the frontier draining).
	BudgetExhausted bool
	// VisitsExhausted reports whether the visit budget stopped the search.
	VisitsExhausted bool
	// PairHighWater is the largest number of live (pattern node, data
	// node) pairs the pushed set held in any one round. The budget-derived
	// hint that sizes the pair tables assumes roughly one pair per
	// affordable fragment item; this records what a run actually needed,
	// so the hint can be tuned empirically.
	PairHighWater int
	// Canceled reports that Options.Interrupt fired and stopped the
	// search before a budget did; the fragment holds whatever had been
	// extracted when the probe observed the cancellation.
	Canceled bool
}

type pairKey struct {
	u pattern.NodeID
	v graph.NodeID
}

// Pair-table sizing. A table starts at minTableEntries slots, grows by
// doubling when half full, and is re-allocated at its minimum size when a
// reset finds it larger than maxTableEntries — so one pathological query
// cannot pin hundreds of MiB inside a long-lived pooled Scratch.
const (
	minTableEntries = 1 << 12
	maxTableEntries = 1 << 22
)

// pairTable is an epoch-stamped open-addressing hash table keyed by a
// packed 64-bit pair. The engine's two per-round (u,v) sets use it as a
// set (has/set) and the per-query list memo as a map to an int32
// (lookup/put). A slot is live when its stamp equals the current epoch,
// so clearing is a single epoch increment; linear probing treats stale
// slots as empty, which is sound because an epoch bump invalidates every
// slot at once. Key, stamp and value share one 16-byte slot, so a probe
// touches one cache line. Unlike a Go map it never hashes strings, never
// allocates per insert, and resets in O(1).
type pairTable struct {
	slots []pairSlot
	epoch int32
	live  int // slots claimed this epoch, to trigger growth at 1/2 load
}

type pairSlot struct {
	key   uint64
	stamp int32
	val   int32
}

func packPair(k pairKey) uint64 {
	return uint64(uint32(k.u))<<32 | uint64(uint32(k.v))
}

// pairHash is the 64-bit finalizer of MurmurHash3: cheap, allocation-free
// and well-mixed for the low bits that index the table.
func pairHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// reset empties the table in O(1), sizing it for hint expected pairs (the
// engine passes a budget-derived estimate; growth covers underestimates).
func (t *pairTable) reset(hint int) {
	want := minTableEntries
	for want < 2*hint && want < maxTableEntries {
		want <<= 1
	}
	if len(t.slots) < want || len(t.slots) > maxTableEntries {
		t.slots = make([]pairSlot, want)
		t.epoch = 0
	}
	if t.epoch == math.MaxInt32 {
		clear(t.slots)
		t.epoch = 0
	}
	t.epoch++
	t.live = 0
}

// lookup returns the value stored under key this epoch.
func (t *pairTable) lookup(key uint64) (int32, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := pairHash(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp != t.epoch {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// put stores val under key; a key already present keeps its first value
// (the engine never overwrites: sets ignore the value, the memo records a
// list once).
func (t *pairTable) put(key uint64, val int32) {
	if 2*t.live >= len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := pairHash(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp != t.epoch {
			*s = pairSlot{key: key, stamp: t.epoch, val: val}
			t.live++
			return
		}
		if s.key == key {
			return
		}
	}
}

// grow doubles the table mid-epoch, re-inserting the live entries.
func (t *pairTable) grow() {
	old, oldEpoch := t.slots, t.epoch
	t.slots = make([]pairSlot, 2*len(old))
	t.epoch = 1
	t.live = 0
	for _, s := range old {
		if s.stamp == oldEpoch {
			t.put(s.key, s.val)
		}
	}
}

func (t *pairTable) has(k pairKey) bool {
	_, ok := t.lookup(packPair(k))
	return ok
}

func (t *pairTable) set(k pairKey) { t.put(packPair(k), 0) }

// listKey packs the memo key of v's dir-adjacency list filtered for query
// node target.
func listKey(v graph.NodeID, target pattern.NodeID, dir graph.Direction) uint64 {
	return uint64(uint32(target)<<1|uint32(dir))<<32 | uint64(uint32(v))
}

// memoList is one memoized adjacency list: its guard-passing neighbors
// are arena[off:off+n], in adjacency order; the guard rejected the rest.
type memoList struct {
	off, n int32
}

// Scratch carries every transient buffer a reduction run needs. A zero
// Scratch is ready to use; reuse across runs (on the same graph) makes the
// engine allocation-free in steady state. Not safe for concurrent use.
type Scratch struct {
	onStack  pairTable // pairs pushed this round
	expanded pairTable // pairs expanded this round
	stack    []pairKey
	cands    []scored // the top-b of the list being picked

	// The per-query list memo: memo maps listKey to an index into lists;
	// arena holds every list's candidates, w being the potential p(v,u).
	memo  pairTable
	lists []memoList
	arena []scored
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// resetMemo empties the list memo for a new query, dropping an arena or
// list index that a hub-heavy query grew beyond the pair tables' own cap.
func (sc *Scratch) resetMemo(hint int) {
	sc.memo.reset(hint)
	sc.lists, sc.arena = sc.lists[:0], sc.arena[:0]
	if cap(sc.lists) > maxTableEntries {
		sc.lists = nil
	}
	if cap(sc.arena) > maxTableEntries {
		sc.arena = nil
	}
}

type engine struct {
	g    *graph.Graph
	aux  *graph.Aux
	p    *pattern.Pattern
	sem  Semantics
	opts Options
	rng  *rand.Rand

	frag        *graph.Fragment
	sc          *Scratch
	br          *spanTracer     // round-span bridge; nil unless Options.Obs is set
	plabels     []graph.LabelID // sem.Labels(): plabels[u] = g's id of p's label of u
	budget      int
	visitBudget int
	visited     int
	stats       Stats

	vp         graph.NodeID // the pinned match of the personalized node
	stack      []pairKey
	changed    bool
	exhausted  bool // size budget hit
	visitsDone bool // visit budget hit
	canceled   bool // Options.Interrupt fired
	bound      int
}

// stopVisit accounts one examined data item and reports whether the
// search must stop — the visit budget drained, or the cancellation probe
// (polled every interrupt.Stride visits, so it stays off the per-item
// hot path) observed Options.Interrupt closed.
func (e *engine) stopVisit() bool {
	e.visited++
	if e.visited > e.visitBudget {
		e.visitsDone = true
		return true
	}
	if e.opts.Interrupt != nil && e.visited&(interrupt.Stride-1) == 0 &&
		interrupt.Fired(e.opts.Interrupt) {
		e.canceled = true
		return true
	}
	return false
}

// charge accounts n examined data items in one step — a replayed list —
// and reports whether it did. It refuses, charging nothing, when the n
// visits would drain the visit budget or cross an interrupt.Stride
// boundary with Options.Interrupt closed: the caller then scans the list
// item by item, so the search stops at exactly the visit a scan-every-
// round engine stops at, within one stride of charged visits.
func (e *engine) charge(n int) bool {
	end := e.visited + n
	if end > e.visitBudget {
		return false
	}
	if e.opts.Interrupt != nil && end/interrupt.Stride != e.visited/interrupt.Stride &&
		interrupt.Fired(e.opts.Interrupt) {
		return false
	}
	e.visited = end
	return true
}

// stopped reports whether a visit budget or a cancellation already ended
// the search; the traversal loops unwind when it turns true.
func (e *engine) stopped() bool { return e.visitsDone || e.canceled }

// stopKind labels a stopVisit halt for tracers: cancellation and visit
// exhaustion are distinct stop causes.
func (e *engine) stopKind() EventKind {
	if e.canceled {
		return EventCanceled
	}
	return EventVisitStop
}

// Search runs the dynamic reduction of Fig. 3 from the personalized match
// vp and returns the extracted fragment and run statistics. The fragment
// is an induced subgraph of aux's graph containing vp (budget permitting).
// Transient engine state is borrowed from aux's scratch pool; only the
// returned fragment is freshly allocated (it escapes to the caller).
func Search(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem Semantics, opts Options) (*graph.Fragment, Stats) {
	pool := aux.ScratchPool(graph.ScratchReduce)
	sc, _ := pool.Get().(*Scratch)
	if sc == nil {
		sc = NewScratch()
	}
	frag := graph.NewFragment(aux.Graph())
	stats := SearchInto(aux, p, vp, sem, opts, frag, sc)
	pool.Put(sc)
	return frag, stats
}

// SearchInto is Search with caller-managed reuse: the reduction runs into
// frag (Reset first; it must belong to aux's graph) using sc for all
// transient state. It allocates nothing once frag and sc have reached
// steady-state capacity.
func SearchInto(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem Semantics, opts Options, frag *graph.Fragment, sc *Scratch) Stats {
	g := aux.Graph()
	frag.Reset()
	// Observability bridge: when a parent span is attached, aggregate the
	// event stream into per-round child spans under a "reduce" span,
	// teeing raw events to any user Tracer. One nil test on the trace-off
	// path; everything below allocates only when tracing is on.
	var br *spanTracer
	if opts.Obs != nil {
		br = &spanTracer{parent: opts.Obs.Child(obs.PhaseReduce), user: opts.Trace}
		opts.Trace = br.event
	}
	e := &engine{
		g:    g,
		aux:  aux,
		p:    p,
		sem:  sem,
		opts: opts,
		frag: frag,
		sc:   sc,
		br:   br,
		vp:   vp,
		// The engine's own label probes (ablation guard, fragment-candidate
		// scans) compare int32s instead of hashing strings per candidate.
		plabels: sem.Labels(),
	}
	e.budget = opts.Budget
	if e.budget <= 0 {
		e.budget = Budget(opts.Alpha, g.Size())
	}
	e.visitBudget = opts.VisitBudget
	if e.visitBudget <= 0 {
		// Default to the paper's d_G·α|G| with d_G approximated by the
		// graph-wide maximum degree (an upper bound of the ball-local one).
		e.visitBudget = (e.budget + 1) * maxInt(1, g.MaxDegree())
	}
	e.bound = opts.InitialBound
	if e.bound <= 0 {
		e.bound = 2
	}
	if opts.Strategy == WeightRandom {
		e.rng = rand.New(rand.NewSource(opts.Seed))
	}
	e.stack = sc.stack[:0]
	e.run(vp)
	sc.stack = e.stack // keep grown capacity for the next run
	e.stats.Budget = e.budget
	e.stats.FragmentSize = e.frag.Size()
	e.stats.FragmentNodes = e.frag.NumNodes()
	e.stats.FragmentEdges = e.frag.NumEdges()
	e.stats.Visited = e.visited
	e.stats.FinalBound = e.bound
	e.stats.BudgetExhausted = e.exhausted
	e.stats.VisitsExhausted = e.visitsDone
	e.stats.Canceled = e.canceled
	if br != nil {
		br.finish(e.stats)
	}
	return e.stats
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (e *engine) run(vp graph.NodeID) {
	if e.budget < 1 {
		return
	}
	// The table hint tracks the size budget: a round stamps roughly one
	// stack pair per fragment item it can afford, and expands about as many
	// lists (growth covers the overshoot).
	hint := e.budget + 1
	e.sc.resetMemo(hint)
	for {
		e.stats.Rounds++
		e.emit(EventRound, 0, 0, 0)
		e.sc.onStack.reset(hint)
		e.sc.expanded.reset(hint)
		e.stack = e.stack[:0]
		e.changed = false
		e.push(pairKey{e.p.Personalized(), vp})
		e.round()
		// Capture the round's live pairs before the next reset wipes them:
		// onStack dominates expanded (every expanded pair was pushed first).
		if hw := e.sc.onStack.live; hw > e.stats.PairHighWater {
			e.stats.PairHighWater = hw
		}
		if e.exhausted || e.stopped() || !e.changed {
			return
		}
		if e.opts.MaxBound > 0 && e.bound >= e.opts.MaxBound {
			return
		}
		e.bound++ // line 12 of Fig. 3: escalate b and restart from (u_p, v_p)
	}
}

func (e *engine) push(k pairKey) {
	if !e.sc.onStack.has(k) {
		e.sc.onStack.set(k)
		e.stack = append(e.stack, k)
	}
}

// round drains the stack once: the body of the while loop of Fig. 3 for a
// fixed bound b.
func (e *engine) round() {
	for len(e.stack) > 0 {
		k := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		if e.stopVisit() { // the pop itself touches one data item
			e.emit(e.stopKind(), k.u, k.v, 0)
			return
		}
		e.emit(EventPop, k.u, k.v, 0)
		// Line 5: add v to G_Q if absent and affordable.
		if !e.frag.Contains(k.v) {
			cost := e.frag.InducedEdgeCost(k.v)
			inc := 1 + cost
			if e.frag.Size()+inc > e.budget {
				// Cannot afford this node; the budget is effectively
				// consumed for anything of this or larger footprint.
				e.exhausted = true
				e.emit(EventBudgetStop, k.u, k.v, 0)
				continue
			}
			e.frag.AddCost(k.v)
			e.changed = true
			e.emit(EventAdd, k.u, k.v, float64(inc))
			if e.frag.Size() >= e.budget {
				e.exhausted = true
				e.emit(EventBudgetStop, k.u, k.v, 0)
				return // line 7: |G_Q| reached α|G|
			}
		}
		if e.sc.expanded.has(k) {
			continue
		}
		e.sc.expanded.set(k)
		// Line 8: expand every pattern edge incident to u, forward and
		// backward.
		for _, uc := range e.p.Out(k.u) {
			e.pick(k.v, uc, graph.Forward)
			if e.stopped() {
				return
			}
		}
		for _, ua := range e.p.In(k.u) {
			e.pick(k.v, ua, graph.Backward)
			if e.stopped() {
				return
			}
		}
	}
}

type scored struct {
	v   graph.NodeID
	deg int32
	w   float64
}

// scoredLess is the frontier ranking: weight descending, then degree
// descending, then id ascending — a strict total order, so any correct
// sort of the top-b is deterministic.
func scoredLess(a, b scored) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.v < b.v
}

// insertTop inserts c into top — the at most lim best-ranked candidates
// seen so far, in ranked order — dropping the worst when full. O(lim) per
// candidate and usually O(1): the fairness bound keeps lim small (it
// starts at 2), so this beats a full sort of the frontier and involves no
// reflection.
func insertTop(top []scored, c scored, lim int) []scored {
	if len(top) < lim {
		top = append(top, c)
	} else if scoredLess(c, top[lim-1]) {
		top[lim-1] = c
	} else {
		return top
	}
	for i := len(top) - 1; i > 0 && scoredLess(top[i], top[i-1]); i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	return top
}

// pick is procedure Pick of Fig. 3: rank the dir-neighbors of v that pass
// the guarded condition for query node target, and push the top-b onto the
// stack, best last (so the best is popped first). The guarded neighbors
// come from the list memo when an earlier round already scanned this list.
func (e *engine) pick(v graph.NodeID, target pattern.NodeID, dir graph.Direction) {
	// The personalized node is pinned: its only admissible candidate is
	// v_p (Section 2 fixes (u_p, v_p) in every match relation). A single
	// edge-existence probe replaces the neighborhood scan.
	if target == e.p.Personalized() {
		if e.stopVisit() {
			return
		}
		var has bool
		if dir == graph.Forward {
			has = e.g.HasEdge(v, e.vp)
		} else {
			has = e.g.HasEdge(e.vp, v)
		}
		if has {
			e.push(pairKey{target, e.vp})
		}
		return
	}
	var neigh []graph.NodeID
	if dir == graph.Forward {
		neigh = e.g.Out(v)
	} else {
		neigh = e.g.In(v)
	}
	var list []scored // the guarded neighbors, c.w holding the potential
	key := listKey(v, target, dir)
	if li, ok := e.sc.memo.lookup(key); ok && e.charge(len(neigh)) {
		l := e.sc.lists[li]
		list = e.sc.arena[l.off : l.off+l.n]
		if e.br != nil {
			e.br.rejects += int64(len(neigh) - len(list))
		}
	} else if list, ok = e.scan(v, neigh, target, dir, key); !ok {
		return
	}
	// p/(c+1) never exceeds the potential p the memo holds in c.w, so once
	// b candidates are ranked, one whose potential does not outrank the
	// b-th is out without pricing c(v,u) against the fragment.
	prune := e.opts.Strategy == WeightPotentialCost
	top := e.sc.cands[:0]
	for _, c := range list {
		if prune && len(top) == e.bound && !scoredLess(c, top[e.bound-1]) {
			continue
		}
		if e.sc.onStack.has(pairKey{target, c.v}) {
			continue
		}
		c.w = e.weight(c, target)
		top = insertTop(top, c, e.bound)
	}
	// Push in reverse so the best-ranked candidate ends on top.
	for i := len(top) - 1; i >= 0; i-- {
		e.emit(EventPush, target, top[i].v, top[i].w)
		e.push(pairKey{target, top[i].v})
	}
	e.sc.cands = top[:0]
}

// scan reads one adjacency list for the first time in this query. Only
// neighbours carrying target's label can pass the guarded condition, and
// the Aux holds each list grouped by label, so scan charges the whole list
// at once — as a replay does — and guards only the block of target's
// label, ascending as the list is. It appends the survivors to the arena,
// memoizes the list under key (a list charge refused to replay keeps its
// first record) and returns them, or false if the search stopped
// mid-scan.
func (e *engine) scan(v graph.NodeID, neigh []graph.NodeID, target pattern.NodeID, dir graph.Direction, key uint64) ([]scored, bool) {
	if !e.charge(len(neigh)) {
		return e.scanEach(neigh, target, key)
	}
	want := e.plabels[target]
	var block []graph.NodeID
	if dir == graph.Forward {
		block = e.aux.OutBlock(v, want)
	} else {
		block = e.aux.InBlock(v, want)
	}
	off := len(e.sc.arena)
	for _, w := range block {
		if e.admits(w, target) {
			e.sc.arena = append(e.sc.arena, e.candidate(w, target))
		} else {
			e.emit(EventGuardReject, target, w, 0)
		}
	}
	if e.opts.Trace != nil {
		// The label test rejects the rest of the list.
		for _, w := range neigh {
			if e.g.LabelOf(w) != want {
				e.emit(EventGuardReject, target, w, 0)
			}
		}
	}
	return e.memoize(key, off), true
}

// scanEach is scan for a list that holds the search's stop point — the
// visit budget runs out, or a closed Options.Interrupt is polled, inside
// it — so charge refused it. It reads the list item by item, label first
// (it touches nothing but the label array), then the guarded condition,
// and stops at exactly the visit a scan of every neighbour stops at.
func (e *engine) scanEach(neigh []graph.NodeID, target pattern.NodeID, key uint64) ([]scored, bool) {
	want := e.plabels[target]
	off := len(e.sc.arena)
	for _, w := range neigh {
		if e.stopVisit() {
			e.sc.arena = e.sc.arena[:off]
			e.emit(e.stopKind(), target, w, 0)
			return nil, false
		}
		if e.g.LabelOf(w) != want || !e.admits(w, target) {
			e.emit(EventGuardReject, target, w, 0)
			continue
		}
		e.sc.arena = append(e.sc.arena, e.candidate(w, target))
	}
	return e.memoize(key, off), true
}

// admits is C(w,target) for a w carrying target's label: the guarded
// condition, or under DisableGuard the label test alone.
func (e *engine) admits(w graph.NodeID, target pattern.NodeID) bool {
	return e.opts.DisableGuard || e.sem.Guard(w, target)
}

// candidate is the memo record of a guard-passing neighbour w.
func (e *engine) candidate(w graph.NodeID, target pattern.NodeID) scored {
	c := scored{v: w, deg: int32(e.g.Degree(w))}
	if e.opts.Strategy == WeightPotentialCost {
		c.w = e.sem.Potential(w, target)
	}
	return c
}

// memoize records the arena's candidates from off on as the list under
// key and returns them.
func (e *engine) memoize(key uint64, off int) []scored {
	list := e.sc.arena[off:]
	e.sc.memo.put(key, int32(len(e.sc.lists)))
	e.sc.lists = append(e.sc.lists, memoList{int32(off), int32(len(list))})
	return list
}

// weight ranks a guarded candidate c (c.w holding its potential) for query
// node u against the current fragment.
func (e *engine) weight(c scored, u pattern.NodeID) float64 {
	switch e.opts.Strategy {
	case WeightDegree:
		return float64(c.deg)
	case WeightRandom:
		return e.rng.Float64()
	default:
		return c.w / (e.cost(c.v, u) + 1)
	}
}

// cost is c(v,u) of Section 4.1: the number of pattern neighbors u' of u
// that do not yet have a guarded candidate among v's neighbors inside the
// current fragment — i.e. how many more nodes the fragment would need to
// absorb for v to stand a chance of matching u.
func (e *engine) cost(v graph.NodeID, u pattern.NodeID) float64 {
	misses := 0
	for _, uc := range e.p.Out(u) {
		if !e.hasFragCandidate(v, uc, graph.Forward) {
			misses++
		}
	}
	for _, ua := range e.p.In(u) {
		if !e.hasFragCandidate(v, ua, graph.Backward) {
			misses++
		}
	}
	return float64(misses)
}

// hasFragCandidate reports whether some dir-neighbor of v inside the
// current fragment carries u's label. It reads whichever side is smaller:
// v's neighbours of that label (a block of the Aux's label-grouped list),
// or the fragment's members of that label, binary-searched in the block
// (see graph.ScanRatio) — the fragment is capped at α|G|, so hub nodes do
// not force a full neighborhood scan.
func (e *engine) hasFragCandidate(v graph.NodeID, u pattern.NodeID, dir graph.Direction) bool {
	want := e.plabels[u]
	members := e.frag.NodesLabeled(want)
	if len(members) == 0 {
		return false
	}
	var block []graph.NodeID
	if dir == graph.Forward {
		block = e.aux.OutBlock(v, want)
	} else {
		block = e.aux.InBlock(v, want)
	}
	if len(block) <= graph.ScanRatio*len(members) {
		for _, w := range block {
			if e.frag.Contains(w) {
				return true
			}
		}
		return false
	}
	for _, w := range members {
		if _, found := slices.BinarySearch(block, w); found {
			return true
		}
	}
	return false
}
