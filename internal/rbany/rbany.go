// Package rbany implements resource-bounded pattern matching for patterns
// WITHOUT a personalized node — the first open problem of Section 7 of
// Fan, Wang & Wu (SIGMOD 2014).
//
// Without a designated unique match v_p, the dynamic reduction has no
// single start node. rbany recovers one: it picks the most selective
// query node (the one whose label has the fewest candidates in G) as the
// anchor, re-roots the pattern there (pattern.WithPersonalized), and runs
// the personalized reduction from each anchor candidate in turn with the
// overall resource budget α|G| shared among candidates. The answer is the
// union of the per-anchor answers.
//
// The budget is split by selectivity: each candidate's share of α|G| is
// proportional to its Potential mass p(v, anchor) — the Sl-histogram
// estimate of how much matching structure lives around v — with a floor
// of one item, so hopeless anchors cannot starve promising ones. The total
// data accessed stays bounded: shares sum to α|G|, unspent budget rolls
// over, and each per-candidate run obeys its own visit bound.
//
// Anchor selection, candidate enumeration and the Semantics values are a
// compile-time decision: Prepare performs them once per pattern and the
// returned Prepared evaluates many times, which is how the plan layer
// (internal/plan) embeds this engine.
package rbany

import (
	"slices"

	"rbq/internal/exec"
	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/obs"
	"rbq/internal/pattern"
	"rbq/internal/rbsim"
	"rbq/internal/rbsub"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
	"rbq/internal/subiso"
)

// Options configures an unanchored evaluation.
type Options struct {
	// Alpha is the overall resource ratio α; the per-candidate budget is
	// α|G| divided among the anchor candidates in proportion to their
	// Potential mass (adaptively: unspent budget rolls over to later
	// candidates).
	Alpha float64
	// Workers bounds how many per-anchor rooted runs may execute
	// concurrently. 0 or 1 evaluates anchors serially. Higher values run
	// speculative waves (see runWaves) whose accepted results are
	// bit-for-bit identical to the serial path. The request layer passes
	// Request.Parallelism through here, already capped at GOMAXPROCS.
	Workers int
	// Reduce carries through engine options (weights, bounds, guard).
	Reduce reduce.Options
}

// Result reports an unanchored evaluation.
type Result struct {
	// Matches is the union of the per-anchor answers, sorted.
	Matches []graph.NodeID
	// Anchor is the query node chosen as the traversal root.
	Anchor pattern.NodeID
	// Candidates is how many anchor candidates passed the guard;
	// Evaluated how many were actually run before the budget drained.
	Candidates, Evaluated int
	// Visited totals data items examined across all runs.
	Visited int
	// FragmentSize totals |G_Q| across all runs (bounded by α|G|).
	FragmentSize int
}

// PickAnchor returns the query node whose label is rarest in g — the most
// selective traversal root — and its candidate list. An empty candidate
// list means some query label is absent and the answer is empty. The plan
// layer calls this during compilation and Prepare calls it too, so both
// choose identically.
func PickAnchor(g *graph.Graph, p *pattern.Pattern) (pattern.NodeID, []graph.NodeID) {
	best := pattern.NodeID(-1)
	var bestCands []graph.NodeID
	for u := 0; u < p.NumNodes(); u++ {
		l := g.LabelIDOf(p.Label(pattern.NodeID(u)))
		if l == graph.NoLabel {
			return pattern.NodeID(u), nil
		}
		cands := g.NodesWithLabel(l)
		if best < 0 || len(cands) < len(bestCands) {
			best = pattern.NodeID(u)
			bestCands = cands
		}
	}
	return best, bestCands
}

// Prepared is the compiled form of an unanchored pattern: the chosen
// anchor, its candidate list, the pattern re-rooted at the anchor, and
// the pre-bound reduction semantics for both query classes. Compile once
// with Prepare (or let the plan layer assemble one), then evaluate many
// times; a Prepared is immutable and safe for concurrent use.
type Prepared struct {
	// Aux is the offline structure the reductions run against.
	Aux *graph.Aux
	// Anchor is the most selective query node (see PickAnchor).
	Anchor pattern.NodeID
	// Rooted is the pattern re-rooted at Anchor; nil when the pattern is
	// not connected from it or some query label is absent from the graph
	// (every evaluation then returns the empty Result).
	Rooted *pattern.Pattern
	// Cands are the data nodes carrying the anchor's label (unfiltered;
	// each evaluation applies the query class's guard).
	Cands []graph.NodeID
	// SimSem and SubSem are the reduction semantics bound to the pattern,
	// shared by every evaluation. Rooted shares the original pattern's
	// labels, so semantics bound to either work identically.
	SimSem *rbsim.Semantics
	SubSem *rbsub.Semantics
}

// Prepare compiles p against aux for unanchored evaluation under both
// query classes (the plan layer supplies its own pre-bound Semantics and
// assembles a Prepared directly instead).
func Prepare(aux *graph.Aux, p *pattern.Pattern) *Prepared {
	anchor, rooted, cands := rootAtAnchor(aux.Graph(), p)
	pr := &Prepared{Aux: aux, Anchor: anchor}
	if rooted == nil {
		return pr
	}
	pr.Rooted = rooted
	pr.Cands = cands
	pr.SimSem = rbsim.NewSemantics(aux, rooted)
	pr.SubSem = rbsub.NewSemantics(aux, rooted)
	return pr
}

// rootAtAnchor picks the anchor and re-roots p at it; rooted is nil when
// some query label is absent from g or p is not connected from the anchor
// (the answer is then empty).
func rootAtAnchor(g *graph.Graph, p *pattern.Pattern) (anchor pattern.NodeID, rooted *pattern.Pattern, cands []graph.NodeID) {
	anchor, cands = PickAnchor(g, p)
	if len(cands) == 0 {
		return anchor, nil, nil
	}
	rooted, err := p.WithPersonalized(anchor)
	if err != nil {
		return anchor, nil, nil
	}
	return anchor, rooted, cands
}

// Simulation evaluates the prepared pattern under strong simulation.
func (pr *Prepared) Simulation(opts Options) Result {
	return pr.run(opts, simSemantics, nil)
}

// Subgraph evaluates the prepared pattern under subgraph isomorphism.
func (pr *Prepared) Subgraph(opts Options, mopts *subiso.Options) Result {
	return pr.run(opts, subSemantics, mopts)
}

// guardType selects which semantics filters and matches.
type guardType int

const (
	simSemantics guardType = iota
	subSemantics
)

// anchorCand is one guard-passing anchor candidate with its ranking keys.
type anchorCand struct {
	v   graph.NodeID
	deg int
	pot float64 // Potential mass p(v, anchor), the selectivity estimate
}

func (pr *Prepared) run(opts Options, kind guardType, mopts *subiso.Options) Result {
	res := Result{Anchor: pr.Anchor}
	if pr.Rooted == nil {
		return res
	}
	// The span tree is not safe for concurrent mutation and the rooted
	// runs may execute in parallel waves, so the tree is built only in
	// the serial sections here: detach it from the reduce options the
	// anchors execute with and summarize accepted runs at the join.
	sp := opts.Reduce.Obs
	opts.Reduce.Obs = nil
	ss := sp.Child(obs.PhaseSelectivity)
	pass, mass := pr.rankAnchors(kind)
	ss.Add("candidates", int64(len(pr.Cands)))
	ss.Add("passed", int64(len(pass)))
	ss.Add("mass", int64(mass))
	ss.End()
	res.Candidates = len(pass)
	if len(pass) == 0 {
		return res
	}
	totalBudget := int(opts.Alpha * float64(pr.Aux.Graph().Size()))
	ws := sp.Child(obs.PhaseAnchorWave)
	ws.Add("total_budget", int64(totalBudget))
	ws.Add("workers", int64(max(1, opts.Workers)))
	var matches []graph.NodeID
	if opts.Workers > 1 {
		matches = pr.runWaves(&res, opts, kind, mopts, pass, mass, totalBudget, ws)
	} else {
		matches = pr.runSerial(&res, opts, kind, mopts, pass, mass, totalBudget, ws)
	}
	ws.Add("evaluated", int64(res.Evaluated))
	ws.End()
	res.Matches = sortedUnique(matches)
	return res
}

// maxAnchorSpans caps per-anchor span detail: beyond this many accepted
// anchors only the aggregate counters on the parent span grow, so a
// pattern with thousands of anchor candidates cannot balloon a trace.
const maxAnchorSpans = 32

// anchorSpan records one accepted anchor run as a child span (serial
// sections only; see run). Past the cap it is a no-op.
func anchorSpan(parent *obs.Span, n int, v graph.NodeID, share int, stats reduce.Stats, nmatches int) {
	if parent == nil || n >= maxAnchorSpans {
		return
	}
	as := parent.Child(obs.PhaseAnchor)
	as.Add("v", int64(v))
	as.Add("share", int64(share))
	as.Add("visited", int64(stats.Visited))
	as.Add("fragment_size", int64(stats.FragmentSize))
	as.Add("matches", int64(nmatches))
	as.End()
}

// rankAnchors guard-filters the candidates — recording each survivor's
// Potential mass, the same Sl-histogram estimate the in-reduction
// frontier ranks by, here reused as the anchor's budget weight — then
// ranks them by decreasing mass, so the most promising anchors draw from
// the fullest budget. Both execution paths start from this identical
// (pass, mass) state.
func (pr *Prepared) rankAnchors(kind guardType) ([]anchorCand, float64) {
	g := pr.Aux.Graph()
	anchor := pr.Anchor
	var guard func(graph.NodeID, pattern.NodeID) bool
	var potential func(graph.NodeID, pattern.NodeID) float64
	switch kind {
	case subSemantics:
		guard, potential = pr.SubSem.Guard, pr.SubSem.Potential
	default:
		guard, potential = pr.SimSem.Guard, pr.SimSem.Potential
	}
	var pass []anchorCand
	var mass float64
	for _, v := range pr.Cands {
		if !guard(v, anchor) {
			continue
		}
		c := anchorCand{v: v, deg: g.Degree(v), pot: potential(v, anchor)}
		mass += c.pot
		pass = append(pass, c)
	}
	if len(pass) == 0 {
		return nil, 0
	}
	slices.SortFunc(pass, func(a, b anchorCand) int {
		if a.pot != b.pot {
			if a.pot > b.pot {
				return -1
			}
			return 1
		}
		if a.deg != b.deg {
			return b.deg - a.deg
		}
		return int(a.v) - int(b.v)
	})
	return pass, mass
}

// splitShare computes anchor i's budget share from the live rollover
// state: remaining budget, remaining Potential mass, the candidate's own
// mass, and how many candidates are left (including this one). This is
// THE split — serial accounting and wave prediction/validation must call
// the same code so their float operation sequences agree exactly.
func splitShare(remaining int, mass, pot float64, left int) int {
	var share int
	if mass <= 0 {
		share = remaining / left
	} else {
		share = int(float64(remaining) * pot / mass)
	}
	if share < 1 {
		share = 1
	}
	return share
}

// Share is one anchor candidate's predicted budget share, as EXPLAIN
// reports it: the node, its Potential mass, and the α|G| slice the
// evaluation would grant it under the full-spend assumption (the same
// prediction the wave scheduler builds, so what EXPLAIN prints is what
// a parallel run speculates with; the serial rollover can only enlarge
// later shares).
type Share struct {
	V     graph.NodeID
	Pot   float64
	Share int
}

// PredictShares guard-ranks the anchor candidates exactly as an
// evaluation would (same rankAnchors, same splitShare float sequence)
// and returns up to limit predicted shares in evaluation order. sub
// selects the isomorphism semantics. Read-only: no reduction runs.
func (pr *Prepared) PredictShares(alpha float64, sub bool, limit int) []Share {
	if pr.Rooted == nil {
		return nil
	}
	kind := simSemantics
	if sub {
		kind = subSemantics
	}
	pass, mass := pr.rankAnchors(kind)
	remaining := int(alpha * float64(pr.Aux.Graph().Size()))
	out := make([]Share, 0, min(limit, len(pass)))
	for j := 0; j < len(pass) && remaining > 0 && len(out) < limit; j++ {
		share := splitShare(remaining, mass, pass[j].pot, len(pass)-j)
		out = append(out, Share{V: pass[j].v, Pot: pass[j].pot, Share: share})
		remaining -= share
		mass -= pass[j].pot
	}
	return out
}

// runAnchor runs one rooted reduction from v with the given budget share.
// The result is a pure function of (Aux, Rooted, v, share, opts, mopts):
// the engines draw transient state from the Aux scratch pools and touch
// nothing shared, which is what makes both the concurrent wave execution
// and the speculative re-use of its results sound.
func (pr *Prepared) runAnchor(v graph.NodeID, share int, opts Options, kind guardType, mopts *subiso.Options) ([]graph.NodeID, reduce.Stats) {
	ropts := opts.Reduce
	ropts.Alpha = float64(share) / float64(pr.Aux.Graph().Size())
	switch kind {
	case subSemantics:
		r := rbsub.Run(pr.Aux, pr.Rooted, v, pr.SubSem, ropts, mopts)
		return r.Matches, r.Stats
	default:
		r := rbsim.Run(pr.Aux, pr.Rooted, v, pr.SimSem, ropts)
		return r.Matches, r.Stats
	}
}

// runSerial is the serial anchor loop: one rooted run at a time, unspent
// budget rolling over to later candidates.
func (pr *Prepared) runSerial(res *Result, opts Options, kind guardType, mopts *subiso.Options, pass []anchorCand, mass float64, totalBudget int, ws *obs.Span) []graph.NodeID {
	var matches []graph.NodeID
	remaining := totalBudget
	for i, c := range pass {
		if remaining <= 0 {
			break
		}
		// Cooperative cancellation between anchors: each per-anchor
		// reduction already polls opts.Reduce.Interrupt internally; this
		// check stops the loop from starting the next anchor after the
		// channel fires.
		if interrupt.Fired(opts.Reduce.Interrupt) {
			break
		}
		// Adaptive split: unspent budget rolls over to later candidates.
		share := splitShare(remaining, mass, c.pot, len(pass)-i)
		got, stats := pr.runAnchor(c.v, share, opts, kind, mopts)
		anchorSpan(ws, res.Evaluated, c.v, share, stats, len(got))
		res.Evaluated++
		res.Visited += stats.Visited
		res.FragmentSize += stats.FragmentSize
		remaining -= stats.FragmentSize
		mass -= c.pot
		matches = append(matches, got...)
	}
	return matches
}

// runWaves evaluates the anchor sequence in speculative waves of up to
// opts.Workers anchors, keeping the answer and every Result counter
// bit-for-bit identical to runSerial despite the serial path's budget
// rollover chain (anchor i's share depends on how much anchors 0..i-1
// actually spent, which is unknown until they run).
//
// Each wave predicts shares under the full-spend assumption — as if every
// earlier wave member spends its entire share (predRemaining -= share;
// predMass -= pot) — a deterministic computation independent of
// scheduling. The wave's rooted runs then execute concurrently (each is a
// pure function of its share; see runAnchor). At the join point the wave
// is walked in serial order against the TRUE rollover state: the true
// share is recomputed with the same splitShare float sequence the serial
// loop uses, and while predictions match, the speculative results are
// accepted with serial-identical accounting. The first mismatch — an
// earlier anchor spent less than its full share, so this anchor would
// have received a different (larger) budget serially — discards the rest
// of the wave, and the next wave rebuilds from the true state at that
// anchor. wave[0]'s prediction is always exact (its predicted state IS
// the true state), so every wave accepts at least one anchor: progress is
// guaranteed, no run is ever re-executed with the same share, and the
// worst case degrades to serial wall-clock plus discarded speculative
// work — never to a wrong or non-deterministic answer.
//
// Budget discipline: accepted runs account exactly as serial, so
// FragmentSize totals obey the same α|G| bound. Discarded speculative
// runs do touch data (their visits are not part of the answer or the
// Result counters, mirroring how the serial path never runs them at
// all); callers trading strict access bounds for latency get the serial
// path with Workers ≤ 1.
func (pr *Prepared) runWaves(res *Result, opts Options, kind guardType, mopts *subiso.Options, pass []anchorCand, mass float64, totalBudget int, ws *obs.Span) []graph.NodeID {
	type anchorRun struct {
		share   int
		matches []graph.NodeID
		stats   reduce.Stats
	}
	var matches []graph.NodeID
	remaining := totalBudget
	wave := make([]int, 0, opts.Workers) // indices into pass
	runs := make([]anchorRun, opts.Workers)
	i := 0
	for i < len(pass) && remaining > 0 && !interrupt.Fired(opts.Reduce.Interrupt) {
		// Build the wave under the full-spend prediction. The wave span
		// is created and finalized only in these serial sections — the
		// concurrent runs below never touch the tree.
		wave = wave[:0]
		wspan := ws.Child(obs.PhaseWave)
		predRemaining, predMass := remaining, mass
		for j := i; j < len(pass) && predRemaining > 0 && len(wave) < opts.Workers; j++ {
			share := splitShare(predRemaining, predMass, pass[j].pot, len(pass)-j)
			runs[len(wave)] = anchorRun{share: share}
			wave = append(wave, j)
			predRemaining -= share
			predMass -= pass[j].pot
		}
		wspan.Add("width", int64(len(wave)))
		// Run the wave concurrently; slot-indexed results.
		exec.Run(opts.Reduce.Interrupt, len(wave), opts.Workers, func(k int) {
			runs[k].matches, runs[k].stats = pr.runAnchor(pass[wave[k]].v, runs[k].share, opts, kind, mopts)
		})
		// Join: accept in serial order while the predictions hold.
		accepted := 0
		for k, j := range wave {
			if remaining <= 0 || interrupt.Fired(opts.Reduce.Interrupt) {
				wspan.Add("accepted", int64(accepted))
				wspan.Add("discarded", int64(len(wave)-accepted))
				wspan.End()
				return matches
			}
			trueShare := splitShare(remaining, mass, pass[j].pot, len(pass)-j)
			if trueShare != runs[k].share {
				// Misprediction: an earlier anchor under-spent, so j's
				// serial share differs. Discard j and the rest of the
				// wave; the next wave restarts here from the true state.
				break
			}
			anchorSpan(wspan, res.Evaluated, pass[j].v, runs[k].share, runs[k].stats, len(runs[k].matches))
			accepted++
			res.Evaluated++
			res.Visited += runs[k].stats.Visited
			res.FragmentSize += runs[k].stats.FragmentSize
			remaining -= runs[k].stats.FragmentSize
			mass -= pass[j].pot
			matches = append(matches, runs[k].matches...)
			i = j + 1
		}
		wspan.Add("accepted", int64(accepted))
		wspan.Add("discarded", int64(len(wave)-accepted))
		wspan.End()
	}
	return matches
}

// SimulationExact is the resource-unbounded reference: the union over all
// anchor candidates v of the exact personalized answer anchored at v,
// with the per-candidate MatchOpt regions fanned across at most `workers`
// goroutines (≤ 1 runs them inline, in order). Per-candidate answers land
// in candidate-order slots and the final sortedUnique canonicalizes the
// union, so the answer does not depend on workers. A fired done channel
// abandons the evaluation and returns nil with ok=false. Intended for
// tests and calibration on graphs where it is affordable.
func SimulationExact(g *graph.Graph, p *pattern.Pattern, workers int, done <-chan struct{}) ([]graph.NodeID, bool) {
	_, rooted, cands := rootAtAnchor(g, p)
	if rooted == nil {
		return nil, true
	}
	per, ok := simulation.MatchOptMany(g, rooted, g.InternLabels(rooted.Labels(), nil), cands, workers, done)
	if !ok {
		return nil, false
	}
	return unionOf(per), true
}

// SubgraphExact is the isomorphism counterpart of SimulationExact;
// complete is the conjunction of the per-candidate VF2 completion flags.
func SubgraphExact(g *graph.Graph, p *pattern.Pattern, workers int, mopts *subiso.Options) ([]graph.NodeID, bool) {
	_, rooted, cands := rootAtAnchor(g, p)
	if rooted == nil {
		return nil, true
	}
	per, complete := subiso.MatchOptMany(g, rooted, g.InternLabels(rooted.Labels(), nil), cands, workers, mopts)
	return unionOf(per), complete
}

// unionOf merges per-candidate answers into one sorted duplicate-free set.
func unionOf(per [][]graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, m := range per {
		out = append(out, m...)
	}
	return sortedUnique(out)
}

// sortedUnique sorts ids ascending and drops duplicates in place.
func sortedUnique(ids []graph.NodeID) []graph.NodeID {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
