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
// over, and each per-candidate run obeys its own visit bound. A share
// reaches its run as an integer budget (reduce.Options.Budget), so the
// run gets exactly the items PredictShares reports.
//
// One evaluation borrows one bounded.Runner — the pooled bounded
// scratch — and runs every anchor on it, and ranks the candidates in a
// pooled buffer, by packed integer keys where they fit one word.
//
// Anchor selection reads the snapshot — which label is rarest changes as
// nodes are added — so PickAnchor runs per evaluation, over the pattern's
// compiled label ids. Re-rooting depends on the pattern alone: Prepare
// builds it once per anchor, and the returned Prepared evaluates many
// times, against any snapshot and under either query class, with the
// bounded.Compiled the caller holds for that class — which is how the
// plan layer (internal/plan) embeds this engine.
package rbany

import (
	"math/bits"
	"slices"
	"sync"

	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/obs"
	"rbq/internal/pattern"
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
// selective traversal root, ties to the lowest id — and its candidate
// list. labels are the pattern's labels interned against g's alphabet
// (labels[u] for query node u). An empty candidate list means some query
// label is absent and the answer is empty.
func PickAnchor(g *graph.Graph, labels []graph.LabelID) (pattern.NodeID, []graph.NodeID) {
	best := pattern.NodeID(-1)
	var bestCands []graph.NodeID
	for u, l := range labels {
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

// Prepared is the compiled form of an unanchored pattern at one anchor:
// the pattern re-rooted there. It reads no snapshot — the candidates are
// the anchor's label's nodes in whichever snapshot a run is given.
// Prepare once per (pattern, anchor), then evaluate many times; a
// Prepared is immutable and safe for concurrent use.
type Prepared struct {
	// Anchor is the query node the pattern is re-rooted at.
	Anchor pattern.NodeID
	// Rooted is the pattern re-rooted at Anchor; nil when the pattern is
	// not connected from it (every evaluation then returns the empty
	// Result).
	Rooted *pattern.Pattern
}

// Prepare re-roots p at anchor for unanchored evaluation.
func Prepare(p *pattern.Pattern, anchor pattern.NodeID) *Prepared {
	rooted, err := p.WithPersonalized(anchor)
	if err != nil {
		rooted = nil
	}
	return &Prepared{Anchor: anchor, Rooted: rooted}
}

// rootAtAnchor picks the anchor in g and re-roots p at it; rooted is nil
// when some query label is absent from g or p is not connected from the
// anchor (the answer is then empty). labels are p's labels interned
// against g.
func rootAtAnchor(g *graph.Graph, p *pattern.Pattern) (rooted *pattern.Pattern, labels []graph.LabelID, cands []graph.NodeID) {
	labels = g.InternLabels(p.Labels(), nil)
	anchor, cands := PickAnchor(g, labels)
	if len(cands) == 0 {
		return nil, labels, nil
	}
	return Prepare(p, anchor).Rooted, labels, cands
}

// anchorCand is one guard-passing anchor candidate with its ranking keys.
type anchorCand struct {
	v   graph.NodeID
	deg int
	pot float64 // Potential mass p(v, anchor), the selectivity estimate: an integer count
}

// ranking is the pooled state of one rankAnchors call: the ranked
// candidates and the sort keys they are ranked by.
type ranking struct {
	pass []anchorCand
	keys []uint64
}

var rankings = sync.Pool{New: func() any { return new(ranking) }}

// Run evaluates the prepared pattern on aux's snapshot under c's query
// class. c must be compiled for the pattern Prepare re-rooted, or for its
// re-rooting: the two share labels and edges, so both guard and price
// alike. mopts tunes the isomorphism matcher of every rooted run. The
// anchors all run on one bounded.Runner, borrowed for the request.
func (pr *Prepared) Run(aux *graph.Aux, c *bounded.Compiled, opts Options, mopts *subiso.Options) Result {
	res := Result{Anchor: pr.Anchor}
	if pr.Rooted == nil {
		return res
	}
	// The rooted runs execute without the span tree; each is summarized
	// as one anchor span instead (see anchorSpan).
	sp := opts.Reduce.Obs
	opts.Reduce.Obs = nil
	ss := sp.Child(obs.PhaseSelectivity)
	r := bounded.Borrow(aux, c)
	defer r.Release()
	rk := rankings.Get().(*ranking)
	defer rankings.Put(rk)
	cands, mass := pr.rankAnchors(aux.Graph(), r.Semantics(), rk)
	pass := rk.pass
	ss.Add("candidates", int64(len(cands)))
	ss.Add("passed", int64(len(pass)))
	ss.Add("mass", int64(mass))
	ss.End()
	res.Candidates = len(pass)
	if len(pass) == 0 {
		return res
	}
	remaining := reduce.Budget(opts.Alpha, aux.Graph().Size())
	ws := sp.Child(obs.PhaseAnchorWave)
	ws.Add("total_budget", int64(remaining))
	var matches []graph.NodeID
	var reads reduce.Stats // every anchor's read counters, summed past maxAnchorSpans
	for i, a := range pass {
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
		share := splitShare(remaining, mass, a.pot, len(pass)-i)
		ropts := opts.Reduce
		ropts.Budget = share
		ar := r.Run(pr.Rooted, a.v, ropts, mopts)
		anchorSpan(ws, res.Evaluated, a.v, share, ar.Stats, len(ar.Matches))
		reads.AddReads(&ar.Stats)
		res.Evaluated++
		res.Visited += ar.Stats.Visited
		res.FragmentSize += ar.Stats.FragmentSize
		remaining -= ar.Stats.FragmentSize
		mass -= a.pot
		matches = append(matches, ar.Matches...)
	}
	ws.Add("evaluated", int64(res.Evaluated))
	if ws != nil {
		ws.Counters = reads.AppendReads(ws.Counters)
	}
	ws.End()
	res.Matches = sortedUnique(matches)
	return res
}

// maxAnchorSpans caps per-anchor span detail: beyond this many anchor
// runs only the aggregate counters on the parent span grow, so a
// pattern with thousands of anchor candidates cannot balloon a trace.
const maxAnchorSpans = 32

// anchorSpan records one anchor run as a child span. Past the cap it is
// a no-op.
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

// rankAnchors guard-filters the anchor's candidates in sem's snapshot —
// recording each survivor's Potential mass, the same Sl-histogram
// estimate the in-reduction frontier ranks by, here reused as the
// anchor's budget weight — then ranks them into rk.pass by decreasing
// mass, so the most promising anchors draw from the fullest budget. Run
// and PredictShares start from this identical (pass, mass) state. The
// candidates all carry the anchor's label, so GuardLabeled is asked only
// the rest of C(v, anchor).
func (pr *Prepared) rankAnchors(g *graph.Graph, sem *bounded.Semantics, rk *ranking) (cands []graph.NodeID, mass float64) {
	anchor := pr.Anchor
	cands = g.NodesWithLabel(sem.Labels()[anchor])
	pass := rk.pass[:0]
	for _, v := range cands {
		if !sem.GuardLabeled(v, anchor) {
			continue
		}
		c := anchorCand{v: v, deg: g.Degree(v), pot: sem.Potential(v, anchor)}
		mass += c.pot
		pass = append(pass, c)
	}
	rk.pass = pass
	rk.sortAnchors()
	return cands, mass
}

// sortAnchors orders rk.pass by (pot desc, deg desc, v asc), the order
// of anchorLess. When the three fields fit one 64-bit word — pot and deg
// complemented against their maxima, so ascending keys rank descending —
// it sorts packed integer keys and unpacks them in place; otherwise it
// sorts the candidates with anchorLess itself.
func (rk *ranking) sortAnchors() {
	var maxV, maxDeg, maxPot uint64
	for _, c := range rk.pass {
		maxV = max(maxV, uint64(c.v))
		maxDeg = max(maxDeg, uint64(c.deg))
		maxPot = max(maxPot, uint64(c.pot))
	}
	vBits, degBits := bits.Len64(maxV), bits.Len64(maxDeg)
	if vBits+degBits+bits.Len64(maxPot) > 64 {
		slices.SortFunc(rk.pass, anchorLess)
		return
	}
	keys := rk.keys[:0]
	for _, c := range rk.pass {
		keys = append(keys, (maxPot-uint64(c.pot))<<(degBits+vBits)|(maxDeg-uint64(c.deg))<<vBits|uint64(c.v))
	}
	slices.Sort(keys)
	vMask, degMask := uint64(1)<<vBits-1, uint64(1)<<degBits-1
	for i, k := range keys {
		rk.pass[i] = anchorCand{
			v:   graph.NodeID(k & vMask),
			deg: int(maxDeg - k>>vBits&degMask),
			pot: float64(maxPot - k>>(degBits+vBits)),
		}
	}
	rk.keys = keys
}

// anchorLess is the anchor ranking: Potential mass descending, then
// degree descending, then id ascending.
func anchorLess(a, b anchorCand) int {
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
}

// splitShare computes anchor i's budget share from the live rollover
// state: remaining budget, remaining Potential mass, the candidate's own
// mass, and how many candidates are left (including this one). This is
// THE split — Run and PredictShares call the same code so their float
// operation sequences agree exactly.
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
// evaluation would grant it if every earlier anchor spent its whole
// share (the serial rollover can only enlarge later shares).
type Share struct {
	V     graph.NodeID
	Pot   float64
	Share int
}

// PredictShares guard-ranks the anchor candidates on aux's snapshot under
// c exactly as Run would (same rankAnchors, same splitShare float
// sequence) and returns up to limit predicted shares in evaluation order,
// together with how many candidates pass the guard — Run's
// Result.Candidates. Read-only: no reduction runs.
func (pr *Prepared) PredictShares(aux *graph.Aux, c *bounded.Compiled, alpha float64, limit int) (shares []Share, passed int) {
	if pr.Rooted == nil {
		return nil, 0
	}
	sem := c.On(aux)
	rk := rankings.Get().(*ranking)
	defer rankings.Put(rk)
	_, mass := pr.rankAnchors(aux.Graph(), &sem, rk)
	pass := rk.pass
	remaining := reduce.Budget(alpha, aux.Graph().Size())
	for j := 0; j < len(pass) && remaining > 0 && len(shares) < limit; j++ {
		share := splitShare(remaining, mass, pass[j].pot, len(pass)-j)
		shares = append(shares, Share{V: pass[j].v, Pot: pass[j].pot, Share: share})
		remaining -= share
		mass -= pass[j].pot
	}
	return shares, len(pass)
}

// SimulationExact is the resource-unbounded reference: the union over all
// anchor candidates v of the exact personalized answer anchored at v,
// one MatchOpt region per candidate, in candidate order. A fired done
// channel abandons the evaluation and returns nil with ok=false.
// Intended for tests and calibration on graphs where it is affordable.
func SimulationExact(g *graph.Graph, p *pattern.Pattern, done <-chan struct{}) ([]graph.NodeID, bool) {
	rooted, labels, cands := rootAtAnchor(g, p)
	if rooted == nil {
		return nil, true
	}
	var out []graph.NodeID
	for _, v := range cands {
		m, ok := simulation.MatchOpt(g, rooted, labels, v, done)
		if !ok || interrupt.Fired(done) {
			return nil, false
		}
		out = append(out, m...)
	}
	return sortedUnique(out), true
}

// SubgraphExact is the isomorphism counterpart of SimulationExact;
// complete is the conjunction of the per-candidate VF2 completion flags,
// and a fired mopts.Interrupt stops the loop with complete=false.
func SubgraphExact(g *graph.Graph, p *pattern.Pattern, mopts *subiso.Options) ([]graph.NodeID, bool) {
	rooted, labels, cands := rootAtAnchor(g, p)
	if rooted == nil {
		return nil, true
	}
	var done <-chan struct{}
	if mopts != nil {
		done = mopts.Interrupt
	}
	var out []graph.NodeID
	complete := true
	for _, v := range cands {
		m, ok := subiso.MatchOpt(g, rooted, labels, v, mopts)
		out = append(out, m...)
		complete = complete && ok
		if interrupt.Fired(done) {
			return sortedUnique(out), false
		}
	}
	return sortedUnique(out), complete
}

// sortedUnique sorts ids ascending and drops duplicates in place.
func sortedUnique(ids []graph.NodeID) []graph.NodeID {
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
