// Package plan is the prepared-query layer: the compile/execute split
// under every pattern engine.
//
// Production pattern workloads evaluate a handful of pattern templates
// millions of times against different pins. Everything about such a
// template that does not depend on the pin is a compile-time quantity:
// the resolution of its label constraints to the graph's interned ids,
// the bounded.Semantics the dynamic reduction is parameterized by (one per
// query class), its diameter, the unique personalized match (when one
// exists), and — for unanchored evaluation — the per-query-node candidate
// counts, their Potential-mass selectivity estimates, and the chosen
// anchor. A Plan computes all of that once per (pattern, Aux) pair; its
// execute methods then run the engines on the compiled form
// (bounded.Run / bounded.Exact / rbany.Prepared) with the Semantics of
// the class they are asked for.
//
// Compilation is cheap — O(|Q|) label work plus one unique-match probe.
// The remaining compile products are built in two lazy tiers: the
// unanchored form (anchor choice plus the re-rooted pattern, O(|Q|)) on
// the first unanchored evaluation, and the full selectivity table — whose
// Potential-mass scan costs one histogram probe per candidate of every
// query node — only on an explicit Selectivity call, never implicitly on
// an execute path.
//
// A Plan is immutable after New (the lazy selectivity table is guarded by
// a mutex), so one Plan may serve concurrent evaluations: the engines'
// transient state still comes from the Aux's scratch pools.
package plan

import (
	"fmt"
	"sync"

	"rbq/internal/bounded"
	"rbq/internal/exec"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/rbany"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
	"rbq/internal/subiso"
)

// Plan is a pattern compiled against a graph's auxiliary structure.
// Construct with New, or recycle one with Bind. The zero Plan is unusable
// until bound.
type Plan struct {
	aux  *graph.Aux
	p    *pattern.Pattern
	sems [2]bounded.Semantics // indexed by bounded.Class
	vp   graph.NodeID         // unique match of u_p, NoNode if absent/ambiguous
	vpOK bool

	// The unanchored form (anchor choice + re-rooted pattern) and the
	// full selectivity table are built lazily: pinned workloads never
	// need either, and the table's Potential-mass scan costs one probe
	// per candidate of every query node. mu guards the fields below.
	mu         sync.Mutex
	unanchDone bool
	anchor     pattern.NodeID
	unanch     *rbany.Prepared
	sel        *Selectivity
}

// SelectivitySampleThreshold is the candidate-list length above which
// the Potential-mass scan samples instead of probing every candidate:
// the list is stride-sampled down to roughly SelectivitySampleSize
// Potential probes and the sampled mass scaled by the degree-weighted
// ratio estimator of massEstimate. Very common labels ("user" on a
// social graph) otherwise make the table's build cost one histogram
// probe per graph node, for a number whose consumers only need it to be
// proportionally right.
const (
	SelectivitySampleThreshold = 4096
	SelectivitySampleSize      = 2048
)

// Selectivity is the compile-time selectivity table of a pattern: how
// many candidates each query node has in the graph, how much Potential
// mass those candidates carry, and the anchor unanchored evaluation
// re-roots the pattern at. rbany's selectivity-weighted budget split is
// driven by the per-candidate masses behind these aggregates.
type Selectivity struct {
	// CandCount[u] is the number of data nodes carrying u's label.
	CandCount []int
	// Mass[u] is the summed Potential mass p(v,u) over u's candidates —
	// an Sl-histogram estimate of how much matching structure surrounds
	// them. Low count and low mass both mean "selective". For query
	// nodes whose candidate list exceeds SelectivitySampleThreshold the
	// value is a sample-and-scale estimate (see Sampled): a deterministic
	// stride sample of the candidates, scaled by the candidates' degree
	// mass rather than their bare count so heavy-tailed graphs do not
	// skew it (see massEstimate).
	Mass []float64
	// Sampled[u] reports whether Mass[u] was estimated by sampling
	// rather than an exact scan.
	Sampled []bool
	// Anchor is the query node unanchored evaluation roots at: the one
	// with the fewest candidates (ties to the lowest id), exactly as
	// rbany.PickAnchor chooses.
	Anchor pattern.NodeID
	// Unanchored is the compiled unanchored form (anchor candidates and
	// re-rooted pattern). Nil when some query label is absent or the
	// pattern is not connected from the anchor; every unanchored
	// evaluation is then empty.
	Unanchored *rbany.Prepared
}

// New compiles p against aux.
func New(aux *graph.Aux, p *pattern.Pattern) (*Plan, error) {
	if p == nil {
		return nil, fmt.Errorf("plan: nil pattern")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	pl := &Plan{}
	pl.Bind(aux, p)
	return pl, nil
}

// Bind re-points pl at (aux, p), reusing its buffers. Callers must not
// Bind a Plan that other goroutines may still be executing.
func (pl *Plan) Bind(aux *graph.Aux, p *pattern.Pattern) {
	pl.aux, pl.p = aux, p
	for c := range pl.sems {
		pl.sems[c].Bind(aux, p, bounded.Class(c))
	}
	pl.vp, pl.vpOK = simulation.PersonalizedMatch(aux.Graph(), p)
	pl.unanchDone = false
	pl.anchor = 0
	pl.unanch = nil
	pl.sel = nil
}

// Aux returns the auxiliary structure the plan was compiled against.
func (pl *Plan) Aux() *graph.Aux { return pl.aux }

// Pattern returns the compiled pattern.
func (pl *Plan) Pattern() *pattern.Pattern { return pl.p }

// Labels returns the pattern's label constraints resolved to the graph's
// interned ids. The slice is owned by the plan; do not modify.
func (pl *Plan) Labels() []graph.LabelID { return pl.sems[bounded.Simulation].Labels() }

// Diameter returns the pattern's cached diameter d_Q.
func (pl *Plan) Diameter() int { return pl.p.Diameter() }

// Semantics returns the pre-bound reduction semantics of class c
// (shared; safe for concurrent Guard/Potential probes).
func (pl *Plan) Semantics(c bounded.Class) *bounded.Semantics { return &pl.sems[c] }

// Personalized returns the unique data-graph match of the pattern's
// personalized node, resolved at compile time; ok is false when the
// personalized label is absent or ambiguous (pin explicitly, or run
// unanchored).
func (pl *Plan) Personalized() (graph.NodeID, bool) { return pl.vp, pl.vpOK }

// CheckPin validates an explicit personalized pin against the graph and
// the pattern's label constraint.
func (pl *Plan) CheckPin(vp graph.NodeID) error {
	g := pl.aux.Graph()
	if int(vp) < 0 || int(vp) >= g.NumNodes() {
		return fmt.Errorf("pinned node %d out of range", vp)
	}
	if g.LabelOf(vp) != pl.Labels()[pl.p.Personalized()] {
		return fmt.Errorf("pinned node %d has label %q, pattern expects %q",
			vp, g.Label(vp), pl.p.Label(pl.p.Personalized()))
	}
	return nil
}

// Bounded runs the resource-bounded algorithm of class c — RBSim or
// RBSub — from the pinned personalized match vp. mopts tunes the
// isomorphism matcher (nil = no step cap, no interrupt).
func (pl *Plan) Bounded(c bounded.Class, vp graph.NodeID, opts reduce.Options, mopts *subiso.Options) bounded.Result {
	return bounded.Run(pl.aux, pl.p, vp, &pl.sems[c], opts, mopts)
}

// Exact runs the exact baseline of class c — MatchOpt or VF2Opt — from
// vp, on the label-closed d_Q-region the compiled labels span.
// done is the cooperative cancellation channel (nil = uncancellable);
// when it fires the partial answer is abandoned with complete=false — the
// request layer reports ctx.Err() instead. maxSteps caps the isomorphism
// search (0 = no cap).
func (pl *Plan) Exact(c bounded.Class, vp graph.NodeID, done <-chan struct{}, maxSteps int64) ([]graph.NodeID, bool) {
	return bounded.Exact(&pl.sems[c], pl.p, vp, done, maxSteps)
}

// Unanchored evaluates the pattern under class c with no designated
// personalized match, using the plan's cached anchor choice and re-rooted
// pattern. The budget split weighs each anchor candidate's Potential
// mass, computed during the run's guard pass over the anchor's candidates
// only — the full per-query-node selectivity table (see Selectivity) is
// not needed here.
func (pl *Plan) Unanchored(c bounded.Class, opts rbany.Options, mopts *subiso.Options) rbany.Result {
	unanch, anchor := pl.unanchored()
	if unanch == nil {
		return rbany.Result{Anchor: anchor}
	}
	return unanch.Run(&pl.sems[c], opts, mopts)
}

// unanchored returns the compiled unanchored form (nil when the pattern
// cannot be anchored) and the chosen anchor, building both on first use.
// This is the cheap compile product — O(|Q|) label probes — that every
// unanchored evaluation needs; the candidate-scanning table is built
// separately by Selectivity.
func (pl *Plan) unanchored() (*rbany.Prepared, pattern.NodeID) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.unanchoredLocked()
}

func (pl *Plan) unanchoredLocked() (*rbany.Prepared, pattern.NodeID) {
	if pl.unanchDone {
		return pl.unanch, pl.anchor
	}
	pl.unanchDone = true
	pr := rbany.Prepare(pl.aux, pl.p)
	pl.anchor = pr.Anchor
	if pr.Rooted != nil {
		pl.unanch = pr
	}
	return pl.unanch, pl.anchor
}

// Selectivity returns the plan's full selectivity table, building it on
// first use. Unlike the per-run compile products this scans every query
// node's candidate list (one Sl-histogram probe per candidate), so it is
// intended for explicit planning diagnostics — the execute paths never
// build it implicitly. Safe for concurrent callers.
func (pl *Plan) Selectivity() *Selectivity {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.sel == nil {
		pl.sel = pl.buildSelectivityLocked()
	}
	return pl.sel
}

func (pl *Plan) buildSelectivityLocked() *Selectivity {
	g := pl.aux.Graph()
	nq := pl.p.NumNodes()
	sel := &Selectivity{
		CandCount: make([]int, nq),
		Mass:      make([]float64, nq),
		Sampled:   make([]bool, nq),
	}
	// The per-query-node scans are independent (the Semantics Potential
	// probe is documented concurrency-safe) and each writes only its own
	// u-indexed slots, so fan them across the worker pool; massEstimate's
	// stride sampling is deterministic, making the table independent of
	// scheduling. The closures never touch pl.mu, so running them under
	// the build lock is fine.
	exec.Run(nil, nq, exec.Capped(nq), func(u int) {
		l := pl.Labels()[u]
		if l == graph.NoLabel {
			return
		}
		cands := g.NodesWithLabel(l)
		sel.CandCount[u] = len(cands)
		sel.Mass[u], sel.Sampled[u] = massEstimate(g, &pl.sems[bounded.Simulation], cands, pattern.NodeID(u))
	})
	sel.Unanchored, sel.Anchor = pl.unanchoredLocked()
	return sel
}

// massEstimate sums the Potential mass over a candidate list, switching
// to sample-and-scale once the list exceeds
// SelectivitySampleThreshold. The expensive per-candidate work is the
// Potential probe (one Sl-histogram binary search per pattern neighbor
// of u); the sample replaces it with a deterministic stride sample
// plus one O(1) Degree read per candidate, combined as a ratio
// estimator:
//
//	mass ≈ Σ_all (d(v)+1) × [Σ_sample Potential / Σ_sample (d(v)+1)]
//
// Potential is bounded by (and strongly correlated with) degree, so
// scaling by the *degree* mass instead of the bare candidate count
// absorbs most of the heavy-tailed variance a power-law graph would
// otherwise inject — a plain count-scaled sample can miss or overweight
// the few high-degree candidates that carry most of the mass. Stride
// sampling keeps the estimate deterministic (no RNG on a compile
// path); the accuracy guard test pins the relative error against the
// exact scan.
func massEstimate(g *graph.Graph, sem potentialFn, cands []graph.NodeID, u pattern.NodeID) (float64, bool) {
	if len(cands) <= SelectivitySampleThreshold {
		var mass float64
		for _, v := range cands {
			mass += sem.Potential(v, u)
		}
		return mass, false
	}
	var degAll float64
	for _, v := range cands {
		degAll += float64(g.Degree(v)) + 1
	}
	stride := (len(cands) + SelectivitySampleSize - 1) / SelectivitySampleSize
	var mass, degSample float64
	for i := 0; i < len(cands); i += stride {
		mass += sem.Potential(cands[i], u)
		degSample += float64(g.Degree(cands[i])) + 1
	}
	return mass * degAll / degSample, true
}

// potentialFn is the one Semantics probe massEstimate needs; taking the
// narrow interface keeps the estimator testable against a reference.
type potentialFn interface {
	Potential(v graph.NodeID, u pattern.NodeID) float64
}
