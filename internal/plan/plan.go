// Package plan is the prepared-query layer: the compile/execute split
// under every pattern engine.
//
// Production pattern workloads evaluate a handful of pattern templates
// millions of times, against different pins and — on a mutable DB —
// different snapshots. What a template compiles to depends on the pattern
// and the graph's label alphabet alone, as the paper's offline structure
// is built once for all queries: the resolution of its label constraints
// to interned ids, the per-class requirement lists the dynamic reduction
// guards by (one bounded.Compiled per query class), its diameter, and —
// for unanchored evaluation — its re-rootings. A Plan computes those
// once. Its execute methods take the Aux of the snapshot a request pinned
// and run the engines (bounded.Run / bounded.Exact / rbany.Prepared) on it
// with the compiled form of the class they are asked for; what reads the
// snapshot is resolved per run over the compiled ids: the unique
// personalized match (one NodesWithLabel) and the unanchored anchor
// (rbany.PickAnchor).
//
// Label ids only ever grow by appending within a DB's lineage, so a Plan
// is exact for every snapshot whose alphabet has as many labels as the
// one it was compiled at (see NumLabels); once the alphabet grows, a
// label the pattern names may have appeared, and the caller recompiles.
//
// The selectivity table's Potential-mass scan costs one histogram probe
// per candidate of every query node, so it is built only by an explicit
// Selectivity call, never implicitly on an execute path.
//
// A Plan is immutable after New (a re-rooting built on first use is
// published atomically), so one Plan may serve concurrent evaluations
// against any snapshot of its alphabet: the engines' transient state
// comes from the Aux's scratch pools.
package plan

import (
	"fmt"
	"sync/atomic"

	"rbq/internal/bounded"
	"rbq/internal/exec"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/rbany"
	"rbq/internal/reduce"
	"rbq/internal/subiso"
)

// Plan is a pattern compiled against a graph's label alphabet. Construct
// with New, or recycle one with Bind. The zero Plan is unusable until
// bound.
type Plan struct {
	p         *pattern.Pattern
	numLabels int                 // alphabet size labels were interned at
	labels    []graph.LabelID     // labels[u] = id of p's label of u, NoLabel if absent
	sems      [2]bounded.Compiled // indexed by bounded.Class

	// rooted[u] is p re-rooted at query node u, built by the first
	// unanchored run anchored there: which node is the anchor depends on
	// the snapshot, the re-rooting does not.
	rooted []atomic.Pointer[rbany.Prepared]
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

// Selectivity is the selectivity table of a pattern on one snapshot: how
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
	// Unanchored is the pattern re-rooted at Anchor. Nil when some query
	// label is absent or the pattern is not connected from the anchor;
	// every unanchored evaluation is then empty.
	Unanchored *rbany.Prepared
}

// New compiles p against aux's label alphabet. The plan keeps no
// reference to aux: execute it against the Aux of any snapshot whose
// alphabet has NumLabels labels.
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

// Bind re-points pl at p compiled against aux's label alphabet, reusing
// its buffers. Callers must not Bind a Plan that other goroutines may
// still be executing.
func (pl *Plan) Bind(aux *graph.Aux, p *pattern.Pattern) {
	g := aux.Graph()
	pl.p, pl.numLabels = p, g.NumLabels()
	pl.labels = g.InternLabels(p.Labels(), pl.labels)
	for c := range pl.sems {
		pl.sems[c].Bind(p, pl.labels, pl.numLabels, bounded.Class(c))
	}
	pl.rooted = make([]atomic.Pointer[rbany.Prepared], p.NumNodes())
}

// Pattern returns the compiled pattern.
func (pl *Plan) Pattern() *pattern.Pattern { return pl.p }

// NumLabels returns the size of the label alphabet the plan was compiled
// at. The plan is exact for a snapshot whose graph has as many labels.
func (pl *Plan) NumLabels() int { return pl.numLabels }

// Labels returns the pattern's label constraints resolved to the graph's
// interned ids. The slice is owned by the plan; do not modify.
func (pl *Plan) Labels() []graph.LabelID { return pl.labels }

// Diameter returns the pattern's cached diameter d_Q.
func (pl *Plan) Diameter() int { return pl.p.Diameter() }

// Compiled returns the compiled semantics of class c (shared; bind it to
// a snapshot's Aux with On).
func (pl *Plan) Compiled(c bounded.Class) *bounded.Compiled { return &pl.sems[c] }

// Personalized returns the unique match, in aux's snapshot, of the
// pattern's personalized node; ok is false when the personalized label is
// absent or ambiguous there (pin explicitly, or run unanchored). It is
// resolved per call — one label-index lookup — because an added node can
// make a unique match ambiguous.
func (pl *Plan) Personalized(aux *graph.Aux) (graph.NodeID, bool) {
	nodes := aux.Graph().NodesWithLabel(pl.labels[pl.p.Personalized()])
	if len(nodes) != 1 {
		return graph.NoNode, false
	}
	return nodes[0], true
}

// CheckPin validates an explicit personalized pin against aux's graph and
// the pattern's label constraint.
func (pl *Plan) CheckPin(aux *graph.Aux, vp graph.NodeID) error {
	g := aux.Graph()
	if int(vp) < 0 || int(vp) >= g.NumNodes() {
		return fmt.Errorf("pinned node %d out of range", vp)
	}
	if g.LabelOf(vp) != pl.labels[pl.p.Personalized()] {
		return fmt.Errorf("pinned node %d has label %q, pattern expects %q",
			vp, g.Label(vp), pl.p.Label(pl.p.Personalized()))
	}
	return nil
}

// Bounded runs the resource-bounded algorithm of class c — RBSim or
// RBSub — on aux's snapshot from the pinned personalized match vp. mopts
// tunes the isomorphism matcher (nil = no step cap, no interrupt).
func (pl *Plan) Bounded(aux *graph.Aux, c bounded.Class, vp graph.NodeID, opts reduce.Options, mopts *subiso.Options) bounded.Result {
	return bounded.Run(aux, pl.p, vp, &pl.sems[c], opts, mopts)
}

// Exact runs the exact baseline of class c — MatchOpt or VF2Opt — on
// aux's snapshot from vp, on the label-closed d_Q-region the compiled
// labels span. done is the cooperative cancellation channel (nil =
// uncancellable); when it fires the partial answer is abandoned with
// complete=false — the request layer reports ctx.Err() instead. maxSteps
// caps the isomorphism search (0 = no cap).
func (pl *Plan) Exact(aux *graph.Aux, c bounded.Class, vp graph.NodeID, done <-chan struct{}, maxSteps int64) ([]graph.NodeID, bool) {
	return bounded.Exact(aux, &pl.sems[c], pl.p, vp, done, maxSteps)
}

// Unanchored evaluates the pattern on aux's snapshot under class c with
// no designated personalized match: the anchor is the query node whose
// compiled label is rarest in the snapshot, and the pattern re-rooted
// there is built once per anchor and reused. The budget split weighs each
// anchor candidate's Potential mass, computed during the run's guard pass
// over the anchor's candidates only — the full per-query-node
// selectivity table (see Selectivity) is not needed here.
func (pl *Plan) Unanchored(aux *graph.Aux, c bounded.Class, opts rbany.Options, mopts *subiso.Options) rbany.Result {
	anchor, cands := rbany.PickAnchor(aux.Graph(), pl.labels)
	if len(cands) == 0 {
		return rbany.Result{Anchor: anchor}
	}
	return pl.rootedAt(anchor).Run(aux, &pl.sems[c], opts, mopts)
}

// rootedAt returns the pattern re-rooted at u, building it on first use.
func (pl *Plan) rootedAt(u pattern.NodeID) *rbany.Prepared {
	slot := &pl.rooted[u]
	if pr := slot.Load(); pr != nil {
		return pr
	}
	slot.CompareAndSwap(nil, rbany.Prepare(pl.p, u))
	return slot.Load()
}

// Selectivity builds the plan's full selectivity table on aux's
// snapshot. Unlike the per-run products this scans every query node's
// candidate list (one Sl-histogram probe per candidate), so it is
// intended for explicit planning diagnostics — the execute paths never
// build it. The table reads the snapshot, so it is built per call.
func (pl *Plan) Selectivity(aux *graph.Aux) *Selectivity {
	g := aux.Graph()
	nq := pl.p.NumNodes()
	sel := &Selectivity{
		CandCount: make([]int, nq),
		Mass:      make([]float64, nq),
		Sampled:   make([]bool, nq),
	}
	sem := pl.sems[bounded.Simulation].On(aux)
	// The per-query-node scans are independent (the Semantics Potential
	// probe is documented concurrency-safe) and each writes only its own
	// u-indexed slots, so fan them across the worker pool; massEstimate's
	// stride sampling is deterministic, making the table independent of
	// scheduling.
	exec.Run(nil, nq, exec.Capped(nq), func(u int) {
		l := pl.labels[u]
		if l == graph.NoLabel {
			return
		}
		cands := g.NodesWithLabel(l)
		sel.CandCount[u] = len(cands)
		sel.Mass[u], sel.Sampled[u] = massEstimate(g, &sem, cands, pattern.NodeID(u))
	})
	var cands []graph.NodeID
	sel.Anchor, cands = rbany.PickAnchor(g, pl.labels)
	if len(cands) > 0 {
		if pr := pl.rootedAt(sel.Anchor); pr.Rooted != nil {
			sel.Unanchored = pr
		}
	}
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
