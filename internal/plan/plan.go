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
// A Plan is immutable after New (a re-rooting built on first use is
// published atomically), so one Plan may serve concurrent evaluations
// against any snapshot of its alphabet: the engines' transient state
// comes from the Aux's scratch pools.
package plan

import (
	"fmt"
	"sync/atomic"

	"rbq/internal/bounded"
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
// no designated personalized match, from the anchor Anchor picks. The
// budget split weighs each anchor candidate's Potential mass, computed
// during the run's guard pass over the anchor's candidates.
func (pl *Plan) Unanchored(aux *graph.Aux, c bounded.Class, opts rbany.Options, mopts *subiso.Options) rbany.Result {
	anchor, pr := pl.Anchor(aux)
	if pr == nil {
		return rbany.Result{Anchor: anchor}
	}
	return pr.Run(aux, &pl.sems[c], opts, mopts)
}

// Anchor returns the query node unanchored evaluation roots at in aux's
// snapshot — the one whose compiled label has the fewest candidates,
// ties to the lowest id (rbany.PickAnchor) — and the pattern re-rooted
// there, built once per anchor and reused. The re-rooting is nil when
// the anchor has no candidate: some query label is absent, and every
// unanchored evaluation is empty.
func (pl *Plan) Anchor(aux *graph.Aux) (pattern.NodeID, *rbany.Prepared) {
	anchor, cands := rbany.PickAnchor(aux.Graph(), pl.labels)
	if len(cands) == 0 {
		return anchor, nil
	}
	slot := &pl.rooted[anchor]
	if slot.Load() == nil {
		slot.CompareAndSwap(nil, rbany.Prepare(pl.p, anchor))
	}
	return anchor, slot.Load()
}
