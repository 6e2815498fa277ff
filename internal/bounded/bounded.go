// Package bounded implements the resource-bounded algorithms of Fan, Wang
// & Wu (SIGMOD 2014) for both localized query classes: RBSim for strong
// simulation (Section 4.1) and RBSub for subgraph isomorphism
// (Section 4.2).
//
// Given a pattern Q, a graph G (with its offline auxiliary structure) and
// a resource ratio α, both extract a fragment G_Q of G with |G_Q| ≤ α|G|
// by the dynamic reduction of package reduce, then compute Q(G_Q) exactly
// and return it as the approximate answer to Q(G). Theorem 3 bounds the
// data access by d_G·α|G| and the time by O(d_G·|Q|·|G_Q|). The paper
// defines RBSub as RBSim's reduction with a stronger guarded condition,
// and that is how this package is built: one Semantics whose Guard reads
// per-class requirements precomputed by Compile, and one Run, which
// branches on the class only to pick the matcher — dual simulation or
// VF2 — for the fragment.
//
// Run borrows its entire working state — a Runner: the binding of its
// Compiled to the snapshot's Aux, reduction scratch, reusable fragment,
// CSR materialization and both matchers' arrays — from the Aux's scratch
// pool (graph.ScratchBounded), so steady-state queries allocate only
// their result slice. Besides the fragment's membership bitset, nothing
// in a Runner is sized by |V|: the fragment records its induced edges as
// the reduction finds them and materializes G_Q from that log.
package bounded

import (
	"rbq/internal/graph"
	"rbq/internal/obs"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
	"rbq/internal/subiso"
)

// Class is a localized query class: the matching semantics a Semantics
// guards for and Run matches under.
type Class int

const (
	// Simulation is strong simulation (RBSim, MatchOpt).
	Simulation Class = iota
	// Subgraph is subgraph isomorphism (RBSub, VF2Opt).
	Subgraph
)

// Compiled is the guarded condition C(v,u) and the potential p(v,u) of
// one query class, compiled against a pattern and a label alphabet: every
// pattern label resolved to its interned LabelID, and each query node's
// neighbour labels grouped once, so the per-candidate probes walk a short
// precomputed list of int32s. It reads no snapshot — label ids only ever
// grow by appending, so a Compiled stays valid for every snapshot whose
// alphabet has the size it was compiled at — and is immutable after
// Compile, so one value serves concurrent runs. On binds it to the Aux a
// run reads.
type Compiled struct {
	class  Class
	labels []graph.LabelID // labels[u] = graph id of P's label of u, NoLabel if absent
	reqs   []nodeReq       // reqs[u]: what C(v,u) asks of v
	needs  []labelNeed     // backing array of every reqs[u].out and .in
}

// Semantics is a Compiled bound to one snapshot's Aux: the instantiation
// of the dynamic reduction the Guard and Potential probes evaluate
// against the offline Sl histograms. Binding copies slice headers only,
// so a run binds one into its pooled scratch without allocating.
type Semantics struct {
	Compiled
	aux *graph.Aux
	// hists caches the base histogram arrays when aux carries no overlay,
	// so the probes below compile to the inlined slice-and-search; a
	// patched Aux routes through the overlay-aware accessors instead.
	hists *graph.Hists // nil for patched Aux views
}

// labelNeed is one distinct neighbour label of a query node u in one
// direction: mult pattern neighbours of u carry label l, and a candidate
// v needs at least need data neighbours with it — 1 under simulation,
// mult under isomorphism, where every pattern neighbour needs its own
// image.
type labelNeed struct {
	l          graph.LabelID
	need, mult int32
}

// nodeReq is C(v,u) precomputed for one query node u.
type nodeReq struct {
	out, in []labelNeed
	// minOut and minIn are u's out- and in-degree under isomorphism (every
	// pattern edge needs its own data edge) and 0 under simulation.
	minOut, minIn int
	// absent is set when some neighbour of u carries a label the graph
	// does not have: no v can then satisfy C(v,u).
	absent bool
	// mask is the presence-mask bits of every label in out and in: a v
	// whose graph.Aux.LabelMask lacks one of them lacks that label.
	mask uint32
	// decided is set when the mask test is all of C(v,u) beyond labels
	// and absent: every label owns its mask bit in the alphabet (see
	// graph.OwnsMaskBit) and every need is 1. The degree bounds then hold
	// too, since distinct labels need distinct neighbours.
	decided bool
}

// NewSemantics compiles p under class c against aux's alphabet and binds
// the result to aux: the one-shot form tests and reference callers use.
func NewSemantics(aux *graph.Aux, p *pattern.Pattern, c Class) *Semantics {
	sem := Compile(aux.Graph(), p, c).On(aux)
	return &sem
}

// Compile compiles p under class c against g's label alphabet.
func Compile(g *graph.Graph, p *pattern.Pattern, c Class) *Compiled {
	s := &Compiled{}
	s.Bind(p, g.InternLabels(p.Labels(), nil), g.NumLabels(), c)
	return s
}

// Bind re-points s at p under class c, reusing its buffers. labels are
// p's labels interned against an alphabet of numLabels labels (see
// graph.InternLabels); s keeps the slice. A Compiled bound to p serves
// any re-rooting of p too: re-rooting keeps the labels and the edges,
// which are all Bind reads.
func (s *Compiled) Bind(p *pattern.Pattern, labels []graph.LabelID, numLabels int, c Class) {
	s.class, s.labels = c, labels
	nq := p.NumNodes()
	if cap(s.reqs) < nq {
		s.reqs = make([]nodeReq, nq)
	}
	s.reqs = s.reqs[:nq]
	// Every pattern edge adds at most one entry at each end, so the
	// backing array never moves once it has this capacity.
	if maxNeeds := 2 * p.NumEdges(); cap(s.needs) < maxNeeds {
		s.needs = make([]labelNeed, 0, maxNeeds)
	}
	s.needs = s.needs[:0]
	for u := range s.reqs {
		r := &s.reqs[u]
		*r = nodeReq{}
		out, in := p.Out(pattern.NodeID(u)), p.In(pattern.NodeID(u))
		r.out = s.group(out, &r.absent)
		r.in = s.group(in, &r.absent)
		if c == Subgraph {
			r.minOut, r.minIn = len(out), len(in)
		}
		r.decided = true
		for _, n := range r.out {
			r.mask |= graph.OutMaskBit(n.l)
			r.decided = r.decided && graph.OwnsMaskBit(n.l, numLabels) && n.need == 1
		}
		for _, n := range r.in {
			r.mask |= graph.InMaskBit(n.l)
			r.decided = r.decided && graph.OwnsMaskBit(n.l, numLabels) && n.need == 1
		}
	}
}

// On binds s to aux, the Aux of the snapshot a run reads. aux's alphabet
// must have the size s was compiled at.
func (s *Compiled) On(aux *graph.Aux) Semantics {
	return Semantics{Compiled: *s, aux: aux, hists: aux.BaseHists()}
}

// group appends one labelNeed per distinct label among the pattern nodes
// ws to s.needs and returns them, flagging a label absent from the graph.
func (s *Compiled) group(ws []pattern.NodeID, absent *bool) []labelNeed {
	start := len(s.needs)
	for _, w := range ws {
		l := s.labels[w]
		if l == graph.NoLabel {
			*absent = true
			continue
		}
		i := start
		for i < len(s.needs) && s.needs[i].l != l {
			i++
		}
		if i == len(s.needs) {
			s.needs = append(s.needs, labelNeed{l: l})
		}
		s.needs[i].mult++
	}
	grouped := s.needs[start:len(s.needs):len(s.needs)]
	for i := range grouped {
		grouped[i].need = 1
		if s.class == Subgraph {
			grouped[i].need = grouped[i].mult
		}
	}
	return grouped
}

// labelMask is v's presence mask, from the cached base array or through
// the overlay-aware accessor.
func (s *Semantics) labelMask(v graph.NodeID) uint32 {
	if s.hists != nil {
		return s.hists.Mask[v]
	}
	return s.aux.LabelMask(v)
}

// outCount / inCount are the Sl probes of Guard and Potential: the
// inlined fast path against the cached base arrays, or the overlay-aware
// accessor for patched Aux views.
func (s *Semantics) outCount(v graph.NodeID, l graph.LabelID) int32 {
	if s.hists != nil {
		return s.hists.OutCount(v, l)
	}
	return s.aux.OutLabelCount(v, l)
}

func (s *Semantics) inCount(v graph.NodeID, l graph.LabelID) int32 {
	if s.hists != nil {
		return s.hists.InCount(v, l)
	}
	return s.aux.InLabelCount(v, l)
}

// Labels returns the pattern's labels resolved to the graph's interned
// ids (labels[u] = id of p's label of u, NoLabel if absent). The slice is
// owned by the Compiled; reduce.SearchInto reads it so the engine shares
// the one resolution instead of re-interning per run.
func (s *Compiled) Labels() []graph.LabelID { return s.labels }

// Guard implements C(v,u). Under simulation: labels agree, and every
// pattern child (resp. parent) label of u occurs among v's children
// (resp. parents). Under isomorphism, the revised condition of
// Section 4.2: per direction, for each label l carried by k pattern
// neighbours of u, v has at least k data neighbours labelled l
// (distinctness), and v's degree can accommodate u's.
//
// v's presence mask is tested first: one word rules out most candidates,
// and for most patterns it decides the rest (see nodeReq.decided); only
// the others go on to the histogram probes.
func (s *Semantics) Guard(v graph.NodeID, u pattern.NodeID) bool {
	return s.aux.Graph().LabelOf(v) == s.labels[u] && s.GuardLabeled(v, u)
}

// GuardLabeled is Guard for a v the caller knows carries u's label — a
// node of the label's own candidate list, as rbany ranks — so v's label
// is not read again. For a v of another label its answer is unspecified.
func (s *Semantics) GuardLabeled(v graph.NodeID, u pattern.NodeID) bool {
	r := &s.reqs[u]
	if r.absent || s.labelMask(v)&r.mask != r.mask {
		return false
	}
	if r.decided {
		return true
	}
	g := s.aux.Graph()
	if r.minOut > 0 && g.OutDegree(v) < r.minOut || r.minIn > 0 && g.InDegree(v) < r.minIn {
		return false
	}
	for _, n := range r.out {
		if s.outCount(v, n.l) < n.need {
			return false
		}
	}
	for _, n := range r.in {
		if s.inCount(v, n.l) < n.need {
			return false
		}
	}
	return true
}

// Potential implements p(v,u): the number of neighbours of v that are
// label-candidates for some pattern neighbour of u, counted per direction
// and per pattern neighbour from the Sl histograms. It is the same for
// both classes.
func (s *Semantics) Potential(v graph.NodeID, u pattern.NodeID) float64 {
	r := &s.reqs[u]
	total := 0
	for _, n := range r.out {
		total += int(n.mult) * int(s.outCount(v, n.l))
	}
	for _, n := range r.in {
		total += int(n.mult) * int(s.inCount(v, n.l))
	}
	return float64(total)
}

// Result carries the bounded answer and the reduction telemetry.
type Result struct {
	// Matches is Q(G_Q): the approximate answer, in g's node ids, sorted.
	Matches []graph.NodeID
	// Stats reports the reduction run.
	Stats reduce.Stats
	// Complete is false only under isomorphism, when the matcher hit
	// mopts.MaxSteps or mopts.Interrupt.
	Complete bool
}

// Runner is one borrowed bounded scratch: the binding of a Compiled to
// a snapshot's Aux, reduction scratch, reusable fragment, CSR
// materialization and both matchers' arrays. A value serves either
// class; each matcher's arrays grow only once that class has run on it.
// Borrow takes one from the Aux's pool (graph.ScratchBounded) and Release
// puts it back, so a caller evaluating many pins on one snapshot — the
// anchors of an unanchored request — borrows once. A Runner is owned by
// one goroutine between Borrow and Release.
type Runner struct {
	aux  *graph.Aux
	sem  Semantics // the run's binding of its Compiled to aux
	red  reduce.Scratch
	frag *graph.Fragment
	csr  graph.FragCSR
	sim  simulation.Scratch
	sub  subiso.Scratch
}

// Run executes the bounded algorithm of c's class: the dynamic
// reduction, then the exact matcher on the fragment. opts.Alpha or
// opts.Budget must be set; other options default per the paper (b=2,
// visit budget d_G·α|G|).
// c must be compiled for p — or for a re-rooting of p — once per pattern
// by the plan layer, so the per-query work is binding it to aux in the
// pooled scratch, the reduction and the matcher. mopts tunes the
// isomorphism matcher (nil = no step cap, no interrupt); simulation
// ignores it.
func Run(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, c *Compiled, opts reduce.Options, mopts *subiso.Options) Result {
	r := Borrow(aux, c)
	defer r.Release()
	return r.Run(p, vp, opts, mopts)
}

// Borrow takes a Runner from aux's pool and binds c to aux in it.
func Borrow(aux *graph.Aux, c *Compiled) *Runner {
	r, _ := aux.ScratchPool(graph.ScratchBounded).Get().(*Runner)
	if r == nil {
		r = &Runner{frag: graph.NewFragment(aux.Graph())}
	} else {
		// The scratch last served some other snapshot of the lineage.
		r.frag.Rebind(aux.Graph())
	}
	r.aux = aux
	r.sem = c.On(aux)
	return r
}

// Release returns r to its Aux's pool holding no reference to the
// snapshot it served: the pools outlive every snapshot of their lineage,
// and an idle scratch must not keep a replaced graph (after a
// compaction, the whole old base) reachable.
func (r *Runner) Release() {
	aux := r.aux
	r.aux, r.sem = nil, Semantics{}
	r.frag.Release()
	aux.ScratchPool(graph.ScratchBounded).Put(r)
}

// Semantics returns the Compiled r was borrowed for, bound to its
// snapshot.
func (r *Runner) Semantics() *Semantics { return &r.sem }

// Run is the package-level Run on r's snapshot and Compiled.
func (r *Runner) Run(p *pattern.Pattern, vp graph.NodeID, opts reduce.Options, mopts *subiso.Options) Result {
	stats := reduce.SearchInto(r.aux, p, vp, &r.sem, opts, r.frag, &r.red)
	res := Result{Stats: stats, Complete: true}
	// The matcher runs only when G_Q can hold a match: v_p is in it, and
	// so is some node of every pattern label. Otherwise the answer is
	// empty under both classes — a dual simulation with an empty row is
	// empty, and an isomorphism has no image for that node — and the
	// fragment is not materialized.
	ext := opts.Obs.Child(obs.PhaseExtract)
	pinPos := r.frag.PosOf(vp)
	viable := pinPos >= 0 && r.holdsEveryLabel()
	if viable {
		r.frag.CSRInto(&r.csr)
	}
	ext.Add("fragment_nodes", int64(stats.FragmentNodes))
	ext.Add("fragment_edges", int64(stats.FragmentEdges))
	ext.End()
	if pinPos < 0 {
		return res
	}
	m := opts.Obs.Child(obs.PhaseMatch)
	switch {
	case !viable:
	case r.sem.class == Subgraph:
		res.Matches, res.Complete = subiso.MatchFragment(&r.csr, p, r.sem.labels, pinPos, mopts, &r.sub)
	default:
		res.Matches, _, _ = simulation.MatchFragment(&r.csr, p, r.sem.labels, pinPos, &r.sim, nil)
	}
	m.Add("matches", int64(len(res.Matches)))
	if !res.Complete {
		m.Add("incomplete", 1)
	}
	m.End()
	return res
}

// holdsEveryLabel reports whether the fragment has a node of every
// pattern label.
func (r *Runner) holdsEveryLabel() bool {
	for _, l := range r.sem.labels {
		if len(r.frag.NodesLabeled(l)) == 0 {
			return false
		}
	}
	return true
}

// Exact runs the exact baseline of c's class on aux's graph from vp,
// with no resource bound: MatchOpt under simulation, VF2Opt under
// isomorphism, each on the label-closed d_Q-region of vp. done cancels
// either (nil = uncancellable); maxSteps caps the isomorphism search (0 =
// no cap) and simulation ignores it. A cancelled or step-capped run
// returns complete=false.
func Exact(aux *graph.Aux, c *Compiled, p *pattern.Pattern, vp graph.NodeID, done <-chan struct{}, maxSteps int64) ([]graph.NodeID, bool) {
	g := aux.Graph()
	if c.class == Subgraph {
		return subiso.MatchOpt(g, p, c.labels, vp, &subiso.Options{MaxSteps: maxSteps, Interrupt: done})
	}
	return simulation.MatchOpt(g, p, c.labels, vp, done)
}
