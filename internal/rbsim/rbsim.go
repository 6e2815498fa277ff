// Package rbsim implements RBSim, the resource-bounded algorithm for
// simulation queries of Section 4.1 of Fan, Wang & Wu (SIGMOD 2014).
//
// Given a pattern Q, a graph G (with its offline auxiliary structure) and
// a resource ratio α, RBSim extracts a fragment G_Q of G with
// |G_Q| ≤ α|G| by the dynamic reduction of package reduce, then computes
// Q(G_Q) exactly with the strong-simulation matcher and returns it as the
// approximate answer to Q(G). Theorem 3 bounds its data access by
// d_G·α|G| and its time by O(d_G·|Q|·|G_Q|), and guarantees 100% accuracy
// once α ≥ 2((l·f)^d − 1)/((l·f−1)|G|).
//
// Run borrows its entire working state — reduction scratch, reusable
// fragment, CSR materialization and simulation bitsets — from the Aux's
// scratch pool (graph.ScratchSim), so steady-state queries allocate only
// their result slice.
package rbsim

import (
	"rbq/internal/graph"
	"rbq/internal/obs"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
)

// Semantics is the strong-simulation instantiation of the dynamic
// reduction: the guarded condition and potential of Section 4.1, both
// evaluated against the offline Sl histograms only. Construct with
// NewSemantics (or Bind a pooled value): construction resolves every
// pattern label to the graph's interned LabelID once, so the
// per-candidate Guard and Potential probes compare int32s instead of
// hashing label strings.
type Semantics struct {
	aux    *graph.Aux
	p      *pattern.Pattern
	labels []graph.LabelID // labels[u] = graph id of P's label of u, NoLabel if absent

	// hists caches the base histogram arrays when aux carries no
	// overlay (base reports which), so the per-candidate probes below
	// compile to the inlined slice-and-search they always were; a
	// patched Aux routes through the overlay-aware accessors instead.
	hists *graph.Hists // nil for patched Aux views
}

// NewSemantics resolves p's labels against aux's graph and returns the
// reduction semantics for the pair.
func NewSemantics(aux *graph.Aux, p *pattern.Pattern) *Semantics {
	s := &Semantics{}
	s.Bind(aux, p)
	return s
}

// Bind re-points s at (aux, p), reusing the resolved-label buffer; the
// plan layer binds one per prepared pattern.
func (s *Semantics) Bind(aux *graph.Aux, p *pattern.Pattern) {
	s.aux, s.p = aux, p
	s.labels = aux.Graph().InternLabels(p.Labels(), s.labels)
	s.hists = aux.BaseHists()
}

// outCount / inCount are the Sl probes of Guard and Potential: the
// inlined fast path against the cached base arrays, or the
// overlay-aware accessor for patched Aux views.
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
// owned by the Semantics; reduce.SearchInto reads it so the engine shares
// the one resolution instead of re-interning per run.
func (s *Semantics) Labels() []graph.LabelID { return s.labels }

// Guard implements C(v,u): labels agree, and every pattern parent (resp.
// child) label of u occurs among v's parents (resp. children).
func (s *Semantics) Guard(v graph.NodeID, u pattern.NodeID) bool {
	if s.aux.Graph().LabelOf(v) != s.labels[u] {
		return false
	}
	for _, uc := range s.p.Out(u) {
		l := s.labels[uc]
		if l == graph.NoLabel || s.outCount(v, l) == 0 {
			return false
		}
	}
	for _, ua := range s.p.In(u) {
		l := s.labels[ua]
		if l == graph.NoLabel || s.inCount(v, l) == 0 {
			return false
		}
	}
	return true
}

// Potential implements p(v,u): the number of neighbors of v that are
// label-candidates for some pattern neighbor of u, counted per direction
// from the Sl histograms.
func (s *Semantics) Potential(v graph.NodeID, u pattern.NodeID) float64 {
	total := 0
	for _, uc := range s.p.Out(u) {
		if l := s.labels[uc]; l != graph.NoLabel {
			total += int(s.outCount(v, l))
		}
	}
	for _, ua := range s.p.In(u) {
		if l := s.labels[ua]; l != graph.NoLabel {
			total += int(s.inCount(v, l))
		}
	}
	return float64(total)
}

// Result carries RBSim's answer and the reduction telemetry.
type Result struct {
	// Matches is Q(G_Q): the approximate answer, in g's node ids, sorted.
	Matches []graph.NodeID
	// Stats reports the reduction run.
	Stats reduce.Stats
}

// scratch is the pooled per-query state of Run.
type scratch struct {
	red  reduce.Scratch
	frag *graph.Fragment
	csr  graph.FragCSR
	sim  simulation.Scratch
}

// Run executes RBSim: dynamic reduction followed by exact strong
// simulation on the fragment. opts.Alpha must be set; other options
// default per the paper (b=2, visit budget d_G·α|G|). sem must be a
// Semantics bound to (aux, p) — or to a re-rooting of p, which shares its
// labels — compiled once per pattern by the plan layer, so the per-query
// work is the reduction and the matcher alone.
func Run(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem *Semantics, opts reduce.Options) Result {
	sc := borrow(aux)
	defer release(aux, sc)
	return run(aux, p, vp, sem, opts, sc)
}

func borrow(aux *graph.Aux) *scratch {
	sc, _ := aux.ScratchPool(graph.ScratchSim).Get().(*scratch)
	if sc == nil {
		return &scratch{frag: graph.NewFragment(aux.Graph())}
	}
	// The scratch last served some other snapshot of the lineage.
	sc.frag.Rebind(aux.Graph())
	return sc
}

// release returns sc to the pool holding no reference to the snapshot it
// served: the pools outlive every snapshot of their lineage, and an idle
// scratch must not keep a replaced graph (after a compaction, the whole
// old base) reachable.
func release(aux *graph.Aux, sc *scratch) {
	sc.frag.Release()
	aux.ScratchPool(graph.ScratchSim).Put(sc)
}

func run(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem *Semantics, opts reduce.Options, sc *scratch) Result {
	stats := reduce.SearchInto(aux, p, vp, sem, opts, sc.frag, &sc.red)
	res := Result{Stats: stats}
	ext := opts.Obs.Child(obs.PhaseExtract)
	sc.frag.CSRInto(&sc.csr)
	ext.Add("fragment_nodes", int64(stats.FragmentNodes))
	ext.Add("fragment_edges", int64(stats.FragmentEdges))
	ext.End()
	pinPos := sc.csr.PosOf(vp)
	if pinPos < 0 {
		return res
	}
	m := opts.Obs.Child(obs.PhaseMatch)
	res.Matches, _, _ = simulation.MatchFragment(&sc.csr, p, sem.Labels(), pinPos, &sc.sim, nil)
	m.Add("matches", int64(len(res.Matches)))
	m.End()
	return res
}
