// Package rbsub implements RBSub, the resource-bounded algorithm for
// subgraph (isomorphism) queries of Section 4.2 of Fan, Wang & Wu
// (SIGMOD 2014).
//
// RBSub reuses the dynamic reduction engine of RBSim with two changes
// (Section 4.2): the guarded condition is strengthened for isomorphism —
// for every pattern neighbor u' of u there must be enough *distinct*
// label-compatible neighbors of v, each with sufficient degree — and the
// candidate ranking favors higher-degree, lower-cost nodes (the engine's
// degree tie-break). The extracted fragment is then searched exactly with
// the VF2-style matcher.
//
// Run borrows its entire working state — reduction scratch, reusable
// fragment, CSR materialization and matcher arrays — from the Aux's
// scratch pool (graph.ScratchSub), so steady-state queries allocate only
// their result slice.
package rbsub

import (
	"rbq/internal/graph"
	"rbq/internal/obs"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
	"rbq/internal/subiso"
)

// Semantics is the subgraph-isomorphism instantiation of the dynamic
// reduction. Construct with NewSemantics (or Bind a pooled value):
// construction resolves every pattern label to the graph's interned
// LabelID once, so the per-candidate Guard and Potential probes compare
// int32s instead of hashing label strings.
type Semantics struct {
	aux    *graph.Aux
	p      *pattern.Pattern
	labels []graph.LabelID // labels[u] = graph id of P's label of u, NoLabel if absent

	// hists caches the base histogram arrays when aux carries no
	// overlay (base reports which); see rbsim.Semantics for the
	// rationale — these probes are the innermost loop of the reduction.
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

// outCount / inCount: inlined base-array probes, with the
// overlay-aware accessor as the patched-view fallback.
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

// Guard implements the revised C(v,u) of Section 4.2. Beyond label
// equality it requires, per direction, that for each label l carried by k
// pattern neighbors of u there are at least k data neighbors of v with
// label l (distinctness), and that v's own degree can accommodate u's
// (every pattern edge needs its own data edge under isomorphism).
func (s *Semantics) Guard(v graph.NodeID, u pattern.NodeID) bool {
	g := s.aux.Graph()
	if g.LabelOf(v) != s.labels[u] {
		return false
	}
	if g.OutDegree(v) < len(s.p.Out(u)) || g.InDegree(v) < len(s.p.In(u)) {
		return false
	}
	if !s.enoughDistinct(v, s.p.Out(u), true) {
		return false
	}
	return s.enoughDistinct(v, s.p.In(u), false)
}

// enoughDistinct checks the per-label multiplicity requirement in one
// direction: for each label l carried by k pattern neighbors, v must have
// at least k l-labeled data neighbors. Pattern neighbor lists are tiny, so
// the k for each label is recounted in place rather than built in a map.
func (s *Semantics) enoughDistinct(v graph.NodeID, patNeigh []pattern.NodeID, out bool) bool {
	for i, u := range patNeigh {
		l := s.labels[u]
		if l == graph.NoLabel {
			return false
		}
		// Count this label's multiplicity once, at its first occurrence.
		first := true
		for _, w := range patNeigh[:i] {
			if s.labels[w] == l {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		var need int32
		for _, w := range patNeigh[i:] {
			if s.labels[w] == l {
				need++
			}
		}
		var have int32
		if out {
			have = s.outCount(v, l)
		} else {
			have = s.inCount(v, l)
		}
		if have < need {
			return false
		}
	}
	return true
}

// Potential mirrors RBSim's p(v,u) under the revised guard: neighbors of v
// that are label-candidates for u's pattern neighbors.
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

// Result carries RBSub's answer and the reduction telemetry.
type Result struct {
	// Matches is Q(G_Q) under subgraph isomorphism, in g's node ids.
	Matches []graph.NodeID
	// Stats reports the reduction run.
	Stats reduce.Stats
	// Complete is false if the exact matcher hit MatchOpts.MaxSteps.
	Complete bool
}

// MatchOpts tunes the exact matching phase on the fragment.
type MatchOpts = subiso.Options

// scratch is the pooled per-query state of Run.
type scratch struct {
	red  reduce.Scratch
	frag *graph.Fragment
	csr  graph.FragCSR
	sub  subiso.Scratch
}

// Run executes RBSub: dynamic reduction with the isomorphism semantics,
// then exact VF2 search on the fragment. sem must be a Semantics bound to
// (aux, p) — or to a re-rooting of p, which shares its labels — compiled
// once per pattern by the plan layer, so the per-query work is the
// reduction and the matcher alone.
func Run(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem *Semantics, opts reduce.Options, mopts *MatchOpts) Result {
	sc := borrow(aux)
	defer release(aux, sc)
	return run(aux, p, vp, sem, opts, mopts, sc)
}

func borrow(aux *graph.Aux) *scratch {
	sc, _ := aux.ScratchPool(graph.ScratchSub).Get().(*scratch)
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
	aux.ScratchPool(graph.ScratchSub).Put(sc)
}

func run(aux *graph.Aux, p *pattern.Pattern, vp graph.NodeID, sem *Semantics, opts reduce.Options, mopts *MatchOpts, sc *scratch) Result {
	stats := reduce.SearchInto(aux, p, vp, sem, opts, sc.frag, &sc.red)
	res := Result{Stats: stats, Complete: true}
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
	res.Matches, res.Complete = subiso.MatchFragment(&sc.csr, p, sem.Labels(), pinPos, mopts, &sc.sub)
	m.Add("matches", int64(len(res.Matches)))
	if !res.Complete {
		m.Add("incomplete", 1)
	}
	m.End()
	return res
}
