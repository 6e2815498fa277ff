// Package subiso implements graph pattern matching by subgraph isomorphism,
// the second localized query class of Fan, Wang & Wu (SIGMOD 2014), with a
// VF2-style backtracking matcher (after Cordella et al., TPAMI 2004).
//
// Per Section 2 of the paper, a match of Q in G is a subgraph G' of G
// isomorphic to Q under a bijection h with h(u_p) = v_p (the personalized
// node is pinned), and the answer Q(G) is the set of h(u_o) over all
// matches. Because only the set of output-node images is needed, the search
// prunes entire subtrees once a candidate image of u_o is already known to
// be an answer, which keeps enumeration polynomially bounded in the common
// case while remaining exact.
//
// There is one matcher, MatchFragment, and it runs on a graph.FragCSR
// view with scratch reused across queries: RBSub runs it on the reduced
// fragment G_Q, MatchOpt — the paper's VF2OPT — on the label-closed
// d_Q-region of v_p (graph.RegionInto), the part of the ball G_{d_Q}(v_p)
// an embedding can occupy, and Match on the whole graph. Its state is
// dense: the injectivity check and the answer set are flat arrays indexed
// by position, and pattern labels arrive resolved to the data graph's
// interned LabelIDs (graph.InternLabels; the plan layer does it once per
// template), so the search loop does no hashing and no string comparison.
package subiso

import (
	"slices"
	"sync"

	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/pattern"
)

// Options tunes the matcher.
type Options struct {
	// MaxSteps caps the number of candidate-pair extensions the
	// backtracking search may attempt; 0 means unlimited. When the cap is
	// hit the matcher returns the answers found so far and complete=false.
	MaxSteps int64
	// Interrupt, when non-nil, is polled every interrupt.Stride extension
	// steps — piggybacking on the step counter MaxSteps already maintains
	// — and once closed the search stops like an exhausted step budget:
	// the answers found so far are returned with complete=false. The
	// facade passes a context's Done channel here.
	Interrupt <-chan struct{}
}

// stop reports whether the step budget or the cancellation probe ends
// the search after the stepsth extension.
func (o *Options) stop(steps int64) bool {
	if o == nil {
		return false
	}
	if o.MaxSteps > 0 && steps > o.MaxSteps {
		return true
	}
	return o.Interrupt != nil && steps&(interrupt.Stride-1) == 0 && interrupt.Fired(o.Interrupt)
}

// buildOrder produces a BFS ordering of query nodes starting at u_p so that
// every node after the first has at least one previously-assigned pattern
// neighbor (patterns are connected from u_p by construction).
func buildOrder(p *pattern.Pattern, order []pattern.NodeID, seen []bool) []pattern.NodeID {
	nq := p.NumNodes()
	order = order[:0]
	if cap(seen) < nq {
		seen = make([]bool, nq)
	}
	seen = seen[:nq]
	clear(seen)
	order = append(order, p.Personalized())
	seen[p.Personalized()] = true
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, w := range p.Out(u) {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
		for _, w := range p.In(u) {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	return order
}

// Match computes Q(g) under subgraph isomorphism with u_p pinned to vp.
// It returns the sorted set of images of the output node and whether the
// search ran to completion (false only if Options.MaxSteps was exhausted
// or Options.Interrupt fired). It is MatchFragment on the whole-graph
// view built from the node list 0..n-1, whose positions are node ids and
// whose adjacency segments are g's own sorted lists, so the search meets
// candidates in g's order.
func Match(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID, opts *Options) ([]graph.NodeID, bool) {
	labels := g.InternLabels(p.Labels(), nil)
	if g.LabelOf(vp) != labels[p.Personalized()] {
		return nil, true
	}
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	var csr graph.FragCSR
	g.CSRInto(all, &csr)
	return MatchFragment(&csr, p, labels, int32(vp), opts, new(Scratch))
}

// ballScratch pools the per-call state of MatchOpt: the CSR
// materialization of the d_Q-region and the matcher scratch that runs on
// it. The pool is package-level (MatchOpt takes a bare *graph.Graph).
type ballScratch struct {
	csr graph.FragCSR
	sc  Scratch
}

var ballPool sync.Pool

// MatchOpt is the optimized baseline of Section 6 (the paper's VF2OPT):
// search the ball G_{d_Q}(v_p) only, sound because isomorphic images of a
// connected pattern pinned at v_p lie within d_Q hops of v_p. It reads
// less than the ball: only the label-closed region R ⊆ N_{d_Q}(v_p), the
// nodes joined to v_p by a path of at most d_Q edges whose nodes all
// carry a label of Q (graph.RegionInto). Every image h(u) is joined to
// v_p by the image of a Q-path from u to u_p, whose nodes are images and
// so carry Q's labels: every embedding lives in G[R], with all its edges
// (G[R] is induced), so the answer is the ball's and pruning on degrees
// induced by R stays sound. labels are p's labels resolved to g's ids, as
// for MatchFragment. The region is materialized as a pooled FragCSR — no
// per-query subgraph construction — so the only steady-state allocation
// is the returned slice, in g's node ids, sorted.
//
// A run that opts.MaxSteps (or opts.Interrupt) cuts short returns, with
// complete=false, the answers it had confirmed: always a subset of the
// complete answer, but which subset depends on the order candidates are
// discovered in, that is, on the view searched — and the region is a
// smaller view than the ball or the whole graph. At every search node the
// region offers no more candidates than the ball does (adjacency lists
// only shrink, and a pair feasible on G[R] is feasible on the ball), so a
// capped search that is cut short on the ball may run to completion on
// the region; only the order-dependent output-set pruning keeps that from
// being a theorem. complete=true always means the full answer.
func MatchOpt(g *graph.Graph, p *pattern.Pattern, labels []graph.LabelID, vp graph.NodeID, opts *Options) ([]graph.NodeID, bool) {
	bs, _ := ballPool.Get().(*ballScratch)
	if bs == nil {
		bs = new(ballScratch)
	}
	defer ballPool.Put(bs)
	// The extraction BFS probes opts.Interrupt like the backtracker
	// does: giant regions on dense graphs are the expensive half of the
	// baseline, and the cancellation latency bound must cover them.
	var done <-chan struct{}
	if opts != nil {
		done = opts.Interrupt
	}
	if !g.RegionInto(vp, p.Diameter(), labels, &bs.csr, done) {
		return nil, false
	}
	return MatchFragment(&bs.csr, p, labels, bs.csr.PosOf(vp), opts, &bs.sc)
}

// Scratch holds the reusable state of MatchFragment. A zero Scratch is
// ready to use; it grows to the largest fragment/pattern it has seen and
// then stops allocating. Not safe for concurrent use.
type Scratch struct {
	order   []pattern.NodeID
	seen    []bool
	core    []int32
	used    []int32
	answers []bool
	ansList []int32
}

// MatchFragment computes Q(G_Q) under subgraph isomorphism on the
// materialized subgraph csr with u_p pinned to position pinPos, returning
// the images of the output node as parent-graph node ids (sorted) and
// whether the search completed. labels[u] is the parent graph's id of
// p's label of u (NoLabel when absent), as graph.InternLabels resolves
// them. Positions follow the node list the view was built from and
// adjacency segments are sorted, so the order candidate pairs are met in
// — and with it the partial answer of a MaxSteps-truncated run — depends
// only on that list; all transient state comes from sc, and the returned
// slice is the only allocation.
func MatchFragment(csr *graph.FragCSR, p *pattern.Pattern, labels []graph.LabelID, pinPos int32, opts *Options, sc *Scratch) ([]graph.NodeID, bool) {
	if csr.Labels[pinPos] != labels[p.Personalized()] {
		return nil, true
	}
	m := &matcher{csr: csr, p: p, labels: labels, opts: opts, sc: sc}
	m.run(pinPos)
	if len(sc.ansList) == 0 {
		return nil, !m.truncated
	}
	out := make([]graph.NodeID, len(sc.ansList))
	for i, pos := range sc.ansList {
		out[i] = csr.Orig[pos]
		sc.answers[pos] = false // leave the scratch clean for the next run
	}
	sc.ansList = sc.ansList[:0]
	slices.Sort(out)
	return out, !m.truncated
}

// matcher is the backtracking search over FragCSR positions.
type matcher struct {
	csr    *graph.FragCSR
	p      *pattern.Pattern
	labels []graph.LabelID // p's labels as the parent graph's ids
	opts   *Options
	sc     *Scratch

	steps     int64
	truncated bool
}

func (m *matcher) budgetOK() bool {
	m.steps++
	if m.opts.stop(m.steps) {
		m.truncated = true
		return false
	}
	return true
}

func (m *matcher) run(pinPos int32) {
	sc := m.sc
	nq := m.p.NumNodes()
	n := m.csr.NumNodes()
	sc.order = buildOrder(m.p, sc.order, sc.seen)
	if cap(sc.core) < nq {
		sc.core = make([]int32, nq)
	}
	sc.core = sc.core[:nq]
	for i := range sc.core {
		sc.core[i] = -1
	}
	// used and answers stay all-zero between runs: assign/unassign pair up
	// on every search path (truncated ones included), and MatchFragment
	// clears the answer bits it set.
	if cap(sc.used) < n {
		sc.used = make([]int32, n)
		sc.answers = make([]bool, n)
	}
	sc.used = sc.used[:n]
	sc.answers = sc.answers[:n]
	if !m.feasible(m.p.Personalized(), pinPos) {
		return
	}
	m.assign(m.p.Personalized(), pinPos)
	m.search(1)
	m.unassign(m.p.Personalized(), pinPos)
}

func (m *matcher) assign(u pattern.NodeID, v int32) {
	m.sc.core[u] = v
	m.sc.used[v] = int32(u) + 1
}

func (m *matcher) unassign(u pattern.NodeID, v int32) {
	m.sc.core[u] = -1
	m.sc.used[v] = 0
}

func (m *matcher) feasible(u pattern.NodeID, v int32) bool {
	if m.csr.Labels[v] != m.labels[u] {
		return false
	}
	if m.sc.used[v] != 0 {
		return false
	}
	if m.csr.OutDegree(v) < len(m.p.Out(u)) || m.csr.InDegree(v) < len(m.p.In(u)) {
		return false
	}
	for _, w := range m.p.Out(u) {
		img := m.sc.core[w]
		if w == u { // self-loop: u's image is v, not yet in core
			img = v
		}
		if img >= 0 && !m.csr.HasEdge(v, img) {
			return false
		}
	}
	for _, w := range m.p.In(u) {
		if img := m.sc.core[w]; img >= 0 && !m.csr.HasEdge(img, v) {
			return false
		}
	}
	return true
}

func (m *matcher) candidates(u pattern.NodeID) []int32 {
	var best []int32
	found := false
	consider := func(c []int32) {
		if !found || len(c) < len(best) {
			best, found = c, true
		}
	}
	for _, w := range m.p.In(u) {
		if img := m.sc.core[w]; img >= 0 {
			consider(m.csr.Out(img))
		}
	}
	for _, w := range m.p.Out(u) {
		if img := m.sc.core[w]; img >= 0 {
			consider(m.csr.In(img))
		}
	}
	// Every non-root query node has a previously-assigned pattern neighbor
	// (BFS order from u_p), and the root is assigned directly in run.
	return best
}

func (m *matcher) search(depth int) {
	sc := m.sc
	if depth == len(sc.order) {
		uo := sc.core[m.p.Output()]
		if !sc.answers[uo] {
			sc.answers[uo] = true
			sc.ansList = append(sc.ansList, uo)
		}
		return
	}
	u := sc.order[depth]
	for _, v := range m.candidates(u) {
		if !m.budgetOK() {
			return
		}
		if u == m.p.Output() && sc.answers[v] {
			continue
		}
		if !m.feasible(u, v) {
			continue
		}
		m.assign(u, v)
		m.search(depth + 1)
		m.unassign(u, v)
		if m.truncated {
			return
		}
	}
}
