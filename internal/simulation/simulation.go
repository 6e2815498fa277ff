// Package simulation implements graph pattern matching by (strong)
// simulation, the first localized query class of Fan, Wang & Wu
// (SIGMOD 2014), following the semantics of Section 2 (after Ma et al.,
// "Capturing topology in graph pattern matching", PVLDB 2011).
//
// The building block is the maximum dual simulation relation: v matches u
// only if their labels agree, every child of u has a matching child of v,
// and every parent of u has a matching parent of v. Strong simulation
// additionally restricts matching to the d_Q-neighborhood ball of a center
// node, where d_Q is the pattern diameter; the personalized variant of the
// paper fixes the match of u_p to the unique node v_p.
//
// Candidate sets are dense bitsets over the evaluated (sub)graph — which
// is tiny by construction, at most α|G| for fragments and the part of a
// d_Q-ball that carries the pattern's labels for the baseline — so
// refinement probes are single word tests and the final relation
// enumerates in ascending order without sorting.
//
// Every subgraph this package evaluates — the reduced fragment G_Q of
// RBSim, the d_Q-region of the exact baseline, StrongSim's d_Q-balls and
// the whole graph alike — is a pooled graph.FragCSR view of the data
// graph, and one fixpoint (refine) computes the relation on all of them.
// The entry points mirror the paper's experimental setup:
//
//   - MatchFragment: maximum pinned dual simulation on a materialized
//     FragCSR with all transient state drawn from a reusable Scratch —
//     what RBSim runs on the reduced fragment G_Q;
//   - MatchOpt: the optimized baseline of Section 6, "evaluate on
//     G_{d_Q}(v_p) only", which reads just the label-closed region of
//     that ball (graph.RegionInto, into a pooled CSR) — same answer, see
//     MatchOpt;
//   - StrongSim: the literal ball-per-center semantics of Section 2, used
//     for cross-validation on small graphs; its balls are full balls
//     (graph.BallInto), because a center need not carry a pattern label;
//   - MatchInGraph / DualSimulation: the relation on the whole-graph
//     view, for tests and reference comparisons.
package simulation

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"rbq/internal/exec"
	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/pattern"
)

// Relation is a simulation relation: Relation[u] is the sorted set of data
// nodes matching query node u.
type Relation [][]graph.NodeID

// Matches returns the sorted matches of query node u.
func (r Relation) Matches(u pattern.NodeID) []graph.NodeID {
	if r == nil {
		return nil
	}
	return r[u]
}

// setBit, hasBit: dense bitset primitives over node ids.
func setBit(s []uint64, v int32)      { s[v>>6] |= 1 << (uint(v) & 63) }
func clearBit(s []uint64, v int32)    { s[v>>6] &^= 1 << (uint(v) & 63) }
func hasBit(s []uint64, v int32) bool { return s[v>>6]&(1<<(uint(v)&63)) != 0 }

// Scratch holds the reusable state of MatchFragment. A zero Scratch is
// ready to use; it grows to the largest fragment/pattern it has seen and
// then stops allocating. Not safe for concurrent use.
type Scratch struct {
	backing []uint64
	sim     [][]uint64
	size    []int32
	dirty   []bool
	queue   []pattern.NodeID
	drop    []int32
}

// MatchFragment computes the answer Q(G_Q) by maximum dual simulation with
// u_p pinned to position pinPos of the materialized subgraph csr, returning
// the matches of the output node as parent-graph node ids, sorted.
// labels[u] is the parent graph's id of p's label of u (NoLabel when the
// graph has no such label), as graph.InternLabels resolves them — the
// plan layer does that once per template, so nothing here hashes a
// string. It runs on the pooled CSR with all transient state drawn from
// sc; the returned slice is the only allocation.
//
// done is a cooperative cancellation probe threaded through the fixpoint
// refinement — the one potentially long-running loop (the candidate sets
// shrink monotonically, but a dense region can still force many rounds
// over thousands of candidates). The probe polls done every
// interrupt.Stride examined candidates, mirroring the reduce engine's
// contract: a fired channel abandons the fixpoint within about one stride
// of work and returns complete=false with a nil answer. visited reports
// the number of candidates examined, so tests can pin the promptness
// bound; an open or nil channel never changes the computation.
func MatchFragment(csr *graph.FragCSR, p *pattern.Pattern, labels []graph.LabelID, pinPos int32, sc *Scratch, done <-chan struct{}) (out []graph.NodeID, complete bool, visited int) {
	nonEmpty, complete, visited := refine(csr, p, labels, pinPos, sc, done)
	if !nonEmpty {
		return nil, complete, visited
	}
	uo := p.Output()
	out = make([]graph.NodeID, 0, sc.size[uo])
	for wi, word := range sc.sim[uo] {
		for word != 0 {
			pos := int32(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			out = append(out, csr.Orig[pos])
		}
	}
	slices.Sort(out)
	return out, true, visited
}

// refine computes the maximum dual simulation of p on csr with u_p pinned
// to pinPos into sc.sim (row u is the bitset of positions matching u,
// sc.size[u] its population). nonEmpty is false when some row drains —
// dual simulation is all-or-nothing, so the relation is then empty — or
// when done fires, which complete=false tells apart.
func refine(csr *graph.FragCSR, p *pattern.Pattern, labels []graph.LabelID, pinPos int32, sc *Scratch, done <-chan struct{}) (nonEmpty, complete bool, visited int) {
	nq := p.NumNodes()
	n := csr.NumNodes()
	words := (n + 63) / 64

	if cap(sc.sim) < nq {
		sc.sim = make([][]uint64, nq)
		sc.size = make([]int32, nq)
		sc.dirty = make([]bool, nq)
	}
	sc.sim = sc.sim[:nq]
	sc.size = sc.size[:nq]
	sc.dirty = sc.dirty[:nq]
	if cap(sc.backing) < nq*words {
		sc.backing = make([]uint64, nq*words)
	}
	sc.backing = sc.backing[:nq*words]
	clear(sc.backing)

	// Candidate sets by parent label id (a NoLabel constraint matches no
	// position, so its set is empty); the pinned node is fixed to pinPos
	// (Section 2: (u_p, v_p) is in every match relation).
	up := p.Personalized()
	for u := 0; u < nq; u++ {
		sc.sim[u] = sc.backing[u*words : (u+1)*words]
		sc.size[u] = 0
		if pattern.NodeID(u) == up {
			if csr.Labels[pinPos] == labels[u] {
				setBit(sc.sim[u], pinPos)
				sc.size[u] = 1
			}
		} else {
			for i := int32(0); i < int32(n); i++ {
				if csr.Labels[i] == labels[u] {
					setBit(sc.sim[u], i)
					sc.size[u]++
				}
			}
		}
		if sc.size[u] == 0 {
			return false, true, visited
		}
	}

	// Fixpoint refinement with a dirty-set worklist: removing matches of u
	// can invalidate matches of u's pattern neighbors only.
	sc.queue = sc.queue[:0]
	for u := 0; u < nq; u++ {
		sc.dirty[u] = true
		sc.queue = append(sc.queue, pattern.NodeID(u))
	}
	anyIn := func(cands []int32, set []uint64) bool {
		for _, v := range cands {
			if hasBit(set, v) {
				return true
			}
		}
		return false
	}
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		sc.dirty[u] = false
		sc.drop = sc.drop[:0]
		for wi, word := range sc.sim[u] {
			for word != 0 {
				v := int32(wi<<6 + bits.TrailingZeros64(word))
				word &= word - 1
				// The cancellation probe piggybacks on the candidate
				// counter the loop already advances, exactly like the
				// reduce engine's visited-item probe.
				visited++
				if visited&(interrupt.Stride-1) == 0 && interrupt.Fired(done) {
					return false, false, visited
				}
				ok := true
				for _, uc := range p.Out(u) {
					if !anyIn(csr.Out(v), sc.sim[uc]) {
						ok = false
						break
					}
				}
				if ok {
					for _, upar := range p.In(u) {
						if !anyIn(csr.In(v), sc.sim[upar]) {
							ok = false
							break
						}
					}
				}
				if !ok {
					sc.drop = append(sc.drop, v)
				}
			}
		}
		if len(sc.drop) == 0 {
			continue
		}
		for _, v := range sc.drop {
			clearBit(sc.sim[u], v)
		}
		sc.size[u] -= int32(len(sc.drop))
		if sc.size[u] <= 0 {
			return false, true, visited
		}
		for _, w := range p.Out(u) {
			if !sc.dirty[w] {
				sc.dirty[w] = true
				sc.queue = append(sc.queue, w)
			}
		}
		for _, w := range p.In(u) {
			if !sc.dirty[w] {
				sc.dirty[w] = true
				sc.queue = append(sc.queue, w)
			}
		}
	}
	return true, true, visited
}

// PersonalizedMatch finds v_p, the unique data node whose label equals
// f_v(u_p). It returns (node, true) when exactly one such node exists; the
// paper's personalized search setting guarantees uniqueness (Section 2).
func PersonalizedMatch(g *graph.Graph, p *pattern.Pattern) (graph.NodeID, bool) {
	l := g.LabelIDOf(p.Label(p.Personalized()))
	if l == graph.NoLabel {
		return graph.NoNode, false
	}
	nodes := g.NodesWithLabel(l)
	if len(nodes) != 1 {
		return graph.NoNode, false
	}
	return nodes[0], true
}

// DualSimulation computes the maximum dual simulation relation of p in g
// with u_p pinned to vp. It returns the relation and true when every
// query node retains at least one match; otherwise nil and false (dual
// simulation is all-or-nothing: the maximum relation is empty as soon as
// any query node's candidate set drains). It is MatchFragment's fixpoint
// on the whole-graph view built from the node list 0..n-1, read out row
// by row.
func DualSimulation(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) (Relation, bool) {
	bs, _ := ballPool.Get().(*ballScratch)
	if bs == nil {
		bs = new(ballScratch)
	}
	defer ballPool.Put(bs)
	bs.nodes = bs.nodes[:0]
	for v := range g.NumNodes() {
		bs.nodes = append(bs.nodes, graph.NodeID(v))
	}
	g.CSRInto(bs.nodes, &bs.csr)
	labels := g.InternLabels(p.Labels(), nil)
	if nonEmpty, _, _ := refine(&bs.csr, p, labels, int32(vp), &bs.sc, nil); !nonEmpty {
		return nil, false
	}
	nq := p.NumNodes()
	total := 0
	for u := 0; u < nq; u++ {
		total += int(bs.sc.size[u])
	}
	rel := make(Relation, nq)
	arena := make([]graph.NodeID, 0, total) // one backing array for all rows
	for u := 0; u < nq; u++ {
		start := len(arena)
		for wi, word := range bs.sc.sim[u] {
			for word != 0 {
				arena = append(arena, graph.NodeID(wi<<6+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		rel[u] = arena[start:len(arena):len(arena)] // positions are ids: bit order is ascending id order
	}
	return rel, true
}

// MatchInGraph computes the answer Q(g) on the whole graph g by maximum
// dual simulation with u_p pinned to vp, returning the sorted matches of
// the output node u_o.
func MatchInGraph(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) []graph.NodeID {
	rel, ok := DualSimulation(g, p, vp)
	if !ok {
		return nil
	}
	return rel.Matches(p.Output())
}

// ballScratch pools the per-call state of the exact baselines and
// DualSimulation: the CSR materialization of the current region, ball or
// whole graph, the matcher scratch that runs on it, and a node list
// (StrongSim's centers, DualSimulation's 0..n-1). The pool is
// package-level (the entry points take a bare *graph.Graph); values grow
// to the largest view they have seen and then stop allocating.
type ballScratch struct {
	csr   graph.FragCSR
	sc    Scratch
	nodes []graph.NodeID
}

var ballPool sync.Pool

// MatchOpt is the optimized exact baseline of Section 6: the pinned
// simulation evaluated on the d_Q-neighborhood ball G_{d_Q}(v_p) only,
// which is sound because every match of every query node lies within d_Q
// hops of v_p (data locality of simulation queries, Section 2). It reads
// less than the ball: only the label-closed region R ⊆ N_{d_Q}(v_p), the
// nodes joined to v_p by a path of at most d_Q edges whose nodes all
// carry a label of Q (graph.RegionInto). The answer is the same. Every
// pair (u, v) of the ball's maximum relation is joined to (u_p, v_p) by
// the image of a shortest Q-path from u to u_p — dual simulation hands
// each step a related neighbour, and u_p relates to v_p alone — and all
// nodes of that image are in the relation, so they carry Q's labels and
// lie in R. The ball's relation is thus a dual simulation on G[R], and
// one on G[R] is one on the ball (R ⊆ ball, both induced); maximality
// makes the two equal. labels are p's labels resolved to g's ids, as for
// MatchFragment.
//
// The region is materialized as a pooled FragCSR — no per-query subgraph
// construction — so the only steady-state allocation is the returned
// slice, in g's node ids, sorted.
//
// done threads cooperative cancellation probes through both the
// extraction BFS (graph.RegionInto) and the region-local fixpoint
// (MatchFragment): a fired channel abandons the evaluation within about
// one interrupt.Stride of work — extracted nodes or examined candidates,
// whichever loop is running — and returns complete=false (the request
// layer then surfaces ctx.Err() and discards the partial state). A nil or
// open channel never changes the answer.
func MatchOpt(g *graph.Graph, p *pattern.Pattern, labels []graph.LabelID, vp graph.NodeID, done <-chan struct{}) ([]graph.NodeID, bool) {
	bs, _ := ballPool.Get().(*ballScratch)
	if bs == nil {
		bs = new(ballScratch)
	}
	defer ballPool.Put(bs)
	// Both halves probe: the extraction BFS (giant regions are the
	// expensive half on dense graphs) and the fixpoint refinement.
	if !g.RegionInto(vp, p.Diameter(), labels, &bs.csr, done) {
		return nil, false
	}
	m, complete, _ := MatchFragment(&bs.csr, p, labels, bs.csr.PosOf(vp), &bs.sc, done)
	return m, complete
}

// MatchOptMany fans the MatchOpt baseline across many candidate centers:
// out[i] is the answer anchored at vps[i], computed on at most `workers`
// concurrent goroutines (≤ 1 runs inline, identical to a serial loop of
// MatchOpt calls). Each worker draws its own ballScratch
// from the package pool, so the per-ball state never crosses goroutines;
// slot-indexed output keeps the result independent of scheduling. When
// done fires mid-fan, ok is false and the out slots of abandoned runs
// are nil — callers discard the batch, exactly as the single-center form.
func MatchOptMany(g *graph.Graph, p *pattern.Pattern, labels []graph.LabelID, vps []graph.NodeID, workers int, done <-chan struct{}) (out [][]graph.NodeID, ok bool) {
	out = make([][]graph.NodeID, len(vps))
	var canceled atomic.Bool
	exec.Run(done, len(vps), workers, func(i int) {
		m, complete := MatchOpt(g, p, labels, vps[i], done)
		if !complete {
			canceled.Store(true)
			return
		}
		out[i] = m
	})
	return out, !canceled.Load() && !interrupt.Fired(done)
}

// StrongSim implements the literal Section 2 semantics: the match relation
// is the union of the maximum dual simulations R_{v0} computed inside every
// ball G_{d_Q}(v0) that can satisfy the pin (u_p, v_p) — i.e. balls whose
// center lies within d_Q hops of v_p. Each ball is a pooled FragCSR view
// of g (one CSR is reused across all centers). Intended for small graphs
// and cross-validation; MatchOpt is the practical baseline.
func StrongSim(g *graph.Graph, p *pattern.Pattern, vp graph.NodeID) []graph.NodeID {
	bs, _ := ballPool.Get().(*ballScratch)
	if bs == nil {
		bs = new(ballScratch)
	}
	defer ballPool.Put(bs)

	// The candidate centers are exactly the nodes of the d_Q-ball of v_p,
	// in BFS discovery order; copy them out since bs.csr is reused for the
	// per-center balls.
	dQ := p.Diameter()
	labels := g.InternLabels(p.Labels(), nil)
	g.BallInto(vp, dQ, &bs.csr, nil)
	bs.nodes = append(bs.nodes[:0], bs.csr.Orig...)

	out := []graph.NodeID{} // non-nil even when empty, as callers expect
	// The first center is v_p itself, whose ball is already materialized.
	m, _, _ := MatchFragment(&bs.csr, p, labels, bs.csr.PosOf(vp), &bs.sc, nil)
	out = append(out, m...)
	for _, v0 := range bs.nodes[1:] {
		g.BallInto(v0, dQ, &bs.csr, nil)
		bvp := bs.csr.PosOf(vp)
		if bvp < 0 {
			continue
		}
		m, _, _ = MatchFragment(&bs.csr, p, labels, bvp, &bs.sc, nil)
		out = append(out, m...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
