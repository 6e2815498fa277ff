package rbq

// EXPLAIN: render what a Request would execute — the compiled plan's
// interned labels, each query node's candidate count, the anchor choice,
// the α·|G| budget and (in Unanchored mode) the predicted budget split —
// without running the evaluation. Every figure is one the evaluation
// itself reads. The CLI (`rbquery -explain`) prints this before the
// query and the trace's phase breakdown after it.

import (
	"fmt"
	"io"

	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/pattern"
	"rbq/internal/reduce"
)

// ExplainNode is one query node's row of the query-node table.
type ExplainNode struct {
	// Node is the query node id; Label its label text.
	Node  int
	Label string
	// LabelID is the graph's interned id of the label (-1 when the label
	// is absent from the graph, which empties the answer).
	LabelID int
	// Candidates is how many data nodes carry the label.
	Candidates int
	// Personalized marks the pattern's personalized node u_p; Anchor
	// marks the unanchored evaluation's chosen traversal root.
	Personalized bool
	Anchor       bool
}

// ExplainShare is one anchor candidate's predicted slice of the α·|G|
// budget, assuming every earlier anchor spends its whole share (the
// evaluation's rollover of unspent budget can only enlarge later
// shares).
type ExplainShare struct {
	V     NodeID
	Pot   float64
	Share int
}

// Explain describes what executing a Request would do.
type Explain struct {
	// Pattern is the pattern's canonical text (the plan-cache key).
	Pattern string
	// Semantics/Mode echo the request.
	Semantics Semantics
	Mode      Mode
	// GraphSize is |G| = nodes + edges; Budget is ⌊α·|G|⌋ (zero in
	// Exact mode).
	GraphSize int
	Alpha     float64
	Budget    int
	// CacheHit reports whether the compiled plan came from the plan
	// cache (the probe this Explain performed counts in PlanCacheStats).
	CacheHit bool
	// Nodes is the per-query-node table.
	Nodes []ExplainNode
	// Personalized is the pin the evaluation would run from (explicit
	// Request.Anchor or the unique match of the personalized label);
	// NoNode when the request is Unanchored or no unique match exists.
	Personalized NodeID
	// AnchorNode is the query node unanchored evaluation re-roots at
	// (-1 for anchored requests).
	AnchorNode int
	// Shares is the predicted Unanchored budget split, in evaluation
	// order, truncated to MaxExplainShares rows; nil for anchored
	// requests or when the pattern cannot be anchored.
	Shares []ExplainShare
	// ShareTotal is how many anchor candidates pass the guard — the
	// Unanchored Result's Candidates. Shares covers a prefix of them: at
	// most MaxExplainShares, and only those the budget reaches.
	ShareTotal int
}

// MaxExplainShares bounds the predicted-split rows Explain computes: a
// common label can have thousands of guard-passing anchors, and the
// table is for human consumption.
const MaxExplainShares = 8

// Explain compiles q (through the plan cache, like Query) and reports
// what executing req would do — candidate counts, anchor choice, budget,
// predicted split — without running the evaluation. It refuses a pinned
// Anchor that Query would refuse, with the same error. In Unanchored
// mode the split guard-ranks every anchor candidate, as the evaluation
// does, so Explain is a diagnostic call, not a hot-path one.
func (db *DB) Explain(q *Pattern, req Request) (*Explain, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	snap := db.snapshot()
	aux := snap.Aux()
	pl, hit, err := db.plans.lookup(aux, q)
	if err != nil {
		return nil, err
	}
	if req.Anchor != nil {
		if err := checkPin(pl, aux, *req.Anchor); err != nil {
			return nil, err
		}
	}
	g := aux.Graph()
	ex := &Explain{
		Pattern:      q.String(),
		Semantics:    req.Semantics,
		Mode:         req.Mode,
		GraphSize:    g.Size(),
		Alpha:        req.Alpha,
		CacheHit:     hit,
		Personalized: NoNode,
		AnchorNode:   -1,
	}
	if req.Mode != Exact {
		ex.Budget = reduce.Budget(req.Alpha, g.Size())
	}
	for u, l := range pl.Labels() {
		n := ExplainNode{
			Node:         u,
			Label:        q.Label(pattern.NodeID(u)),
			LabelID:      -1,
			Personalized: pattern.NodeID(u) == q.Personalized(),
		}
		if l != graph.NoLabel {
			n.LabelID = int(l)
			n.Candidates = len(g.NodesWithLabel(l))
		}
		ex.Nodes = append(ex.Nodes, n)
	}
	if req.Mode == Unanchored {
		anchor, pr := pl.Anchor(aux)
		ex.AnchorNode = int(anchor)
		if ex.AnchorNode >= 0 && ex.AnchorNode < len(ex.Nodes) {
			ex.Nodes[ex.AnchorNode].Anchor = true
		}
		if pr != nil {
			shares, passed := pr.PredictShares(aux, pl.Compiled(bounded.Class(req.Semantics)), req.Alpha, MaxExplainShares)
			for _, s := range shares {
				ex.Shares = append(ex.Shares, ExplainShare{V: s.V, Pot: s.Pot, Share: s.Share})
			}
			ex.ShareTotal = passed
		}
	} else if req.Anchor != nil {
		ex.Personalized = *req.Anchor
	} else if vp, ok := pl.Personalized(aux); ok {
		ex.Personalized = vp
	}
	return ex, nil
}

// WriteText renders the explanation as the CLI prints it.
func (e *Explain) WriteText(w io.Writer) {
	fmt.Fprintf(w, "pattern: %s\n", e.Pattern)
	fmt.Fprintf(w, "semantics: %s  mode: %s\n", semanticsName(e.Semantics), modeName(e.Mode))
	if e.Mode == Exact {
		fmt.Fprintf(w, "budget: unbounded (exact)\n")
	} else {
		fmt.Fprintf(w, "budget: alpha=%g x |G|=%d -> %d items\n", e.Alpha, e.GraphSize, e.Budget)
	}
	fmt.Fprintf(w, "plan cache: %s\n", hitName(e.CacheHit))
	fmt.Fprintf(w, "query nodes:\n")
	fmt.Fprintf(w, "  %-4s %-12s %-8s %10s %s\n", "node", "label", "labelid", "candidates", "flags")
	for _, n := range e.Nodes {
		flags := ""
		if n.Personalized {
			flags += " personalized"
		}
		if n.Anchor {
			flags += " anchor"
		}
		if n.LabelID < 0 {
			flags += " absent"
		}
		fmt.Fprintf(w, "  %-4d %-12s %-8d %10d%s\n", n.Node, n.Label, n.LabelID, n.Candidates, flags)
	}
	if e.Mode == Unanchored {
		if e.ShareTotal == 0 {
			fmt.Fprintf(w, "anchors: none pass the guard; answer is empty\n")
			return
		}
		fmt.Fprintf(w, "anchors: %d pass the guard\n", e.ShareTotal)
		if len(e.Shares) == 0 {
			fmt.Fprintf(w, "predicted split: the budget reaches none\n")
			return
		}
		fmt.Fprintf(w, "predicted split:\n")
		fmt.Fprintf(w, "  %-10s %14s %10s\n", "anchor", "potential", "share")
		for _, s := range e.Shares {
			fmt.Fprintf(w, "  %-10d %14.1f %10d\n", s.V, s.Pot, s.Share)
		}
		if e.ShareTotal > len(e.Shares) {
			fmt.Fprintf(w, "  ... %d more\n", e.ShareTotal-len(e.Shares))
		}
	} else if e.Personalized != NoNode {
		fmt.Fprintf(w, "personalized pin: node %d\n", e.Personalized)
	} else {
		fmt.Fprintf(w, "personalized pin: unresolved (no unique match)\n")
	}
}

func semanticsName(s Semantics) string {
	if s == Subgraph {
		return "subgraph"
	}
	return "simulation"
}

func modeName(m Mode) string {
	switch m {
	case Exact:
		return "exact"
	case Unanchored:
		return "unanchored"
	}
	return "bounded"
}

func hitName(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
