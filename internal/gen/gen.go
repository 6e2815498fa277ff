// Package gen generates the synthetic workloads of Section 6 of Fan, Wang
// & Wu (SIGMOD 2014): labeled data graphs (uniform random and power-law),
// graph-pattern queries with a personalized node guaranteed to match, and
// reachability query sets.
//
// Everything is seeded and deterministic so experiments are reproducible.
package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// DefaultAlphabet mirrors the paper's synthetic setting: a set Σ of 15
// labels.
var DefaultAlphabet = func() []string {
	labels := make([]string, 15)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%02d", i)
	}
	return labels
}()

// GraphConfig controls synthetic data graphs.
type GraphConfig struct {
	// Nodes is |V|; Edges is |E| (the paper's synthetic sweep uses
	// |E| = 2|V|).
	Nodes, Edges int
	// Labels is the alphabet; nil means DefaultAlphabet.
	Labels []string
	// Seed drives the generator.
	Seed int64
	// PowerLaw switches from uniform endpoints to a preferential-
	// attachment-style degree distribution (heavy-tailed, like the
	// paper's real-life graphs).
	PowerLaw bool
}

// Random generates a labeled digraph per cfg. Labels are assigned
// uniformly. Duplicate edges are coalesced by the builder, so the exact
// edge count can land slightly under cfg.Edges on dense configs.
func Random(cfg GraphConfig) *graph.Graph {
	labels := cfg.Labels
	if labels == nil {
		labels = DefaultAlphabet
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder(cfg.Nodes, cfg.Edges)
	for i := 0; i < cfg.Nodes; i++ {
		b.AddNode(labels[rng.Intn(len(labels))])
	}
	if cfg.Nodes == 0 {
		return b.Build()
	}
	if cfg.PowerLaw {
		addPowerLawEdges(b, rng, cfg.Nodes, cfg.Edges)
	} else {
		for i := 0; i < cfg.Edges; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(cfg.Nodes)), graph.NodeID(rng.Intn(cfg.Nodes)))
		}
	}
	return b.Build()
}

// addPowerLawEdges grows a heavy-tailed digraph: targets are drawn from a
// repeated-endpoint pool (preferential attachment à la Bollobás et al.),
// sources mostly uniformly, with occasional hub-to-hub edges.
func addPowerLawEdges(b *graph.Builder, rng *rand.Rand, n, m int) {
	// pool holds node ids with multiplicity growing with their degree;
	// drawing from it implements preferential attachment. A small uniform
	// mixing probability keeps every node reachable by the generator.
	pool := make([]graph.NodeID, 0, 3*m)
	pick := func() graph.NodeID {
		if len(pool) == 0 || rng.Float64() < 0.15 {
			return graph.NodeID(rng.Intn(n))
		}
		return pool[rng.Intn(len(pool))]
	}
	for i := 0; i < m; i++ {
		from := graph.NodeID(rng.Intn(n))
		if rng.Intn(4) == 0 {
			from = pick() // occasional hub-to-hub edge
		}
		to := pick()
		b.AddEdge(from, to)
		// Weight targets double so in-degree tails dominate, as in the
		// citation-flavored graphs the paper evaluates on.
		pool = append(pool, to, to, from)
	}
}

// PatternConfig controls pattern-query extraction.
type PatternConfig struct {
	// Nodes is |V_p| and Edges is |E_p|; the paper writes |Q| = (4, 8)
	// for a 4-node, 8-edge pattern.
	Nodes, Edges int
	// Seed drives the extraction.
	Seed int64
}

// PatternAt extracts a (cfg.Nodes, cfg.Edges)-shaped pattern anchored at
// the given seed node, without relabeling: the pattern copies real
// structure around seed, so pinning u_p to seed is guaranteed to match.
// Callers that need the personalized node to have a unique label (the
// paper's setting for PersonalizedMatch lookups) should use
// PatternFromGraph instead. Returns nil if the component around seed is
// too small or a connected pattern cannot be assembled.
func PatternAt(g *graph.Graph, seed graph.NodeID, cfg PatternConfig) *pattern.Pattern {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for try := 0; try < 16; try++ {
		nodes, edges := sampleConnected(g, rng, seed, cfg.Nodes)
		if len(nodes) < cfg.Nodes {
			return nil
		}
		if len(edges) > cfg.Edges {
			edges = edges[:cfg.Edges]
		}
		if len(edges) < cfg.Nodes-1 {
			continue
		}
		pb := pattern.NewBuilder()
		idOf := make(map[graph.NodeID]pattern.NodeID, len(nodes))
		for _, v := range nodes {
			idOf[v] = pb.AddNode(g.Label(v))
		}
		for _, e := range edges {
			pb.AddEdge(idOf[e[0]], idOf[e[1]])
		}
		pb.SetPersonalized(idOf[seed])
		pb.SetOutput(idOf[nodes[len(nodes)-1]])
		if p, err := pb.Build(); err == nil {
			return p
		}
	}
	return nil
}

// PatternFromGraph extracts a pattern of the requested shape from g,
// guaranteeing a match: it samples a connected subgraph around a seed node
// by random undirected expansion, relabels the seed with a fresh unique
// label (installed into a copy of g), and returns the pattern, the
// modified graph, and the personalized match v_p.
//
// Making the seed's label unique mirrors the paper's setting where the
// personalized node u_p has a unique match in G (the query issuer).
func PatternFromGraph(g *graph.Graph, cfg PatternConfig) (*pattern.Pattern, *graph.Graph, graph.NodeID, error) {
	if cfg.Nodes < 1 {
		return nil, nil, graph.NoNode, fmt.Errorf("gen: pattern needs at least 1 node")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const attempts = 64
	for try := 0; try < attempts; try++ {
		seed := graph.NodeID(rng.Intn(g.NumNodes()))
		nodes, edges := sampleConnected(g, rng, seed, cfg.Nodes)
		if len(nodes) < cfg.Nodes {
			continue // seed's component too small; resample
		}
		// edges lists the spanning edges first, so truncating to the
		// requested |E_p| keeps the pattern connected.
		if len(edges) > cfg.Edges {
			edges = edges[:cfg.Edges]
		}
		if len(edges) < cfg.Nodes-1 {
			continue
		}
		// Install a unique label for the seed in a copy of the graph.
		g2, _ := relabel(g, seed)
		pb := pattern.NewBuilder()
		idOf := make(map[graph.NodeID]pattern.NodeID, len(nodes))
		for _, v := range nodes {
			idOf[v] = pb.AddNode(g2.Label(v))
		}
		for _, e := range edges {
			pb.AddEdge(idOf[e[0]], idOf[e[1]])
		}
		pb.SetPersonalized(idOf[seed])
		// Output node: the sampled node farthest from the seed.
		pb.SetOutput(idOf[nodes[len(nodes)-1]])
		p, err := pb.Build()
		if err != nil {
			continue
		}
		return p, g2, seed, nil
	}
	return nil, nil, graph.NoNode, fmt.Errorf("gen: could not extract a (%d,%d) pattern", cfg.Nodes, cfg.Edges)
}

// sampleConnected grows a connected node set of the requested size around
// seed by random undirected expansion. It returns the nodes and the
// induced edges, with a spanning set of edges (one per added node, in its
// real orientation) listed first so callers can truncate safely. Pattern
// edges mirror real data edges, so the pattern is guaranteed to match at
// the seed.
func sampleConnected(g *graph.Graph, rng *rand.Rand, seed graph.NodeID, want int) ([]graph.NodeID, [][2]graph.NodeID) {
	inSet := map[graph.NodeID]bool{seed: true}
	nodes := []graph.NodeID{seed}
	frontier := []graph.NodeID{seed}
	var spanning [][2]graph.NodeID
	for len(nodes) < want && len(frontier) > 0 {
		// Pick a random frontier node and a random unseen neighbor.
		fi := rng.Intn(len(frontier))
		v := frontier[fi]
		var cands [][2]graph.NodeID // edge in real orientation
		for _, w := range byID(g.Out(v)) {
			if !inSet[w] {
				cands = append(cands, [2]graph.NodeID{v, w})
			}
		}
		for _, w := range byID(g.In(v)) {
			if !inSet[w] {
				cands = append(cands, [2]graph.NodeID{w, v})
			}
		}
		if len(cands) == 0 {
			frontier[fi] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			continue
		}
		e := cands[rng.Intn(len(cands))]
		w := e[0]
		if w == v {
			w = e[1]
		}
		inSet[w] = true
		nodes = append(nodes, w)
		frontier = append(frontier, w)
		spanning = append(spanning, e)
	}
	seen := make(map[[2]graph.NodeID]bool, len(spanning))
	edges := append([][2]graph.NodeID(nil), spanning...)
	for _, e := range spanning {
		seen[e] = true
	}
	for _, v := range nodes {
		for _, w := range byID(g.Out(v)) {
			e := [2]graph.NodeID{v, w}
			if inSet[w] && !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	return nodes, edges
}

// byID returns a copy of the neighbor list adj sorted by id. The
// samplers draw neighbors by index from it, so what they draw depends on
// the graph and the seed, not on the order the graph stores lists in.
func byID(adj []graph.NodeID) []graph.NodeID {
	return slices.Sorted(slices.Values(adj))
}

// relabel returns a copy of g in which node seed carries a fresh label not
// used anywhere else, plus that label.
func relabel(g *graph.Graph, seed graph.NodeID) (*graph.Graph, string) {
	unique := fmt.Sprintf("@p%d", seed)
	b := graph.NewBuilder(g.NumNodes(), g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		if graph.NodeID(v) == seed {
			b.AddNode(unique)
		} else {
			b.AddNode(g.Label(graph.NodeID(v)))
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			b.AddEdge(graph.NodeID(v), w)
		}
	}
	return b.Build(), unique
}

// ReachQuery is one reachability query (v_p, v_o) with its ground truth.
type ReachQuery struct {
	From, To graph.NodeID
	Truth    bool
}

// ReachQueries samples n node pairs and computes their ground truth by
// BFS, aiming for a roughly balanced mix: half the samples are drawn as
// random pairs, half by walking forward from the source so that positives
// are well represented even on sparse graphs.
func ReachQueries(g *graph.Graph, n int, seed int64) []ReachQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ReachQuery, 0, n)
	for len(out) < n {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		var v graph.NodeID
		if len(out)%2 == 0 {
			v = graph.NodeID(rng.Intn(g.NumNodes()))
		} else {
			// Forward random walk: likely reachable.
			v = u
			for steps := rng.Intn(8) + 1; steps > 0; steps-- {
				outs := byID(g.Out(v))
				if len(outs) == 0 {
					break
				}
				v = outs[rng.Intn(len(outs))]
			}
		}
		out = append(out, ReachQuery{From: u, To: v, Truth: g.Reachable(u, v)})
	}
	return out
}
