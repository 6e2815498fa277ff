// Package dataset provides the data graphs of the paper's experimental
// study (Section 6) and a plain-text edge-list codec.
//
// The paper evaluates on two real-life graphs — Youtube (1,609,969 video
// nodes, 4,509,826 recommendation edges) and a Yahoo web snapshot
// (3,000,022 pages, 14,979,447 links) — that are not redistributable.
// YoutubeLike and YahooLike generate power-law stand-ins with the same
// average degree, a heavy-tailed degree distribution and the 15-label
// alphabet — the properties the algorithms depend on: they see a graph
// only through node degrees, neighborhood label counts and bounded-hop
// balls. Scale defaults to a laptop-friendly fraction of the originals and
// is adjustable; internal/bench maps the paper's α values through the
// original graph sizes so budgets stay comparable.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// YoutubeLike generates a Youtube-scale-shaped graph with n nodes: average
// out-degree ~2.8 (4.5M/1.6M), power-law tails, 15 labels.
func YoutubeLike(n int, seed int64) *graph.Graph {
	return gen.Random(gen.GraphConfig{
		Nodes:    n,
		Edges:    n * 28 / 10,
		Seed:     seed,
		PowerLaw: true,
	})
}

// YahooLike generates a Yahoo-web-shaped graph with n nodes: average
// out-degree ~5.0 (15M/3M), power-law tails, 15 labels.
func YahooLike(n int, seed int64) *graph.Graph {
	return gen.Random(gen.GraphConfig{
		Nodes:    n,
		Edges:    n * 5,
		Seed:     seed,
		PowerLaw: true,
	})
}

// Write emits g in the textual edge-list format:
//
//	node <id> <label>
//	edge <from> <to>
//
// Node lines come first, ids dense and ascending.
func Write(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := fmt.Fprintf(bw, "node %d %s\n", v, g.Label(graph.NodeID(v))); err != nil {
			return err
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, t := range g.Out(graph.NodeID(v)) {
			if _, err := fmt.Fprintf(bw, "edge %d %d\n", v, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Lines starting with # and
// blank lines are ignored.
func Read(r io.Reader) (*graph.Graph, error) {
	b := graph.NewBuilder(0, 0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo, edges := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: line %d: want 'node <id> <label>'", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad id: %v", lineNo, err)
			}
			got := b.AddNode(fields[2])
			if int(got) != id {
				return nil, fmt.Errorf("dataset: line %d: ids must be dense ascending (got %d want %d)", lineNo, id, got)
			}
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: line %d: want 'edge <from> <to>'", lineNo)
			}
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad source: %v", lineNo, err)
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad target: %v", lineNo, err)
			}
			if from < 0 || from >= b.NumNodes() || to < 0 || to >= b.NumNodes() {
				return nil, fmt.Errorf("dataset: line %d: edge (%d,%d) out of range", lineNo, from, to)
			}
			if edges++; edges > math.MaxInt32 { // the graph's CSR offsets are int32
				return nil, fmt.Errorf("dataset: line %d: more than %d edges", lineNo, math.MaxInt32)
			}
			b.AddEdge(graph.NodeID(from), graph.NodeID(to))
		default:
			return nil, fmt.Errorf("dataset: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}
