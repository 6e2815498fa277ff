package bench

import (
	"fmt"
	"math/rand"

	"rbq/internal/dataset"
	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/plan"
)

// ds bundles one data graph with its offline structures and the size of
// the paper dataset it stands in for.
type ds struct {
	name      string
	g         *graph.Graph
	aux       *graph.Aux
	paperSize int
}

func newDS(name string, g *graph.Graph, paperSize int) *ds {
	return &ds{name: name, g: g, aux: graph.BuildAux(g), paperSize: paperSize}
}

// realDatasets builds the two stand-ins of the paper's real-life graphs.
func realDatasets(s Scale) []*ds {
	return []*ds{
		newDS("Youtube", dataset.YoutubeLike(s.YoutubeNodes, s.Seed), YoutubePaperSize),
		newDS("Yahoo", dataset.YahooLike(s.YahooNodes, s.Seed+1), YahooPaperSize),
	}
}

// patternQuery is one pattern workload item, pinned at v_p: the pattern
// compiled against the dataset's Aux, which every engine run of the
// experiments goes through.
type patternQuery struct {
	pl  *plan.Plan
	aux *graph.Aux
	vp  graph.NodeID
}

// patternWorkload extracts n patterns of shape (qNodes, qEdges) from aux's
// graph, each anchored at a random node with non-trivial degree.
func patternWorkload(aux *graph.Aux, n, qNodes, qEdges int, seed int64) []patternQuery {
	g := aux.Graph()
	rng := rand.New(rand.NewSource(seed))
	var out []patternQuery
	for attempt := 0; len(out) < n && attempt < 50*n; attempt++ {
		vp := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(vp) < 2 {
			continue
		}
		p := gen.PatternAt(g, vp, gen.PatternConfig{Nodes: qNodes, Edges: qEdges, Seed: rng.Int63()})
		if p == nil {
			continue
		}
		pl, err := plan.New(aux, p)
		if err != nil {
			// PatternAt builds valid patterns; a failure here is a bug.
			panic(fmt.Sprintf("bench: %v", err))
		}
		out = append(out, patternQuery{pl: pl, aux: aux, vp: vp})
	}
	return out
}

// syntheticGraph builds the paper's synthetic setting: |E| = 2|V| over the
// 15-label alphabet, uniform endpoints.
func syntheticGraph(nodes int, seed int64) *graph.Graph {
	return gen.Random(gen.GraphConfig{Nodes: nodes, Edges: 2 * nodes, Seed: seed})
}
