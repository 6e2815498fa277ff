package rbany

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// refAnchorOrder is the anchor ranking as a comparator over candidates:
// Potential mass descending, then degree descending, then id ascending.
func refAnchorOrder(pass []anchorCand) []anchorCand {
	out := slices.Clone(pass)
	slices.SortFunc(out, func(a, b anchorCand) int {
		switch {
		case a.pot > b.pot:
			return -1
		case a.pot < b.pot:
			return 1
		case a.deg > b.deg:
			return -1
		case a.deg < b.deg:
			return 1
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	return out
}

// TestAnchorOrderEqualsComparator: sortAnchors ranks as the comparator
// does on random candidates, with ids, degrees and masses narrow enough
// to pack into one key, with ties in both, and wide enough that no
// packing holds them.
func TestAnchorOrderEqualsComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	packed, wide := 0, 0
	for i := 0; i < 400; i++ {
		// Bit widths of the id, degree and mass ranges.
		vBits, degBits, potBits := 1+rng.Intn(31), rng.Intn(41), rng.Intn(51)
		var rk ranking
		seen := map[graph.NodeID]bool{}
		for k := rng.Intn(300); k > 0; k-- {
			v := graph.NodeID(rng.Int63n(1 << vBits))
			if seen[v] {
				continue
			}
			seen[v] = true
			rk.pass = append(rk.pass, anchorCand{v: v, deg: int(rng.Int63n(1 << degBits)), pot: float64(rng.Int63n(1 << potBits))})
		}
		slices.SortFunc(rk.pass, func(a, b anchorCand) int { return int(a.v) - int(b.v) }) // candidates come in id order
		want := refAnchorOrder(rk.pass)
		rk.sortAnchors()
		if !reflect.DeepEqual(rk.pass, want) && len(want) > 0 {
			t.Fatalf("case %d (widths %d/%d/%d): got %v, want %v", i, vBits, degBits, potBits, rk.pass, want)
		}
		if vBits+degBits+potBits > 64 {
			wide++
		} else {
			packed++
		}
	}
	if packed == 0 || wide == 0 {
		t.Fatalf("one path untested: %d packed, %d wide", packed, wide)
	}
}

// TestConcurrentUnanchoredRunsShareNoScratch: unanchored evaluations of
// both classes running at once on one snapshot — each on its own
// borrowed bounded.Runner and ranking buffer — answer what they answer
// alone. Under -race a scratch two of them shared would be reported.
func TestConcurrentUnanchoredRunsShareNoScratch(t *testing.T) {
	most := 0
	for _, fx := range parallelFixtures(t) {
		pr := prepare(fx.aux, fx.p)
		classes := []*bounded.Compiled{
			bounded.Compile(fx.aux.Graph(), fx.p, bounded.Simulation),
			bounded.Compile(fx.aux.Graph(), fx.p, bounded.Subgraph),
		}
		opts := Options{Alpha: 0.05}
		var want [2]Result
		for c, comp := range classes {
			want[c] = pr.Run(fx.aux, comp, opts, nil)
		}
		most = max(most, want[0].Evaluated, want[1].Evaluated)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			c := w % 2
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if got := pr.Run(fx.aux, classes[c], opts, nil); !reflect.DeepEqual(got, want[c]) {
						t.Errorf("%s class %d: a concurrent run answered %+v, alone %+v", fx.name, c, got, want[c])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if most < 2 {
		t.Fatalf("no fixture runs more than %d anchor", most)
	}
}

// TestRunsGetThePredictedShares: on a 3.8M-item graph, where a 1-item
// share used to reach the reduction as a ratio rounding to budget 0,
// every anchor run gets the share PredictShares reports and spends it
// whole — a lone pin costs one item — so the run totals equal the
// prediction.
func TestRunsGetThePredictedShares(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a graph of 3.8M items")
	}
	const size = 3_798_255
	b := graph.NewBuilder(size, 0)
	for i := 0; i < size; i++ {
		if i%1000 == 0 {
			b.AddNode("A")
		} else {
			b.AddNode("B")
		}
	}
	aux := graph.BuildAux(b.Build())
	pb := pattern.NewBuilder()
	pb.SetPersonalized(pb.AddNode("A")).SetOutput(0)
	p := pb.MustBuild()
	pr, c := prepare(aux, p), bounded.Compile(aux.Graph(), p, bounded.Simulation)
	anchors := len(aux.Graph().NodesWithLabel(c.Labels()[0]))
	// A budget one item short of an item per anchor: 1-item shares, then
	// none for the last anchor.
	alpha := (float64(anchors) - 0.5) / size
	shares, passed := pr.PredictShares(aux, c, alpha, anchors)
	res := pr.Run(aux, c, Options{Alpha: alpha}, nil)
	total := 0
	for _, s := range shares {
		if s.Share != 1 {
			t.Fatalf("predicted share %d of anchor %d, want 1", s.Share, s.V)
		}
		total += s.Share
	}
	if passed != anchors || res.Evaluated != len(shares) || res.Evaluated != anchors-1 ||
		res.FragmentSize != total || len(res.Matches) != len(shares) {
		t.Fatalf("%d anchors, %d predicted shares totalling %d; evaluated %d, fragments %d, matches %d",
			anchors, len(shares), total, res.Evaluated, res.FragmentSize, len(res.Matches))
	}
}
