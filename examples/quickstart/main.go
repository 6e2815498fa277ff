// Quickstart: answer a personalized graph-pattern query within bounded
// resources, end to end, on a graph small enough to read.
//
// We model the paper's running example (Fig. 1): Michael asks for cycling
// lovers (CL) known both to his LA cycling club (CC) friends and to his
// hiking group (HG) friends. The resource-bounded engine answers by
// extracting a fragment G_Q with |G_Q| ≤ α|G| instead of scanning G.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"rbq"
)

func main() {
	// 1. Build the data graph.
	gb := rbq.NewGraphBuilder(16, 24)
	michael := gb.AddNode("Michael")
	var hgs, ccs, cls []rbq.NodeID
	for i := 0; i < 4; i++ {
		hgs = append(hgs, gb.AddNode("HG"))
		gb.AddEdge(michael, hgs[i])
	}
	for i := 0; i < 3; i++ {
		ccs = append(ccs, gb.AddNode("CC"))
		gb.AddEdge(michael, ccs[i])
	}
	for i := 0; i < 6; i++ {
		cls = append(cls, gb.AddNode("CL"))
	}
	// cc0 recommends three cycling lovers nobody in the hiking group knows.
	gb.AddEdge(ccs[0], cls[0])
	gb.AddEdge(ccs[0], cls[1])
	gb.AddEdge(ccs[0], cls[2])
	// cc2 and the hiker hgs[3] both know the two answers.
	gb.AddEdge(ccs[2], cls[4])
	gb.AddEdge(ccs[2], cls[5])
	gb.AddEdge(hgs[3], cls[4])
	gb.AddEdge(hgs[3], cls[5])
	g := gb.Build()

	// 2. Build the pattern: Michael* -> CC -> CL!, Michael -> HG -> CL.
	q, err := rbq.ParsePattern(`
		node 0 Michael*
		node 1 CC
		node 2 HG
		node 3 CL!
		edge 0 1
		edge 0 2
		edge 1 3
		edge 2 3
	`)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Query with a resource budget: α = 60% of this tiny graph. Every
	// evaluation is one declarative Request — here the zero Request (a
	// resource-bounded simulation query) with only α filled in. The
	// context carries cancellation into the engine: pass a deadline and a
	// query that would overrun returns ctx.Err() instead.
	ctx := context.Background()
	db := rbq.NewDB(g)
	res, err := db.Query(ctx, q, rbq.Request{Alpha: 0.6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph |G| = %d items; budget = %d; fragment |G_Q| = %d; visited %d\n",
		g.Size(), res.Budget, res.FragmentSize, res.Visited)
	fmt.Printf("cycling lovers matching the pattern: %v\n", res.Matches)

	// 4. Compare against the exact answer: the same Request in Exact
	// mode. The pattern was compiled on the first Query and cached, so
	// this evaluation reuses the plan (see WantTrace below).
	exact, err := db.Query(ctx, q, rbq.Request{Mode: rbq.Exact})
	if err != nil {
		log.Fatal(err)
	}
	acc := rbq.MatchAccuracy(exact.Matches, res.Matches)
	fmt.Printf("exact answer: %v — accuracy F = %.2f\n", exact.Matches, acc.F)

	// 5. Repeated templates: re-issuing the same pattern hits the DB's
	// plan cache, so hot templates are compiled once no matter how many
	// callers evaluate them. WantTrace attaches the query's span tree,
	// whose plan span counts the cache hit and times the plan lookup.
	vp := res.Personalized // the unique match, reported per query
	for _, alpha := range []float64{0.3, 0.45, 0.6} {
		r, err := db.Query(ctx, q, rbq.Request{Anchor: rbq.Pin(vp), Alpha: alpha, WantTrace: true})
		if err != nil {
			log.Fatal(err)
		}
		hits, _ := r.Trace.Find("plan").Counter("cache_hit")
		fmt.Printf("cached run at α=%.2f: budget %d -> matches %v (plan cache hit: %v)\n",
			alpha, r.Budget, r.Matches, hits == 1)
	}
	cs := db.PlanCacheStats()
	fmt.Printf("plan cache: %d hit(s), %d miss(es) — one compilation served every query\n",
		cs.Hits, cs.Misses)
}
