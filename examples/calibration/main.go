// Calibration: how small can α be? (the paper's Section 7 question)
//
// Operators must pick the resource ratio α before serving queries. This
// example builds a workload of personalized pattern queries, sweeps the
// empirical accuracy curve η(α), and then searches for the smallest α that
// still achieves 100% accuracy — automating the calibration the paper does
// by hand in Fig. 8(c). It finishes by answering a pattern that has NO
// unique personalized node with the unanchored engine.
//
// Run with: go run ./examples/calibration
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rbq"
)

func main() {
	const members = 60_000
	g := rbq.YoutubeLike(members, 17)
	fmt.Printf("graph: |G| = %d items\n", g.Size())

	// Build a 4-query workload, all pinned on the same graph copy.
	q, g2, vp, err := rbq.ExtractPattern(g, 4, 8, 3)
	if err != nil {
		log.Fatal(err)
	}
	db := rbq.NewDB(g2)
	workload := []rbq.AnchoredQuery{{Q: q, At: vp}}
	for seed := int64(10); len(workload) < 4 && seed < 60; seed++ {
		p, _, anchor, err := rbq.ExtractPattern(g2, 4, 8, seed)
		if err != nil {
			continue
		}
		// Re-pin on db's graph: the extraction used g2 itself, so the
		// anchor id is valid there.
		workload = append(workload, rbq.AnchoredQuery{Q: p, At: anchor})
	}
	fmt.Printf("workload: %d pattern queries of shape (4,8)\n\n", len(workload))

	// 1. The empirical accuracy curve. Calibration sweeps are long-running
	// offline jobs, so they take a context like every other evaluation: a
	// fired deadline stops the sweep and returns the points sampled so far.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	alphas := []float64{0.00002, 0.0001, 0.0005, 0.002, 0.01}
	fmt.Println("alpha      accuracy   mean |G_Q|")
	for _, pt := range db.SimulationCurve(ctx, workload, alphas) {
		fmt.Printf("%-10.5f %-10.3f %.1f\n", pt.Alpha, pt.Accuracy, pt.MeanFragment)
	}

	// 2. The smallest α achieving 100% accuracy on this workload.
	pt, ok := db.MinAlphaForAccuracy(ctx, workload, 1.0, 0.01, 8)
	if !ok {
		fmt.Println("\n100% accuracy needs α > 0.01 on this workload")
	} else {
		fmt.Printf("\nminimal α for 100%% accuracy: %.6f (mean fragment %.1f items of |G| = %d)\n",
			pt.Alpha, pt.MeanFragment, db.Graph().Size())
	}

	// 3. A pattern with no unique personalized match: "find label-L00
	// nodes that point at an L01 node" anywhere in the graph.
	pb := rbq.NewPatternBuilder()
	a := pb.AddNode("L00")
	b := pb.AddNode("L01")
	pb.AddEdge(a, b)
	pb.SetPersonalized(a)
	pb.SetOutput(a)
	motif := pb.MustBuild()
	res, err := db.Query(ctx, motif, rbq.Request{Mode: rbq.Unanchored, Alpha: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunanchored motif search: %d matches from %d anchors (of %d candidates), total |G_Q| = %d\n",
		len(res.Matches), res.Evaluated, res.Candidates, res.FragmentSize)
}
