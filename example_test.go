package rbq_test

// Runnable godoc examples for the public API. Each doubles as a test: the
// output is verified.

import (
	"context"
	"fmt"

	"rbq"
)

// socialGraph builds the Fig. 1 motif: Michael knows a cycling club (CC)
// and a hiking group (HG); two cycling lovers (CL) are known to both.
func socialGraph() *rbq.Graph {
	b := rbq.NewGraphBuilder(6, 6)
	michael := b.AddNode("Michael")
	cc := b.AddNode("CC")
	hg := b.AddNode("HG")
	cl1 := b.AddNode("CL")
	cl2 := b.AddNode("CL")
	b.AddEdge(michael, cc)
	b.AddEdge(michael, hg)
	b.AddEdge(cc, cl1)
	b.AddEdge(cc, cl2)
	b.AddEdge(hg, cl1)
	b.AddEdge(hg, cl2)
	b.AddNode("X") // padding so a 0.99 budget covers the whole motif
	return b.Build()
}

func ExampleDB_Query() {
	db := rbq.NewDB(socialGraph())
	q, _ := rbq.ParsePattern(`
		node 0 Michael*
		node 1 CC
		node 2 HG
		node 3 CL!
		edge 0 1
		edge 0 2
		edge 1 3
		edge 2 3
	`)
	res, _ := db.Query(context.Background(), q, rbq.Request{Alpha: 0.99})
	fmt.Println("matches:", res.Matches)
	// Output: matches: [3 4]
}

func ExampleDB_Query_exact() {
	db := rbq.NewDB(socialGraph())
	q, _ := rbq.ParsePattern("node 0 Michael*\nnode 1 CC!\nedge 0 1\n")
	exact, _ := db.Query(context.Background(), q, rbq.Request{Mode: rbq.Exact})
	fmt.Println("exact:", exact.Matches)
	// Output: exact: [1]
}

func ExampleMatchAccuracy() {
	exact := []rbq.NodeID{1, 2, 3}
	approx := []rbq.NodeID{2, 3}
	acc := rbq.MatchAccuracy(exact, approx)
	fmt.Printf("P=%.2f R=%.2f F=%.2f\n", acc.Precision, acc.Recall, acc.F)
	// Output: P=1.00 R=0.67 F=0.80
}

func ExampleReachOracle_Reach() {
	b := rbq.NewGraphBuilder(4, 3)
	for i := 0; i < 4; i++ {
		b.AddNode("n")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	db := rbq.NewDB(b.Build())
	oracle := db.BuildReachOracle(0.9)
	fmt.Println(oracle.Reach(0, 3).Answer, oracle.Reach(3, 0).Answer)
	// Output: true false
}

func ExampleDB_Query_unanchored() {
	// Two disjoint A->B motifs: no unique personalized node exists, so the
	// unanchored engine splits the budget across both A candidates.
	b := rbq.NewGraphBuilder(4, 2)
	a1 := b.AddNode("A")
	b1 := b.AddNode("B")
	a2 := b.AddNode("A")
	b2 := b.AddNode("B")
	b.AddEdge(a1, b1)
	b.AddEdge(a2, b2)
	db := rbq.NewDB(b.Build())

	q, _ := rbq.ParsePattern("node 0 A*\nnode 1 B!\nedge 0 1\n")
	res, _ := db.Query(context.Background(), q, rbq.Request{Mode: rbq.Unanchored, Alpha: 1.0})
	fmt.Println("matches:", res.Matches, "anchors:", res.Evaluated)
	// Output: matches: [1 3] anchors: 2
}

func ExamplePattern_String() {
	pb := rbq.NewPatternBuilder()
	m := pb.AddNode("Michael")
	cl := pb.AddNode("CL")
	pb.AddEdge(m, cl)
	pb.SetPersonalized(m)
	pb.SetOutput(cl)
	q := pb.MustBuild()
	fmt.Print(q)
	// Output:
	// node 0 Michael*
	// node 1 CL!
	// edge 0 1
}
