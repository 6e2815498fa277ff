// Command rbbench regenerates the tables and figures of Section 6 of Fan,
// Wang & Wu (SIGMOD 2014) on power-law stand-ins of the paper's datasets,
// plus the ablation studies (ids abl-* in rbbench -list).
//
// Usage:
//
//	rbbench                         # run everything at the default scale
//	rbbench -exp table2,fig8c       # selected experiments
//	rbbench -list                   # list experiment ids
//	rbbench -youtube 200000 -yahoo 300000 -patterns 10   # bigger workload
//	rbbench -json                   # micro-benchmark suite -> BENCH_hotpaths.json
//	rbbench -json -out /tmp/new.json -compare BENCH_hotpaths.json
//	                                # ...and fail on >25% ns/op regression
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rbq/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps      = fs.String("exp", "", "comma-separated experiment ids (empty = all)")
		list      = fs.Bool("list", false, "list experiments and exit")
		jsonOut   = fs.Bool("json", false, "run the engine micro-benchmark suite and write a JSON report")
		jsonPath  = fs.String("out", "BENCH_hotpaths.json", "report path for -json ('-' = stdout)")
		compare   = fs.String("compare", "", "baseline JSON report to compare against (-json mode); exit 1 on regression")
		tolerance = fs.Float64("tolerance", 0.25, "ns/op regression ceiling for -compare (0.25 = 25%); benchmarks with stable recorded run spreads are gated tighter, down to 10%")
		nsGate    = fs.Bool("nsgate", true, "gate -compare on ns/op too; false gates on allocs/op only (for hardware unrelated to the baseline's)")
		count     = fs.Int("count", 3, "runs per micro-benchmark; the best (min ns/op) run is reported")
		youtube   = fs.Int("youtube", 0, "nodes in the Youtube-like stand-in (0 = default)")
		yahoo     = fs.Int("yahoo", 0, "nodes in the Yahoo-like stand-in (0 = default)")
		div       = fs.Int("div", 0, "divisor for the paper's 2M-10M synthetic sweep (0 = default)")
		patterns  = fs.Int("patterns", 0, "pattern queries per measurement (0 = default)")
		queries   = fs.Int("queries", 0, "reachability queries per measurement (0 = default)")
		seed      = fs.Int64("seed", 0, "workload seed (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *jsonOut {
		if err := runMicro(*jsonPath, *compare, *tolerance, *count, *nsGate, stderr); err != nil {
			fmt.Fprintln(stderr, "rbbench:", err)
			return 1
		}
		return 0
	}

	s := bench.Scale{
		YoutubeNodes:     *youtube,
		YahooNodes:       *yahoo,
		SyntheticDivisor: *div,
		Patterns:         *patterns,
		ReachQueries:     *queries,
		Seed:             *seed,
	}
	var ids []string
	if *exps != "" {
		for _, id := range strings.Split(*exps, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if err := bench.Run(stdout, s, ids); err != nil {
		fmt.Fprintln(stderr, "rbbench:", err)
		return 1
	}
	return 0
}
