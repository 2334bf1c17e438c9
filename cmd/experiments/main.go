// Command experiments regenerates every table and figure of the
// PrivApprox paper's evaluation (§6 microbenchmarks and §7 case
// studies) on the local machine and prints them as text tables.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,fig4a,fig6
//	experiments -list
//
// Absolute numbers depend on this host; the *shapes* (who wins, by what
// factor, where the crossovers fall) are the reproduction target — see
// EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one reproducible table or figure.
type experiment struct {
	id    string
	title string
	run   func(fast bool) error
}

var experiments = []experiment{
	{"table1", "Table 1: utility & privacy vs randomization parameters", runTable1},
	{"table2", "Table 2: crypto operation throughput (XOR vs RSA/GM/Paillier)", runTable2},
	{"table3", "Table 3: client-side throughput (DB read, RR, XOR)", runTable3},
	{"fig4a", "Fig 4a: accuracy loss vs sampling fraction (9 p,q combos)", runFig4a},
	{"fig4b", "Fig 4b: error decomposition (sampling, RR, combined)", runFig4b},
	{"fig4c", "Fig 4c: accuracy loss vs number of clients", runFig4c},
	{"fig5a", "Fig 5a: native vs inverse query accuracy", runFig5a},
	{"fig5b", "Fig 5b: proxy throughput vs answer bit-vector size", runFig5b},
	{"fig5c", "Fig 5c: privacy level, PrivApprox vs RAPPOR", runFig5c},
	{"fig6", "Fig 6: proxy latency, PrivApprox vs SplitX", runFig6},
	{"fig7", "Fig 7: NYC taxi case study (utility, privacy, trade-off)", runFig7},
	{"fig8", "Fig 8: proxy & aggregator scalability", runFig8},
	{"fig9", "Fig 9: network traffic & latency vs sampling fraction", runFig9},
	{"pipeline", "Parallel epoch pipeline: workers throughput sweep", runPipeline},
	{"netbench", "Networked transport: TCP share throughput, batch × connections sweep", runNetbench},
}

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	fast := flag.Bool("fast", false, "smaller populations / fewer repetitions")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.id, e.title)
		}
		return
	}

	want := map[string]bool{}
	runAll := *runFlag == "all"
	if !runAll {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.id] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	failed := 0
	for _, e := range experiments {
		if !runAll && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s — %s ====\n", e.id, e.title)
		if err := e.run(*fast); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			failed++
		}
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}
