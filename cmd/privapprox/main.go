// Command privapprox runs a complete in-process PrivApprox deployment
// from the command line: synthetic clients with private data, a proxy
// fleet, and the aggregator, printing per-window query results with
// confidence intervals.
//
// Usage:
//
//	privapprox -clients 2000 -epochs 8 -epsilon 2.0 -workload taxi
//	privapprox -clients 500 -s 0.6 -p 0.9 -q 0.6 -workload electricity
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"privapprox"
)

func main() {
	var (
		clients  = flag.Int("clients", 1000, "number of simulated client devices")
		proxies  = flag.Int("proxies", 2, "XOR share fan-out (≥2 non-colluding proxies)")
		epochs   = flag.Int("epochs", 8, "answer epochs to run")
		window   = flag.Int("window", 4, "sliding window length in epochs")
		slide    = flag.Int("slide", 2, "slide interval in epochs")
		epsilon  = flag.Float64("epsilon", 2.0, "zero-knowledge privacy budget ε_zk (budget mode)")
		sFlag    = flag.Float64("s", 0, "sampling fraction (pins parameters, bypassing the budget)")
		pFlag    = flag.Float64("p", 0.9, "first randomization coin (with -s)")
		qFlag    = flag.Float64("q", 0.6, "second randomization coin")
		wl       = flag.String("workload", "taxi", "workload: taxi or electricity")
		seed     = flag.Int64("seed", 1, "deterministic run seed")
		feedback = flag.Bool("feedback", false, "enable the adaptive budget controller")
		workers  = flag.Int("workers", 0, "concurrent answering clients per epoch (0 = GOMAXPROCS)")
	)
	flag.Parse()

	freq := time.Second
	var q *privapprox.Query
	var populate func(int, *privapprox.DB) error
	var err error
	switch *wl {
	case "taxi":
		q, err = privapprox.TaxiQuery("cli-analyst", 1, freq,
			time.Duration(*window)*freq, time.Duration(*slide)*freq)
		populate = func(i int, db *privapprox.DB) error {
			rng := rand.New(rand.NewSource(*seed + int64(i)))
			return privapprox.PopulateTaxi(db, rng, 3, time.Unix(0, 0), time.Minute)
		}
	case "electricity":
		q, err = privapprox.ElectricityQuery("cli-analyst", 1, freq,
			time.Duration(*window)*freq, time.Duration(*slide)*freq)
		populate = func(i int, db *privapprox.DB) error {
			rng := rand.New(rand.NewSource(*seed + int64(i)))
			return privapprox.PopulateElectricity(db, rng, 3, time.Unix(0, 0))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}

	cfg := privapprox.SystemConfig{
		Clients:  *clients,
		Proxies:  *proxies,
		Query:    q,
		Seed:     *seed,
		Populate: populate,
		Workers:  *workers,
	}
	if *sFlag > 0 {
		cfg.Params = &privapprox.Params{S: *sFlag, RR: privapprox.RRParams{P: *pFlag, Q: *qFlag}}
	} else {
		cfg.Budget = &privapprox.Budget{EpsilonZK: *epsilon, Q: *qFlag}
	}
	sys, err := privapprox.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	params := sys.Params()
	ezk, err := params.EpsilonZK()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PrivApprox: %d clients, %d proxies | s=%.3f p=%.2f q=%.2f | ε_zk=%.3f\n",
		*clients, *proxies, params.S, params.RR.P, params.RR.Q, ezk)
	if *feedback {
		if err := sys.EnableFeedback(0.05, 0.05, 0.95); err != nil {
			log.Fatal(err)
		}
		fmt.Println("adaptive feedback: target 5% relative width")
	}

	start := time.Now()
	totalParticipants := 0
	for epoch := 0; epoch < *epochs; epoch++ {
		results, participants, err := sys.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		totalParticipants += participants
		late, err := sys.AdvanceTo(uint64(epoch))
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, late...)
		for _, res := range results {
			printResult(res)
			if *feedback {
				next, err := sys.Feedback(res)
				if err != nil {
					log.Fatal(err)
				}
				if next.S != params.S {
					fmt.Printf("  feedback: s re-tuned to %.3f\n", next.S)
					params = next
				}
			}
		}
	}
	final, err := sys.Flush()
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range final {
		printResult(res)
	}

	st := sys.Fleet().TotalStats()
	fmt.Printf("\nrun: %d epochs in %v | %d participations | proxies carried %d msgs, %.1f KB\n",
		*epochs, time.Since(start).Round(time.Millisecond), totalParticipants,
		st.MessagesIn, float64(st.BytesIn)/1024)
	agg := sys.Aggregator().Stats()
	fmt.Printf("aggregator: %d decoded, %d malformed, %d duplicate shares\n", agg.Decoded, agg.Malformed, agg.Duplicates)
}

func printResult(res privapprox.Result) {
	fmt.Printf("window [%s → %s): %d answers\n",
		res.Window.Start.Format("15:04:05"), res.Window.End.Format("15:04:05"), res.Responses)
	for _, b := range res.Buckets {
		fmt.Printf("  %-12s %10.1f  ± %.1f\n", b.Label, b.Estimate.Estimate, b.Estimate.Margin)
	}
}
