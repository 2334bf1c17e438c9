// Multiquery: many analysts, one shared client fleet.
//
// Three analysts run four queries each — twelve concurrent queries over
// the same 150-client population, mixing the taxi-distance and
// household-electricity case studies with different window geometries.
// Queries are signed, registered through the control plane, and
// distributed to clients via the proxies' control topics (paper §3.1);
// the aggregator demultiplexes the shared share stream per query. Mid
// run, one analyst retires a query (its windows flush immediately) and
// submits a replacement, which the fleet picks up at the next epoch —
// no restarts, no per-query infrastructure.
//
// Run with: go run ./examples/multiquery
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"privapprox"
)

func main() {
	const (
		clients = 150
		epochs  = 8
	)

	params := privapprox.Params{S: 0.9, RR: privapprox.RRParams{P: 0.9, Q: 0.6}}
	sys, err := privapprox.NewSystem(privapprox.SystemConfig{
		Clients: clients,
		Proxies: 3,
		Params:  &params,
		Seed:    7,
		Populate: func(i int, db *privapprox.DB) error {
			// Every client holds both case-study tables, so every query
			// finds its data on-device.
			rng := rand.New(rand.NewSource(int64(i) + 1))
			if err := privapprox.PopulateTaxi(db, rng, 3, time.Unix(0, 0), time.Minute); err != nil {
				return err
			}
			return privapprox.PopulateElectricity(db, rng, 4, time.Unix(0, 0))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// 3 analysts × 4 queries: serials 1..4 per analyst, alternating
	// workloads and varying window geometry per serial.
	analysts := []string{"alice", "bob", "carol"}
	var queries []*privapprox.Query
	for _, analyst := range analysts {
		for serial := uint64(1); serial <= 4; serial++ {
			window := time.Duration(2+serial%3) * time.Second
			var q *privapprox.Query
			var err error
			if serial%2 == 0 {
				q, err = privapprox.ElectricityQuery(analyst, serial, time.Second, window, window)
			} else {
				q, err = privapprox.TaxiQuery(analyst, serial, time.Second, window, window)
			}
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.Register(q); err != nil {
				log.Fatal(err)
			}
			queries = append(queries, q)
		}
	}
	fmt.Printf("registered %d queries from %d analysts over %d shared clients\n\n",
		len(queries), len(analysts), clients)

	perQuery := make(map[privapprox.QueryID]int)
	collect := func(results []privapprox.Result) {
		for _, r := range results {
			perQuery[r.Query]++
		}
	}

	for epoch := 0; epoch < epochs; epoch++ {
		results, participants, err := sys.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		collect(results)
		fmt.Printf("epoch %d: %3d/%d clients answered, %2d windows fired\n",
			epoch, participants, clients, len(results))

		if epoch == 3 {
			// Alice retires her first query mid-run…
			flushed, err := sys.StopQuery(queries[0].QID)
			if err != nil {
				log.Fatal(err)
			}
			collect(flushed)
			fmt.Printf("  ↳ stopped %s (flushed %d open windows)\n", queries[0].QID, len(flushed))
			// …and submits a replacement the fleet picks up next epoch.
			repl, err := privapprox.TaxiQuery("alice", 99, time.Second, 2*time.Second, 2*time.Second)
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.Register(repl); err != nil {
				log.Fatal(err)
			}
			queries = append(queries, repl)
			fmt.Printf("  ↳ registered %s\n", repl.QID)
		}
	}
	final, err := sys.Flush()
	if err != nil {
		log.Fatal(err)
	}
	collect(final)

	fmt.Println("\nwindows fired per query:")
	for _, q := range queries {
		fmt.Printf("  %-12s %2d\n", q.QID, perQuery[q.QID])
	}

	st := sys.Aggregator().Stats()
	fmt.Printf("\naggregator: %d answers decoded across %d queries"+
		" (malformed=%d unknown=%d mismatched=%d late=%d)\n",
		st.Decoded, st.Queries, st.Malformed, st.UnknownQuery, st.LengthMismatch, st.Late)

	// One sample result per analyst, for flavor.
	byQuery := privapprox.ByQuery(final)
	for _, analyst := range analysts {
		for _, q := range queries {
			if q.QID.Analyst != analyst || len(byQuery[q.QID]) == 0 {
				continue
			}
			r := byQuery[q.QID][0]
			fmt.Printf("\n%s window [%s → %s): %d answers\n", q.QID,
				r.Window.Start.Format("15:04:05"), r.Window.End.Format("15:04:05"), r.Responses)
			for _, b := range r.Buckets {
				fmt.Printf("  %-12s %8.1f ± %.1f\n", b.Label, b.Estimate.Estimate, b.Estimate.Margin)
			}
			break
		}
	}
}
