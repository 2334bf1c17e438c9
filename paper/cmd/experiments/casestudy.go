package main

import (
	"fmt"
	"math/rand"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/core"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
)

// simulateHistogramLoss runs the full client-side pipeline
// (sample → bucketize → randomize) over a fixed population of values and
// returns the mean per-bucket accuracy loss of the aggregator's
// estimates against the exact histogram.
func simulateHistogramLoss(rng *rand.Rand, values []float64, buckets query.Buckets, s float64, params rr.Params, runs int) (float64, error) {
	rz, err := rr.NewRandomizer(params, rng)
	if err != nil {
		return 0, err
	}
	nb := len(buckets)
	exact := make([]int, nb)
	idxOf := make([]int, len(values))
	for i, v := range values {
		idx := buckets.Index(minisql.Number(v).String())
		idxOf[i] = idx
		if idx >= 0 {
			exact[idx]++
		}
	}
	var totalLoss float64
	var lossCount int
	for run := 0; run < runs; run++ {
		observed := make([]int, nb)
		sampled := 0
		for i := range values {
			if s < 1 && rng.Float64() >= s {
				continue
			}
			sampled++
			for b := 0; b < nb; b++ {
				if rz.Respond(idxOf[i] == b) {
					observed[b]++
				}
			}
		}
		if sampled == 0 {
			continue
		}
		for b := 0; b < nb; b++ {
			if exact[b] == 0 {
				continue
			}
			truthful, err := rr.EstimateYes(params, observed[b], sampled)
			if err != nil {
				return 0, err
			}
			est := truthful * float64(len(values)) / float64(sampled)
			loss, err := rr.AccuracyLoss(float64(exact[b]), est)
			if err != nil {
				return 0, err
			}
			totalLoss += loss
			lossCount++
		}
	}
	if lossCount == 0 {
		return 0, fmt.Errorf("fig7: no buckets to score")
	}
	return totalLoss / float64(lossCount), nil
}

// Fig 7: NYC taxi case study — utility (a), zero-knowledge privacy (b),
// and the utility/privacy trade-off (c) over the (s, p, q) grid.
func runFig7(fast bool) error {
	rng := rand.New(rand.NewSource(10))
	clients, runs := 10000, 3
	if fast {
		clients, runs = 2000, 2
	}
	values := make([]float64, clients)
	for i := range values {
		values[i] = workload.TaxiDistance(rng)
	}
	buckets, err := workload.TaxiBuckets()
	if err != nil {
		return err
	}
	fractions := []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.9}
	grid := []float64{0.3, 0.6, 0.9}

	fmt.Println("(a) accuracy loss (%) vs sampling fraction")
	fmt.Printf("%-12s", "p,q \\ s")
	for _, s := range fractions {
		fmt.Printf("%8.0f%%", s*100)
	}
	fmt.Println()
	type cell struct{ loss, ezk float64 }
	table := map[[3]float64]cell{}
	for _, p := range grid {
		for _, q := range grid {
			fmt.Printf("p=%.1f q=%.1f", p, q)
			for _, s := range fractions {
				params := rr.Params{P: p, Q: q}
				loss, err := simulateHistogramLoss(rng, values, buckets, s, params, runs)
				if err != nil {
					return err
				}
				ezk, err := rr.EpsilonZK(s, params)
				if err != nil {
					return err
				}
				table[[3]float64{p, q, s}] = cell{loss, ezk}
				fmt.Printf("%8.2f%%", loss*100)
			}
			fmt.Println()
		}
	}

	fmt.Println("(b) zero-knowledge privacy level ε_zk vs sampling fraction")
	fmt.Printf("%-12s", "p,q \\ s")
	for _, s := range fractions {
		fmt.Printf("%9.0f%%", s*100)
	}
	fmt.Println()
	for _, p := range grid {
		for _, q := range grid {
			fmt.Printf("p=%.1f q=%.1f", p, q)
			for _, s := range fractions {
				fmt.Printf("%10.3f", table[[3]float64{p, q, s}].ezk)
			}
			fmt.Println()
		}
	}

	fmt.Println("(c) utility vs privacy (ε_zk, accuracy loss %) samples")
	for _, p := range grid {
		for _, s := range fractions {
			c := table[[3]float64{p, 0.3, s}]
			fmt.Printf("  ε_zk=%6.3f → loss=%5.2f%% (p=%.1f q=0.3 s=%.0f%%)\n", c.ezk, c.loss*100, p, s*100)
		}
	}
	fmt.Println("paper: utility improves / privacy weakens with s and p;")
	fmt.Println("       non-linear in q — best utility near the true yes fraction (33.57% → q=0.3)")
	return nil
}

// Fig 9: total network traffic and processing latency across sampling
// fractions, for both case studies, on the in-process system.
func runFig9(fast bool) error {
	clients, epochs := 800, 3
	if fast {
		clients, epochs = 200, 2
	}
	cases := []struct {
		name  string
		build func() (*query.Query, func(i int, db *minisql.DB) error, error)
	}{
		{"NYC Taxi", func() (*query.Query, func(int, *minisql.DB) error, error) {
			q, err := workload.TaxiQuery("a", 1, time.Second, time.Duration(epochs)*time.Second, time.Duration(epochs)*time.Second)
			pop := func(i int, db *minisql.DB) error {
				rng := rand.New(rand.NewSource(int64(i)))
				return workload.PopulateTaxi(db, rng, 2, time.Unix(0, 0), time.Minute)
			}
			return q, pop, err
		}},
		{"Electricity", func() (*query.Query, func(int, *minisql.DB) error, error) {
			q, err := workload.ElectricityQuery("a", 2, time.Second, time.Duration(epochs)*time.Second, time.Duration(epochs)*time.Second)
			pop := func(i int, db *minisql.DB) error {
				rng := rand.New(rand.NewSource(int64(i)))
				return workload.PopulateElectricity(db, rng, 2, time.Unix(0, 0))
			}
			return q, pop, err
		}},
	}
	for _, cs := range cases {
		fmt.Printf("[%s] %d clients, %d epochs\n", cs.name, clients, epochs)
		fmt.Printf("%6s  %14s  %14s  %12s  %12s\n", "s", "traffic (KB)", "latency", "traffic vs 1.0", "latency vs 1.0")
		var baseBytes int64
		var baseLatency time.Duration
		fractions := []float64{1.0, 0.9, 0.8, 0.6, 0.4, 0.2, 0.1}
		type row struct {
			s       float64
			bytes   int64
			latency time.Duration
		}
		var rows []row
		for _, s := range fractions {
			q, populate, err := cs.build()
			if err != nil {
				return err
			}
			params := budget.Params{S: s, RR: rr.Params{P: 0.9, Q: 0.6}}
			sys, err := core.New(core.Config{
				Clients:  clients,
				Query:    q,
				Params:   &params,
				Seed:     31,
				Populate: populate,
			})
			if err != nil {
				return err
			}
			start := time.Now()
			for e := 0; e < epochs; e++ {
				if _, _, err := sys.RunEpoch(); err != nil {
					sys.Close()
					return err
				}
			}
			if _, err := sys.Flush(); err != nil {
				sys.Close()
				return err
			}
			latency := time.Since(start)
			bytes := sys.Fleet().TotalStats().BytesIn
			sys.Close()
			if s == 1.0 {
				baseBytes, baseLatency = bytes, latency
			}
			rows = append(rows, row{s, bytes, latency})
		}
		for _, r := range rows {
			fmt.Printf("%5.0f%%  %14.1f  %14v  %11.2fx  %11.2fx\n",
				r.s*100, float64(r.bytes)/1024, r.latency.Round(time.Millisecond),
				float64(baseBytes)/float64(max(r.bytes, 1)),
				float64(baseLatency)/float64(max(int64(r.latency), 1)))
		}
	}
	fmt.Println("paper: at s=60%, ~1.6x traffic reduction and ~1.7x lower latency")
	return nil
}
