package main

import (
	"fmt"
	"math"
	"math/rand"

	"privapprox/internal/baseline/rappor"
	"privapprox/internal/rr"
)

// simulateLoss runs the paper's §6 microbenchmark once: a population of
// n binary answers with the given truthful-"Yes" fraction goes through
// client-side sampling (fraction s) and randomized response (p, q); the
// aggregator-side estimators reverse both; the return value is the
// accuracy loss η (Eq. 6) averaged over runs.
func simulateLoss(rng *rand.Rand, n int, yesFrac, s float64, params rr.Params, inverted bool, runs int) (float64, error) {
	rz, err := rr.NewRandomizer(params, rng)
	if err != nil {
		return 0, err
	}
	actualYes := int(math.Round(yesFrac * float64(n)))
	var total float64
	for run := 0; run < runs; run++ {
		sampled, observedYes := 0, 0
		for i := 0; i < n; i++ {
			if s < 1 && rng.Float64() >= s {
				continue
			}
			sampled++
			if rz.Respond(i < actualYes) {
				observedYes++
			}
		}
		if sampled == 0 {
			total += 1
			continue
		}
		var truthful float64
		if inverted {
			truthful, err = rr.EstimateNo(params, observedYes, sampled)
		} else {
			truthful, err = rr.EstimateYes(params, observedYes, sampled)
		}
		if err != nil {
			return 0, err
		}
		// Scale the window estimate to the population (Eq. 2).
		est := truthful * float64(n) / float64(sampled)
		actual := float64(actualYes)
		if inverted {
			actual = float64(n - actualYes)
		}
		if actual == 0 {
			continue
		}
		loss, err := rr.AccuracyLoss(actual, est)
		if err != nil {
			return 0, err
		}
		total += loss
	}
	return total / float64(runs), nil
}

// Table 1: 10,000 answers, 60% "Yes", s = 0.6 (paper §6 #I).
func runTable1(fast bool) error {
	rng := rand.New(rand.NewSource(1))
	n, runs := 10000, 20
	if fast {
		n, runs = 2000, 5
	}
	const s = 0.6
	fmt.Printf("%4s %4s  %18s  %18s\n", "p", "q", "Accuracy loss (η)", "Privacy (ε_zk)")
	for _, p := range []float64{0.3, 0.6, 0.9} {
		for _, q := range []float64{0.3, 0.6, 0.9} {
			params := rr.Params{P: p, Q: q}
			loss, err := simulateLoss(rng, n, 0.6, s, params, false, runs)
			if err != nil {
				return err
			}
			ezk, err := rr.EpsilonZK(s, params)
			if err != nil {
				return err
			}
			fmt.Printf("%4.1f %4.1f  %18.4f  %18.4f\n", p, q, loss, ezk)
		}
	}
	fmt.Println("paper: η falls as p rises; ε falls as q rises; η best near q=0.6")
	return nil
}

// Fig 4a: accuracy loss vs sampling fraction for the 9 (p, q) combos.
func runFig4a(fast bool) error {
	rng := rand.New(rand.NewSource(2))
	n, runs := 10000, 10
	if fast {
		n, runs = 2000, 3
	}
	fractions := []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0}
	fmt.Printf("%-12s", "p,q \\ s")
	for _, s := range fractions {
		fmt.Printf("%8.0f%%", s*100)
	}
	fmt.Println()
	for _, p := range []float64{0.3, 0.6, 0.9} {
		for _, q := range []float64{0.3, 0.6, 0.9} {
			fmt.Printf("p=%.1f q=%.1f", p, q)
			for _, s := range fractions {
				loss, err := simulateLoss(rng, n, 0.6, s, rr.Params{P: p, Q: q}, false, runs)
				if err != nil {
					return err
				}
				fmt.Printf("%8.2f%%", loss*100)
			}
			fmt.Println()
		}
	}
	fmt.Println("paper: monotone decrease, diminishing returns past s=80%")
	return nil
}

// Fig 4b: error decomposition — sampling only, randomized response
// only, and the combined pipeline (paper §6 #II: the two losses are
// independent and additive).
func runFig4b(fast bool) error {
	rng := rand.New(rand.NewSource(3))
	n, runs := 10000, 20
	if fast {
		n, runs = 2000, 5
	}
	params := rr.Params{P: 0.3, Q: 0.6}
	noRR := rr.Params{P: 1, Q: 0.6} // p=1 disables randomization
	fmt.Printf("%6s  %14s  %14s  %14s  %14s\n", "s", "sampling-only", "RR-only(s=1)", "combined", "sum of parts")
	for _, s := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
		sampOnly, err := simulateLoss(rng, n, 0.6, s, noRR, false, runs)
		if err != nil {
			return err
		}
		rrOnly, err := simulateLoss(rng, n, 0.6, 1.0, params, false, runs)
		if err != nil {
			return err
		}
		combined, err := simulateLoss(rng, n, 0.6, s, params, false, runs)
		if err != nil {
			return err
		}
		fmt.Printf("%5.0f%%  %13.2f%%  %13.2f%%  %13.2f%%  %13.2f%%\n",
			s*100, sampOnly*100, rrOnly*100, combined*100, (sampOnly+rrOnly)*100)
	}
	fmt.Println("paper: combined ≈ sampling + RR (statistical independence)")
	return nil
}

// Fig 4c: accuracy loss vs number of clients (s=0.9, p=0.9, q=0.6).
func runFig4c(fast bool) error {
	rng := rand.New(rand.NewSource(4))
	params := rr.Params{P: 0.9, Q: 0.6}
	sizes := []int{10, 100, 1000, 10000, 100000, 1000000}
	runs := 10
	if fast {
		sizes = sizes[:5]
		runs = 3
	}
	fmt.Printf("%10s  %14s\n", "clients", "accuracy loss")
	for _, n := range sizes {
		r := runs
		if n >= 100000 {
			r = 3
		}
		loss, err := simulateLoss(rng, n, 0.6, 0.9, params, false, r)
		if err != nil {
			return err
		}
		fmt.Printf("%10d  %13.2f%%\n", n, loss*100)
	}
	fmt.Println("paper: <100 clients → low utility; flat beyond ~10^4")
	return nil
}

// Fig 5a: native vs inverse query accuracy across truthful-"Yes"
// fractions (s=0.9, p=0.9, q=0.6, 10,000 answers).
func runFig5a(fast bool) error {
	rng := rand.New(rand.NewSource(5))
	n, runs := 10000, 20
	if fast {
		n, runs = 2000, 5
	}
	params := rr.Params{P: 0.9, Q: 0.6}
	fmt.Printf("%10s  %14s  %14s\n", "yes frac", "native query", "inverse query")
	for _, yf := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		nat, err := simulateLoss(rng, n, yf, 0.9, params, false, runs)
		if err != nil {
			return err
		}
		inv, err := simulateLoss(rng, n, yf, 0.9, params, true, runs)
		if err != nil {
			return err
		}
		fmt.Printf("%9.0f%%  %13.2f%%  %13.2f%%\n", yf*100, nat*100, inv*100)
	}
	fmt.Println("paper: at 10% yes, native ≈2.5% vs inverse ≈0.4%; curves cross near 50–60%")
	return nil
}

// Fig 5c: differential privacy level vs sampling fraction, PrivApprox
// (sampled randomized response) against RAPPOR (f=0.5, h=1), under the
// paper's parameter mapping p = 1−f, q = 0.5.
func runFig5c(fast bool) error {
	const f = 0.5
	params := rr.Params{P: 1 - f, Q: 0.5}
	rapporEps, err := rappor.EpsilonOneTime(f, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%6s  %12s  %12s\n", "s", "PrivApprox", "RAPPOR")
	for _, s := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
		priv, err := rr.EpsilonDPSampled(s, params)
		if err != nil {
			return err
		}
		fmt.Printf("%5.0f%%  %12.4f  %12.4f\n", s*100, priv, rapporEps)
	}
	fmt.Println("paper: PrivApprox strictly below RAPPOR for s<1; equal at s=1")
	return nil
}
