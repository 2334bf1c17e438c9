package sampling

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashDeciderDeterministic(t *testing.T) {
	d, err := NewHashDecider(0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(0); epoch < 10; epoch++ {
		a := d.Participate("client-17", epoch)
		b := d.Participate("client-17", epoch)
		if a != b {
			t.Fatalf("non-deterministic decision at epoch %d", epoch)
		}
	}
}

func TestHashDeciderRateAndIndependence(t *testing.T) {
	d, err := NewHashDecider(0.3, 99)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 100000
	hits := 0
	for i := 0; i < clients; i++ {
		if d.Participate(clientName(i), 1) {
			hits++
		}
	}
	rate := float64(hits) / clients
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("rate = %v, want ≈0.3", rate)
	}
	// Different epochs should flip a reasonable share of decisions.
	changed := 0
	for i := 0; i < clients; i++ {
		if d.Participate(clientName(i), 1) != d.Participate(clientName(i), 2) {
			changed++
		}
	}
	if changed == 0 {
		t.Error("decisions never change across epochs")
	}
}

func clientName(i int) string {
	return "c" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('0'+(i/17576)%10))
}

func TestNewHashDeciderValidation(t *testing.T) {
	if _, err := NewHashDecider(0, 1); err == nil {
		t.Error("expected error for fraction 0")
	}
	if _, err := NewHashDecider(1.5, 1); err == nil {
		t.Error("expected error for fraction > 1")
	}
}

func TestEstimateSumExactWhenFullySampled(t *testing.T) {
	sample := []float64{1, 0, 1, 1, 0, 1, 0, 0, 1, 1}
	est, err := estimateSum(sample, len(sample), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sum != 6 {
		t.Errorf("Sum = %v, want 6", est.Sum)
	}
	// Finite population correction makes the margin zero at full sampling.
	if est.Margin != 0 {
		t.Errorf("Margin = %v, want 0 at U=U'", est.Margin)
	}
}

func TestEstimateSumScales(t *testing.T) {
	sample := []float64{2, 2, 2, 2}
	est, err := estimateSum(sample, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.Sum != 200 {
		t.Errorf("Sum = %v, want 200", est.Sum)
	}
	if est.SampleSize != 4 || est.Population != 100 {
		t.Errorf("sizes = %d/%d", est.SampleSize, est.Population)
	}
	if est.Margin != 0 {
		// All values identical: sample variance 0, so margin must be 0.
		t.Errorf("Margin = %v, want 0 for zero-variance sample", est.Margin)
	}
}

func TestEstimateSumErrors(t *testing.T) {
	if _, err := estimateSum(nil, 10, 0.95); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := estimateSum([]float64{1, 2}, 1, 0.95); err == nil {
		t.Error("expected error for population < sample")
	}
	if _, err := estimateSum([]float64{1, 2}, 10, 1.5); err == nil {
		t.Error("expected error for bad confidence")
	}
	est, err := estimateSum([]float64{3}, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(est.Margin, 1) {
		t.Errorf("single-sample margin = %v, want +Inf", est.Margin)
	}
}

// The defining property of a confidence interval: the true sum is covered
// at roughly the nominal rate.
func TestEstimateSumCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const (
		population = 10000
		trials     = 300
		conf       = 0.95
	)
	// Fixed population of 0/1 answers with 60% ones, as in the paper's
	// microbenchmarks.
	pop := make([]float64, population)
	trueSum := 0.0
	for i := range pop {
		if rng.Float64() < 0.6 {
			pop[i] = 1
			trueSum++
		}
	}
	covered := 0
	for tr := 0; tr < trials; tr++ {
		var sample []float64
		for _, v := range pop {
			if rng.Float64() < 0.2 {
				sample = append(sample, v)
			}
		}
		est, err := estimateSum(sample, population, conf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Sum-trueSum) <= est.Margin {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 {
		t.Errorf("coverage = %v, want ≥ 0.90 at nominal 0.95", rate)
	}
}

// The closed-form moments behind Count against the same 0/1 sample fed
// value by value through estimateSum's Welford loop, from the one-answer
// sample (a vacuous +Inf bound) up; the two may differ in the last bits.
func TestSRSCountMatchesEstimateSum(t *testing.T) {
	f := func(yesRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		yes := int(yesRaw) % (n + 1)
		population := n*2 + 10
		srs, err := NewSRS(n, population, 0.9)
		if err != nil {
			return false
		}
		fromCount, err := srs.Count(yes)
		if err != nil {
			return false
		}
		sample := make([]float64, n)
		for i := 0; i < yes; i++ {
			sample[i] = 1
		}
		fromSum, err := estimateSum(sample, population, 0.9)
		if err != nil {
			return false
		}
		if n == 1 {
			return math.IsInf(fromCount.Margin, 1) && math.IsInf(fromSum.Margin, 1)
		}
		return math.Abs(fromCount.Sum-fromSum.Sum) < 1e-9 &&
			math.Abs(fromCount.Margin-fromSum.Margin) < 1e-9 &&
			fromCount.SampleSize == fromSum.SampleSize && fromCount.Population == fromSum.Population
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRSValidation(t *testing.T) {
	if _, err := NewSRS(0, 10, 0.95); !errors.Is(err, errEmptySample) {
		t.Errorf("empty sample: %v", err)
	}
	if _, err := NewSRS(3, 2, 0.95); !errors.Is(err, errBadPopulation) {
		t.Errorf("population below sample: %v", err)
	}
	if _, err := NewSRS(3, 10, 1); !errors.Is(err, errBadConfidence) {
		t.Errorf("confidence 1: %v", err)
	}
	srs, err := NewSRS(3, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srs.Count(5); err == nil {
		t.Error("expected error for yes > n")
	}
	if _, err := srs.Count(-1); err == nil {
		t.Error("expected error for negative yes")
	}
}
