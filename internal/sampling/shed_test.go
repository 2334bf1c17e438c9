package sampling

import (
	"fmt"
	"math"
	"testing"
)

// TestParticipateShedNested checks the property overload shedding
// rests on: the participant set at shed s is a nested subset of the
// participant set at any s' ≥ s, and shed = 1 is exactly Participate.
func TestParticipateShedNested(t *testing.T) {
	d, err := NewHashDecider(0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	sheds := []float64{0.1, 0.25, 0.5, 0.75, 1}
	for epoch := uint64(0); epoch < 20; epoch++ {
		for i := 0; i < 500; i++ {
			id := fmt.Sprintf("client-%d", i)
			prev := false
			for j, s := range sheds {
				in := d.ParticipateShed(id, epoch, s)
				if j > 0 && prev && !in {
					t.Fatalf("client %s epoch %d: in at shed %v but out at looser shed %v",
						id, epoch, sheds[j-1], s)
				}
				prev = in
			}
			if d.ParticipateShed(id, epoch, 1) != d.Participate(id, epoch) {
				t.Fatalf("client %s epoch %d: shed=1 differs from Participate", id, epoch)
			}
		}
	}
}

// TestParticipateShedRate checks the realized rate tracks s·shed.
func TestParticipateShedRate(t *testing.T) {
	d, err := NewHashDecider(0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 20000
	shed := 0.5
	in := 0
	for i := 0; i < clients; i++ {
		if d.ParticipateShed(fmt.Sprintf("c%d", i), 3, shed) {
			in++
		}
	}
	want := 0.8 * shed
	got := float64(in) / clients
	// 5σ binomial tolerance.
	tol := 5 * math.Sqrt(want*(1-want)/clients)
	if math.Abs(got-want) > tol {
		t.Fatalf("realized rate %v, want %v ± %v", got, want, tol)
	}
}

// TestEstimatorUnbiasedUnderTimeVaryingShed is the satellite property
// test: with the sampling fraction varying epoch to epoch (the shed
// schedule of an overloaded run), the SRS estimator — which scales by
// the *observed* sample size — stays unbiased. The mean of the per-epoch
// estimates must converge on the true population sum within a CLT
// tolerance built from the per-epoch sampling variances.
func TestEstimatorUnbiasedUnderTimeVaryingShed(t *testing.T) {
	const (
		population = 4000
		fraction   = 0.6
		epochs     = 400
	)
	d, err := NewHashDecider(fraction, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed client values: client i holds 1 iff i%3 == 0 (true sum is
	// independent of the sampling machinery).
	value := func(i int) float64 {
		if i%3 == 0 {
			return 1
		}
		return 0
	}
	trueSum := 0.0
	for i := 0; i < population; i++ {
		trueSum += value(i)
	}
	// Shed schedule tightening and recovering mid-run, as a controller
	// under a surge would drive it.
	shedAt := func(e uint64) float64 {
		switch {
		case e < 100:
			return 1
		case e < 200:
			return 0.5
		case e < 300:
			return 0.25
		default:
			return 0.7
		}
	}
	var meanEst, varSum float64
	for e := uint64(0); e < epochs; e++ {
		shed := shedAt(e)
		yes, n := 0, 0
		for i := 0; i < population; i++ {
			if d.ParticipateShed(fmt.Sprintf("client-%d", i), e, shed) {
				n++
				if value(i) == 1 {
					yes++
				}
			}
		}
		srs, err := NewSRS(n, population, 0.95)
		if err != nil {
			t.Fatalf("epoch %d (n=%d): %v", e, n, err)
		}
		est, err := srs.Count(yes)
		if err != nil {
			t.Fatal(err)
		}
		meanEst += est.Sum / epochs
		// Hypergeometric variance of the per-epoch estimate, for the
		// tolerance of the mean.
		u, up := float64(population), float64(n)
		p := trueSum / u
		varSum += u * u / up * p * (1 - p) * (u - up) / u
	}
	sigmaMean := math.Sqrt(varSum) / epochs
	if math.Abs(meanEst-trueSum) > 5*sigmaMean {
		t.Fatalf("mean estimate %v, true sum %v, tolerance %v — estimator biased under time-varying shed",
			meanEst, trueSum, 5*sigmaMean)
	}
}

// TestMarginGrowsAsShedTightens is the CI-width half of the satellite
// property test: at a fixed yes-fraction, tightening the shed threshold
// (shrinking the realized sample) must monotonically widen the reported
// margin — approximation spent shows up as honest error bars.
func TestMarginGrowsAsShedTightens(t *testing.T) {
	const population = 100000
	prevMargin := -1.0
	for _, shed := range []float64{1, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05} {
		n := int(float64(population) * 0.5 * shed) // base fraction 0.5
		yes := n / 4                               // fixed 25% yes-fraction
		srs, err := NewSRS(n, population, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		est, err := srs.Count(yes)
		if err != nil {
			t.Fatal(err)
		}
		if est.Margin <= prevMargin {
			t.Fatalf("shed %v: margin %v did not grow past %v", shed, est.Margin, prevMargin)
		}
		prevMargin = est.Margin
	}
}
