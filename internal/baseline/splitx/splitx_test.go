package splitx

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestRunPrivApproxCompletes(t *testing.T) {
	d, err := RunPrivApprox(500, 32)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("latency = %v", d)
	}
}

func TestRunSplitXComponents(t *testing.T) {
	comp, err := RunSplitX(500, 32, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if comp.Transmission <= 0 || comp.Computation <= 0 || comp.Shuffling <= 0 {
		t.Errorf("components = %+v", comp)
	}
	if comp.Total != comp.Transmission+comp.Computation+comp.Shuffling {
		t.Errorf("total %v != sum of components", comp.Total)
	}
}

// The Fig. 6 shape: SplitX's synchronized pipeline costs a multiple of
// PrivApprox's forward-only proxies on the same substrate.
func TestSplitXSlowerThanPrivApprox(t *testing.T) {
	const n = 3000
	// Median of 3 runs to de-noise CI machines.
	ratio := func() float64 {
		pa, err := RunPrivApprox(n, 32)
		if err != nil {
			t.Fatal(err)
		}
		sx, err := RunSplitX(n, 32, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return float64(sx.Total) / float64(pa)
	}
	rs := []float64{ratio(), ratio(), ratio()}
	sortFloats(rs)
	if rs[1] < 1.5 {
		t.Errorf("SplitX/PrivApprox latency ratio = %v, want ≥ 1.5", rs[1])
	}
}

func sortFloats(xs []float64) {
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[j] < xs[i] {
				xs[i], xs[j] = xs[j], xs[i]
			}
		}
	}
}

func TestLatencyRoughlyLinear(t *testing.T) {
	// The fastest of a few runs each: whatever else the machine is
	// testing at the moment must not decide the ratio.
	fastest := func(n int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			d, err := RunPrivApprox(n, 32)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, d)
		}
		return best
	}
	small, big := fastest(1000), fastest(4000)
	ratio := float64(big) / float64(small)
	// Linear extrapolation is what the Fig. 6 harness relies on; allow a
	// generous band around 4×.
	if ratio < 1.5 || ratio > 12 {
		t.Errorf("4× answers took %v× time; extrapolation assumption broken", ratio)
	}
}

func TestExtrapolate(t *testing.T) {
	if got := Extrapolate(time.Second, 1000, 4000); got != 4*time.Second {
		t.Errorf("Extrapolate = %v", got)
	}
	if got := Extrapolate(time.Second, 0, 100); got != 0 {
		t.Errorf("Extrapolate with zero base = %v", got)
	}
}

func TestLaplaceCentered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += laplace(rng, 1)
	}
	if math.Abs(sum/n) > 0.05 {
		t.Errorf("laplace mean = %v, want ≈0", sum/n)
	}
}
