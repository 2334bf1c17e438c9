package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if got := r.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance is 4; sample variance is 32/7.
	if got := r.Variance(); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if got := r.Sum(); got != 40 {
		t.Errorf("Sum = %v, want 40", got)
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Variance() != 0 || r.Mean() != 0 || r.N() != 0 {
		t.Error("zero value should report zeros")
	}
	r.Add(3.5)
	if r.Variance() != 0 {
		t.Error("single sample variance should be 0")
	}
	if r.Mean() != 3.5 || r.Min() != 3.5 || r.Max() != 3.5 {
		t.Error("single sample stats wrong")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	f := func(seed int64, split uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + int(split)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 3
		}
		cut := n * int(split%97) / 97
		var all, left, right Running
		for _, x := range xs {
			all.Add(x)
		}
		for _, x := range xs[:cut] {
			left.Add(x)
		}
		for _, x := range xs[cut:] {
			right.Add(x)
		}
		left.merge(right)
		return left.N() == all.N() &&
			almostEqual(left.Mean(), all.Mean(), 1e-9) &&
			almostEqual(left.Variance(), all.Variance(), 1e-7) &&
			almostEqual(left.Sum(), all.Sum(), 1e-7) &&
			left.Min() == all.Min() && left.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmptySides(t *testing.T) {
	var a, b Running
	b.Add(1)
	b.Add(2)
	a.merge(b)
	if a.N() != 2 || a.Mean() != 1.5 {
		t.Error("merge into empty failed")
	}
	var empty Running
	a.merge(empty)
	if a.N() != 2 {
		t.Error("merge of empty changed accumulator")
	}
}

func TestConfidenceInterval(t *testing.T) {
	ci := ConfidenceInterval{Estimate: 100, Margin: 5, Confidence: 0.95}
	if ci.Lo() != 95 || ci.Hi() != 105 {
		t.Errorf("interval endpoints %v..%v", ci.Lo(), ci.Hi())
	}
	if !ci.Contains(100) || !ci.Contains(95) || !ci.Contains(105) {
		t.Error("endpoints should be contained")
	}
	if ci.Contains(94.999) || ci.Contains(105.001) {
		t.Error("values outside the margin should not be contained")
	}
}

func TestRelativeError(t *testing.T) {
	if got := relativeError(110, 100); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("RelativeError = %v, want 0.1", got)
	}
	if got := relativeError(90, 100); !almostEqual(got, 0.1, 1e-12) {
		t.Errorf("RelativeError = %v, want 0.1", got)
	}
	if got := relativeError(0, 0); got != 0 {
		t.Errorf("RelativeError(0,0) = %v, want 0", got)
	}
	if got := relativeError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(1,0) = %v, want +Inf", got)
	}
}
