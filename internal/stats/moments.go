package stats

import "math"

// Running accumulates sample moments incrementally using Welford's
// algorithm, so windowed error estimation never needs to buffer values.
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	sum  float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.sum += x
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// merge folds another accumulator into r (parallel Welford merge), which
// lets per-partition statistics combine at the aggregator.
func (r *Running) merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n1, n2 := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	tot := n1 + n2
	r.mean += delta * n2 / tot
	r.m2 += o.m2 + delta*delta*n1*n2/tot
	r.sum += o.sum
	r.n += o.n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}

// N returns the number of samples observed.
func (r *Running) N() int64 { return r.n }

// Sum returns the running sum.
func (r *Running) Sum() float64 { return r.sum }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest observed value, or 0 for an empty accumulator.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observed value, or 0 for an empty accumulator.
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance (n-1 denominator); it is 0
// for fewer than two samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// ConfidenceInterval is a symmetric interval Estimate ± Margin carrying
// the confidence level it was computed at.
type ConfidenceInterval struct {
	Estimate   float64
	Margin     float64
	Confidence float64 // e.g. 0.95
}

// Lo returns the lower endpoint.
func (ci ConfidenceInterval) Lo() float64 { return ci.Estimate - ci.Margin }

// Hi returns the upper endpoint.
func (ci ConfidenceInterval) Hi() float64 { return ci.Estimate + ci.Margin }

// Contains reports whether v lies inside the interval.
func (ci ConfidenceInterval) Contains(v float64) bool {
	return v >= ci.Lo() && v <= ci.Hi()
}

// relativeError returns |estimate-exact| / |exact|, the paper's utility
// metric (accuracy loss), or 0 when exact == 0 and the estimate matches,
// and +Inf when exact == 0 but the estimate does not.
func relativeError(estimate, exact float64) float64 {
	if exact == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(estimate-exact) / math.Abs(exact)
}
