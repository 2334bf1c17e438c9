// Package stats provides the statistical machinery PrivApprox relies on:
// Student-t and normal distributions for confidence intervals (paper
// Eq. 3), running sample moments, and histogram utilities used by the
// error-estimation module of the aggregator.
//
// Everything is implemented from scratch on top of math so the module
// stays dependency-free.
package stats

import (
	"errors"
	"math"
)

// errInvalidParam reports an out-of-domain distribution parameter.
var errInvalidParam = errors.New("stats: invalid parameter")

// normalCDF returns the standard normal cumulative distribution function
// evaluated at x.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the standard normal quantile (inverse CDF) at
// probability p in (0, 1). It uses Acklam's rational approximation with a
// single Halley refinement step, giving ~1e-15 absolute accuracy.
func NormalQuantile(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return 0, errInvalidParam
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One step of Halley's method against the true CDF.
	e := normalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x, nil
}

// lnBeta returns ln(B(a, b)).
func lnBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// regIncBeta returns the regularized incomplete beta function I_x(a, b),
// computed with the Lentz continued-fraction expansion.
func regIncBeta(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x) {
		return 0, errInvalidParam
	}
	if x == 0 {
		return 0, nil
	}
	if x == 1 {
		return 1, nil
	}
	// Front factor x^a (1-x)^b / (a B(a,b)).
	lnFront := a*math.Log(x) + b*math.Log(1-x) - lnBeta(a, b)
	if x < (a+1)/(a+b+2) {
		cf := betaContinuedFraction(a, b, x)
		return math.Exp(lnFront) * cf / a, nil
	}
	// Use the symmetry relation for faster convergence.
	cf := betaContinuedFraction(b, a, 1-x)
	lnFrontSym := b*math.Log(1-x) + a*math.Log(x) - lnBeta(a, b)
	return 1 - math.Exp(lnFrontSym)*cf/b, nil
}

// betaContinuedFraction evaluates the continued fraction for the
// incomplete beta function by the modified Lentz method.
func betaContinuedFraction(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-16
		fpMin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// studentTCDF returns the CDF of the Student t distribution with df
// degrees of freedom, evaluated at t.
func studentTCDF(t, df float64) (float64, error) {
	if df <= 0 {
		return 0, errInvalidParam
	}
	if math.IsInf(t, 1) {
		return 1, nil
	}
	if math.IsInf(t, -1) {
		return 0, nil
	}
	x := df / (df + t*t)
	ib, err := regIncBeta(df/2, 0.5, x)
	if err != nil {
		return 0, err
	}
	if t >= 0 {
		return 1 - 0.5*ib, nil
	}
	return 0.5 * ib, nil
}

// studentTQuantile returns the quantile of the Student t distribution with
// df degrees of freedom at probability p in (0, 1). For large df it falls
// back on the normal quantile; otherwise it refines a normal-based initial
// guess by bisection on the exact CDF.
func studentTQuantile(p, df float64) (float64, error) {
	if p <= 0 || p >= 1 || df <= 0 || math.IsNaN(p) {
		return 0, errInvalidParam
	}
	if p == 0.5 {
		return 0, nil
	}
	if df > 1e7 {
		return NormalQuantile(p)
	}
	z, err := NormalQuantile(p)
	if err != nil {
		return 0, err
	}
	// Cornish–Fisher style expansion as the initial guess.
	g1 := (z*z*z + z) / 4
	g2 := (5*z*z*z*z*z + 16*z*z*z + 3*z) / 96
	guess := z + g1/df + g2/(df*df)

	// Bracket the root around the guess, then bisect.
	lo, hi := guess-2, guess+2
	for i := 0; i < 64; i++ {
		c, err := studentTCDF(lo, df)
		if err != nil {
			return 0, err
		}
		if c < p {
			break
		}
		lo -= 4
	}
	for i := 0; i < 64; i++ {
		c, err := studentTCDF(hi, df)
		if err != nil {
			return 0, err
		}
		if c > p {
			break
		}
		hi += 4
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		c, err := studentTCDF(mid, df)
		if err != nil {
			return 0, err
		}
		if c < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// TCritical returns the two-sided critical value t_{1-alpha/2, df} used in
// the paper's Eq. 3 error bound. For example alpha = 0.05 gives the 95%
// confidence multiplier.
func TCritical(alpha float64, df int) (float64, error) {
	if alpha <= 0 || alpha >= 1 || df < 1 {
		return 0, errInvalidParam
	}
	return studentTQuantile(1-alpha/2, float64(df))
}
