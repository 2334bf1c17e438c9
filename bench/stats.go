package main

import (
	"math"
	"sort"
)

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(ascending []float64, p float64) float64 {
	if len(ascending) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(ascending))))
	return ascending[max(rank, 1)-1]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the benchmark's acceptance rule uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := sorted(values)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
