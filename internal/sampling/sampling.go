// Package sampling implements PrivApprox's client-side Simple Random
// Sampling (paper §3.2.1): each client flips a coin with probability s to
// decide whether it participates in answering a query in the current
// epoch, and the aggregator scales the observed sum back to the
// population with the classical SRS estimator (Eq. 2) and its
// t-distribution error bound (Eq. 3–4).
package sampling

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"privapprox/internal/stats"
)

// Errors returned by the estimators.
var (
	errEmptySample   = errors.New("sampling: empty sample")
	errBadPopulation = errors.New("sampling: population smaller than sample")
	errBadFraction   = errors.New("sampling: fraction must be in (0, 1]")
	errBadConfidence = errors.New("sampling: confidence must be in (0, 1)")
)

// HashDecider makes deterministic participation decisions from
// (clientID, epoch, seed). Distributed clients reach the same verdict
// without coordination, and re-running an epoch is reproducible — the
// property the paper's "synchronization-free" architecture relies on.
type HashDecider struct {
	fraction float64
	seed     uint64
}

// NewHashDecider returns a deterministic decider for the given
// participation fraction and seed.
func NewHashDecider(fraction float64, seed uint64) (*HashDecider, error) {
	if fraction <= 0 || fraction > 1 || math.IsNaN(fraction) {
		return nil, fmt.Errorf("%w: %v", errBadFraction, fraction)
	}
	return &HashDecider{fraction: fraction, seed: seed}, nil
}

// uniform maps (clientID, epoch, seed) to a deterministic draw
// u ∈ [0, 1) — the coordinate behind Participate. Exposing it lets a
// shed threshold compose with the per-query fraction on the *same*
// draw: the participants at effective fraction f·shed are exactly the
// subset of the fraction-f participants with the smallest u, so
// tightening shed only removes clients, never swaps one set for
// another (a nested, deterministic shrink — the property that keeps
// shedding an SRS over the population).
func (d *HashDecider) uniform(clientID string, epoch uint64) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], d.seed)
	binary.BigEndian.PutUint64(buf[8:], epoch)
	h.Write(buf[:])
	h.Write([]byte(clientID))
	// FNV-1a's high bits mix poorly on short structured inputs, so run
	// the sum through a strong 64-bit finalizer (MurmurHash3 fmix64)
	// before mapping to [0, 1).
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// Participate reports whether the client participates in the epoch. The
// decision is a pure function of (clientID, epoch, seed).
func (d *HashDecider) Participate(clientID string, epoch uint64) bool {
	return d.uniform(clientID, epoch) < d.fraction
}

// ParticipateShed is Participate at the effective fraction s·shed,
// where shed ∈ (0, 1] is the overload-control threshold. Its
// participants are always a subset of Participate's for the same
// epoch (shed = 1 is exactly Participate), so overload shedding
// composes with per-query sampling without disturbing the coin
// streams of clients that keep participating.
func (d *HashDecider) ParticipateShed(clientID string, epoch uint64, shed float64) bool {
	return d.uniform(clientID, epoch) < d.fraction*shed
}

// SumEstimate is the approximate sum τ̂ with its error bound (paper
// Eq. 2–4): Sum ± Margin at the given confidence level.
type SumEstimate struct {
	Sum        float64 // τ̂, the scaled estimate of the population sum
	Margin     float64 // error bound at Confidence (Eq. 3)
	Confidence float64 // e.g. 0.95
	SampleSize int     // U′
	Population int     // U
}

// SRS is the simple-random-sampling estimator (Eq. 2–4) with everything
// fixed that the sample size U′, the population U and the confidence
// decide — the scale U/U′, the variance factors of Eq. 4 and the
// Student-t critical value, whose root-find costs about as much as a
// thousand of the estimates it bounds. A caller bounding many sums over
// one sample (the aggregator: every bucket of a fired window) builds it
// once and calls Sum or Count per value.
type SRS struct {
	sampleSize, population int
	confidence             float64
	u                      float64 // U
	scale                  float64 // U/U′
	varScale               float64 // U²/U′
	fpc                    float64 // U−U′, the finite population correction's numerator
	tcrit                  float64 // t(1−confidence, U′−1); unused at U′ = 1
}

// NewSRS validates the sample geometry and draws the one critical value.
func NewSRS(sampleSize, population int, confidence float64) (SRS, error) {
	if sampleSize <= 0 {
		return SRS{}, errEmptySample
	}
	if population < sampleSize {
		return SRS{}, fmt.Errorf("%w: U=%d < U'=%d", errBadPopulation, population, sampleSize)
	}
	if confidence <= 0 || confidence >= 1 {
		return SRS{}, fmt.Errorf("%w: %v", errBadConfidence, confidence)
	}
	u, uPrime := float64(population), float64(sampleSize)
	e := SRS{
		sampleSize: sampleSize, population: population, confidence: confidence,
		u: u, scale: u / uPrime, varScale: u * u / uPrime, fpc: u - uPrime,
	}
	if sampleSize > 1 {
		tcrit, err := stats.TCritical(1-confidence, sampleSize-1)
		if err != nil {
			return SRS{}, err
		}
		e.tcrit = tcrit
	}
	return e, nil
}

// Sum scales a sample sum to the population (τ̂ = U/U′ · Σ aᵢ, Eq. 2) and
// attaches the t-distribution error bound of Eq. 3 from the sample's
// unbiased variance σ² (Eq. 4 with the finite population correction:
// V̂ar(τ̂) = U²/U′ · σ² · (U−U′)/U).
func (e *SRS) Sum(sum, variance float64) SumEstimate {
	est := SumEstimate{
		Sum:        e.scale * sum,
		Confidence: e.confidence,
		SampleSize: e.sampleSize,
		Population: e.population,
	}
	if e.sampleSize == 1 {
		// No variance information; the bound is vacuous.
		est.Margin = math.Inf(1)
		return est
	}
	est.Margin = e.tcrit * math.Sqrt(e.varScale*variance*e.fpc/e.u)
	return est
}

// Count is Sum for 0/1 answers, yes of the sample's U′ being 1: the
// moments in closed form (mean = yes/U′, M2 = Σ(x−mean)²), no loop.
func (e *SRS) Count(yes int) (SumEstimate, error) {
	n := e.sampleSize
	if yes < 0 || yes > n {
		return SumEstimate{}, fmt.Errorf("sampling: invalid counts yes=%d n=%d", yes, n)
	}
	var variance float64
	if n > 1 {
		mean := float64(yes) / float64(n)
		m2 := float64(yes)*(1-mean)*(1-mean) + float64(n-yes)*mean*mean
		variance = m2 / float64(n-1)
	}
	return e.Sum(float64(yes), variance), nil
}

// estimateSum is NewSRS + Sum over a buffered sample.
func estimateSum(sample []float64, population int, confidence float64) (SumEstimate, error) {
	var acc stats.Running
	for _, v := range sample {
		acc.Add(v)
	}
	e, err := NewSRS(len(sample), population, confidence)
	if err != nil {
		return SumEstimate{}, err
	}
	return e.Sum(acc.Sum(), acc.Variance()), nil
}
