// Package budget implements PrivApprox's query execution budget
// (paper §2.1, §3.1, §5): the analyst attaches a budget — a privacy
// requirement, an accuracy bound, a latency SLA, or a resource cap — and
// the aggregator's initializer module converts it into the system
// parameters: the sampling fraction s and the randomization pair (p, q).
// A feedback controller re-tunes s between epochs when the measured
// error exceeds the target (§5's "feedback mechanism ... to re-tune the
// sampling and randomization parameters").
package budget

import (
	"errors"
	"fmt"
	"math"
	"time"

	"privapprox/internal/rr"
	"privapprox/internal/stats"
)

// Errors reported by budget derivation.
var (
	errUnsatisfiable = errors.New("budget: constraints unsatisfiable")
	errBadBudget     = errors.New("budget: invalid budget")
)

// Budget is everything the analyst may constrain. Zero values mean
// "unconstrained" except Q and Confidence, which default.
type Budget struct {
	// EpsilonZK is the zero-knowledge privacy requirement: the derived
	// parameters must satisfy ε_zk(s, p, q) ≤ EpsilonZK. Zero means the
	// default of defaultEpsilonZK.
	EpsilonZK float64
	// P and Q optionally pin the randomization coins; zero picks
	// defaults (P from the privacy requirement, Q = 0.6).
	P, Q float64
	// MaxAccuracyLoss bounds the expected sampling-induced relative
	// error of a bucket count at Confidence (e.g. 0.05 for 5%).
	MaxAccuracyLoss float64
	// Confidence for the accuracy bound; defaults to 0.95.
	Confidence float64
	// MaxLatency is the per-window processing SLA; combined with
	// ThroughputPerSec it caps how many answers may be admitted.
	MaxLatency time.Duration
	// ThroughputPerSec is the measured aggregator capacity in
	// answers/second, used with MaxLatency.
	ThroughputPerSec float64
	// MaxAnswersPerEpoch directly caps the expected number of
	// participating clients (network/resource budget).
	MaxAnswersPerEpoch int
}

// Defaults applied by Derive.
const (
	defaultEpsilonZK  = 2.0
	defaultQ          = 0.6
	defaultConfidence = 0.95
	// maxSamplingForZK keeps s strictly below 1: zero-knowledge privacy
	// requires genuine sampling (the ε_zk bound diverges at s = 1).
	maxSamplingForZK = 0.99
)

// Params is the derived system parameter triple the aggregator forwards
// to clients with the query.
type Params struct {
	S  float64
	RR rr.Params
}

// Validate checks the triple.
func (p Params) Validate() error {
	if p.S <= 0 || p.S > 1 || math.IsNaN(p.S) {
		return fmt.Errorf("%w: s=%v", errBadBudget, p.S)
	}
	return p.RR.Validate()
}

// EpsilonZK returns the zero-knowledge privacy level the triple
// provides.
func (p Params) EpsilonZK() (float64, error) {
	return rr.EpsilonZK(p.S, p.RR)
}

// Derive converts the budget into system parameters for a population of
// the given size. Derivation order mirrors the paper: privacy decides
// (p, q) and an upper bound on s; accuracy imposes a lower bound on s;
// latency/resource caps impose upper bounds. An empty feasible interval
// is an error — the analyst must relax the budget.
func (b Budget) Derive(population int) (Params, error) {
	if population <= 0 {
		return Params{}, fmt.Errorf("%w: population %d", errBadBudget, population)
	}
	epsZK := b.EpsilonZK
	if epsZK == 0 {
		epsZK = defaultEpsilonZK
	}
	if epsZK < 0 {
		return Params{}, fmt.Errorf("%w: negative EpsilonZK", errBadBudget)
	}
	conf := b.Confidence
	if conf == 0 {
		conf = defaultConfidence
	}
	if conf <= 0 || conf >= 1 {
		return Params{}, fmt.Errorf("%w: confidence %v", errBadBudget, conf)
	}
	q := b.Q
	if q == 0 {
		q = defaultQ
	}

	// Accuracy: a relative error bound at the given confidence needs at
	// least n0 samples; that is a lower bound on s.
	sMin := 1.0 / float64(population) // at least one expected participant
	if b.MaxAccuracyLoss > 0 {
		n0, err := requiredSampleSize(b.MaxAccuracyLoss, conf, population)
		if err != nil {
			return Params{}, err
		}
		if lower := float64(n0) / float64(population); lower > sMin {
			sMin = lower
		}
	}

	// Candidate first-coin biases: an explicit P, or a utility-first
	// descent — lowering p relaxes the privacy cap on s, so keep trying
	// until the accuracy floor fits under it.
	candidates := []float64{b.P}
	if b.P == 0 {
		candidates = []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
	}

	var lastErr error
	for _, p := range candidates {
		params := rr.Params{P: p, Q: q}
		if err := params.Validate(); err != nil {
			return Params{}, err
		}
		sMax, err := privacySamplingCap(epsZK, params)
		if err != nil {
			return Params{}, err
		}
		// Latency SLA: the aggregator admits at most capacity×SLA
		// answers per window.
		if b.MaxLatency > 0 && b.ThroughputPerSec > 0 {
			maxAnswers := b.ThroughputPerSec * b.MaxLatency.Seconds()
			if upper := maxAnswers / float64(population); upper < sMax {
				sMax = upper
			}
		}
		// Resource cap.
		if b.MaxAnswersPerEpoch > 0 {
			if upper := float64(b.MaxAnswersPerEpoch) / float64(population); upper < sMax {
				sMax = upper
			}
		}
		if sMax <= 0 {
			return Params{}, fmt.Errorf("%w: latency/resource budget admits no samples", errUnsatisfiable)
		}
		if sMin > sMax {
			lastErr = fmt.Errorf("%w: accuracy needs s ≥ %.4f but p=%.2f q=%.2f caps s ≤ %.4f", errUnsatisfiable, sMin, p, q, sMax)
			continue
		}
		out := Params{S: sMax, RR: params}
		if err := out.Validate(); err != nil {
			return Params{}, err
		}
		return out, nil
	}
	return Params{}, lastErr
}

// privacySamplingCap returns the largest sampling fraction keeping
// ε_zk(s, p, q) within the budget. ε_zk is increasing in s and spans
// (0, ∞) over s ∈ (0, 1), so the cap is the Eq. 19 inverse, bounded away
// from 1.
func privacySamplingCap(epsZK float64, params rr.Params) (float64, error) {
	s, err := rr.SamplingForEpsilonZK(epsZK, params)
	if err != nil {
		return 0, fmt.Errorf("%w: ε_zk=%v with p=%v q=%v: %v", errUnsatisfiable, epsZK, params.P, params.Q, err)
	}
	if s > maxSamplingForZK {
		s = maxSamplingForZK
	}
	return s, nil
}

// requiredSampleSize returns the SRS sample size needed so that the
// margin of error of a proportion estimate (worst case variance 1/4) is
// at most relErr·(population/2) — i.e. the relative error of a typical
// bucket count stays within relErr — with finite population correction.
func requiredSampleSize(relErr, confidence float64, population int) (int, error) {
	if relErr <= 0 || relErr >= 1 {
		return 0, fmt.Errorf("%w: accuracy loss target %v", errBadBudget, relErr)
	}
	z, err := stats.NormalQuantile(1 - (1-confidence)/2)
	if err != nil {
		return 0, err
	}
	// Absolute margin on the proportion: relErr × 0.5 (a typical bucket
	// holds about half the population in the worst case).
	e := relErr * 0.5
	n0 := z * z * 0.25 / (e * e)
	// Finite population correction: n = n0 / (1 + (n0-1)/U).
	u := float64(population)
	n := n0 / (1 + (n0-1)/u)
	res := int(math.Ceil(n))
	if res < 1 {
		res = 1
	}
	if res > population {
		res = population
	}
	return res, nil
}

// Controller is the epoch-to-epoch feedback loop: when the measured
// accuracy loss exceeds the target it raises the sampling fraction, and
// when comfortably below it lowers s to reclaim budget, clamped to the
// privacy-derived maximum. Randomization parameters never change — the
// privacy guarantee was promised to users and cannot be weakened by
// utility feedback.
type Controller struct {
	params   Params
	target   float64
	sMin     float64
	sMax     float64
	gainUp   float64
	gainDown float64
}

// NewController bounds s in [sMin, sMax] around the initial parameters.
func NewController(initial Params, targetLoss, sMin, sMax float64) (*Controller, error) {
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if targetLoss <= 0 || sMin <= 0 || sMax > 1 || sMin > sMax {
		return nil, fmt.Errorf("%w: target=%v bounds=[%v,%v]", errBadBudget, targetLoss, sMin, sMax)
	}
	if initial.S < sMin || initial.S > sMax {
		return nil, fmt.Errorf("%w: initial s=%v outside [%v,%v]", errBadBudget, initial.S, sMin, sMax)
	}
	return &Controller{
		params:   initial,
		target:   targetLoss,
		sMin:     sMin,
		sMax:     sMax,
		gainUp:   1.5,
		gainDown: 0.9,
	}, nil
}

// Params returns the current parameters.
func (c *Controller) Params() Params { return c.params }

// Update folds in the measured accuracy loss of the last window and
// returns the (possibly adjusted) parameters for the next epoch.
func (c *Controller) Update(measuredLoss float64) Params {
	switch {
	case measuredLoss > c.target:
		c.params.S = math.Min(c.sMax, c.params.S*c.gainUp)
	case measuredLoss < c.target/2:
		c.params.S = math.Max(c.sMin, c.params.S*c.gainDown)
	}
	return c.params
}
