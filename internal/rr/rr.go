// Package rr implements PrivApprox's randomized response mechanism
// (paper §3.2.2): each participating client flips a first coin with
// probability p of heads — heads means answering truthfully — and
// otherwise flips a second coin with probability q of heads, answering
// "Yes" on heads and "No" on tails. The aggregator inverts the mechanism
// with the unbiased estimator of Eq. 5, and the privacy level follows
// Eq. 8 (differential privacy) amplified by client-side sampling into the
// zero-knowledge bound.
package rr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"privapprox/internal/seeded"
)

// Errors reported by parameter validation and the estimators.
var (
	errBadParam = errors.New("rr: parameter out of range")
	errNoData   = errors.New("rr: no responses")
)

// Params are the two randomization coin biases. P is the probability the
// first coin comes up heads (answer truthfully); Q is the probability the
// second coin comes up heads (forced "Yes").
type Params struct {
	P float64
	Q float64
}

// Validate checks that both probabilities are within [0, 1] and that the
// mechanism is invertible (P > 0: otherwise responses carry no signal).
func (pr Params) Validate() error {
	if math.IsNaN(pr.P) || pr.P <= 0 || pr.P > 1 {
		return fmt.Errorf("%w: p=%v (need 0 < p ≤ 1)", errBadParam, pr.P)
	}
	if math.IsNaN(pr.Q) || pr.Q < 0 || pr.Q > 1 {
		return fmt.Errorf("%w: q=%v (need 0 ≤ q ≤ 1)", errBadParam, pr.Q)
	}
	return nil
}

// Invert returns the parameters of the inverted query (paper §3.3.2):
// tracking truthful "No" answers instead of truthful "Yes" answers means
// the forced answer becomes "No" with probability q, i.e. the second coin
// bias flips to 1−q. The first coin is unchanged.
func (pr Params) Invert() Params {
	return Params{P: pr.P, Q: 1 - pr.Q}
}

// Randomizer applies the two-coin mechanism with a caller-supplied PRNG.
type Randomizer struct {
	params Params
	rng    *rand.Rand
	// thTrue and thFalse are the truth-conditioned "Yes" probabilities
	// scaled to uint64 thresholds: a lane answers "Yes" iff its uniform
	// 64-bit draw is below the threshold, with
	// Pr[Yes | truth] = p + (1−p)q, Pr[Yes | ¬truth] = (1−p)q.
	thTrue  uint64
	thFalse uint64
}

// NewRandomizer validates the parameters and returns a Randomizer. A nil
// rng gets a private, randomly-seeded source.
func NewRandomizer(params Params, rng *rand.Rand) (*Randomizer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = seeded.New(rand.Int63())
	}
	return &Randomizer{
		params:  params,
		rng:     rng,
		thTrue:  probThreshold(responseYesProbability(params, true)),
		thFalse: probThreshold(responseYesProbability(params, false)),
	}, nil
}

// probThreshold maps a probability to the uint64 threshold t such that a
// uniform word u answers "Yes" iff u < t (with t = MaxUint64 reserved to
// mean "always", keeping p = 1 exact).
func probThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * (1 << 63) * 2)
}

// Respond randomizes one truthful bit.
func (r *Randomizer) Respond(truth bool) bool {
	if r.rng.Float64() < r.params.P {
		return truth
	}
	return r.rng.Float64() < r.params.Q
}

// RespondBits randomizes every bit of a packed bit vector of nbits bits
// independently, in place; bits past nbits are left as they are. Each
// bucket of a query answer is perturbed on its own, exactly as the
// paper's per-bucket binary answers require.
//
// The mechanism is the same two-coin process as Respond, taken 64
// buckets at a time. Conditioned on the truthful bit, a bucket answers
// "Yes" with probability a = p + (1−p)q (truthful "Yes") or b = (1−p)q
// (truthful "No"), so with a Bernoulli(a) mask A and a Bernoulli(b) mask
// B over the 64 lanes the response is truth&A | ^truth&B. Each mask lane
// is the comparison u < threshold of its own uniform 64-bit u — the
// distribution a per-bucket word would give, at the same 2⁻⁶⁴ resolution
// — but decided bit-serially across all lanes at once (see mask), which
// takes about eight PRNG words per 64 lanes instead of 64. It performs no
// allocations and no floating-point conversions.
func (r *Randomizer) RespondBits(bits []byte, nbits int) {
	for off := 0; off < nbits; off += 64 {
		n := min(nbits-off, 64)
		lanes := laneMask(n)
		a := r.mask(r.thTrue, lanes)
		b := r.mask(r.thFalse, lanes)
		chunk := bits[off/8 : off/8+(n+7)/8]
		truth := loadLanes(chunk)
		storeLanes(chunk, truth&a|^truth&b|truth&^lanes)
	}
}

// Skip draws and discards exactly the randomness RespondBits(·, nbits)
// would consume: the same two masks per 64 buckets, whose draw count
// depends on the PRNG words and the bucket count but never on the
// truthful bits. A client resuming mid-stream after a restart
// fast-forwards each subscription's randomizer through the epochs it
// answered in a previous life, so the coins it flips from here on are the
// ones an uninterrupted run would have flipped.
func (r *Randomizer) Skip(nbits int) {
	for off := 0; off < nbits; off += 64 {
		lanes := laneMask(min(nbits-off, 64))
		r.mask(r.thTrue, lanes)
		r.mask(r.thFalse, lanes)
	}
}

// mask returns a word whose lanes (the set bits of lanes) are
// independently 1 with probability threshold/2⁶⁴, threshold MaxUint64
// meaning always. Lane i stands for a uniform 64-bit u_i compared with
// the threshold t most-significant bit first: draw k supplies bit 63−k
// of every lane's u at once, and a lane is decided at the first bit
// where u_i and t differ — "Yes" if t has the 1 there — so the loop stops
// as soon as no lane is undecided, about log₂(lanes)+2 draws. A lane
// still undecided after 64 draws has u_i = t, which is not below it.
func (r *Randomizer) mask(threshold, lanes uint64) uint64 {
	switch threshold {
	case 0:
		return 0
	case math.MaxUint64:
		return lanes
	}
	var yes uint64
	open := lanes
	for bit := 63; bit >= 0 && open != 0; bit-- {
		w := r.rng.Uint64()
		if threshold>>bit&1 != 0 {
			yes |= open &^ w
			open &= w
		} else {
			open &^= w
		}
	}
	return yes
}

// laneMask has the low n bits set, 1 ≤ n ≤ 64.
func laneMask(n int) uint64 { return math.MaxUint64 >> (64 - n) }

// loadLanes reads up to eight bytes of a packed bit vector as one
// little-endian word: bucket i of the chunk is bit i.
func loadLanes(b []byte) uint64 {
	if len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i, x := range b {
		w |= uint64(x) << (8 * i)
	}
	return w
}

// storeLanes writes loadLanes' word back.
func storeLanes(b []byte, w uint64) {
	if len(b) == 8 {
		binary.LittleEndian.PutUint64(b, w)
		return
	}
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
}

// EstimateYes inverts the mechanism: given Ry observed "Yes" responses
// among n randomized responses, it returns the unbiased estimate of the
// number of truthful "Yes" answers (Eq. 5):
//
//	Ey = (Ry − (1−p)·q·n) / p
func EstimateYes(params Params, observedYes, n int) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, errNoData
	}
	if observedYes < 0 || observedYes > n {
		return 0, fmt.Errorf("%w: Ry=%d of n=%d", errBadParam, observedYes, n)
	}
	return (float64(observedYes) - (1-params.P)*params.Q*float64(n)) / params.P, nil
}

// EstimateNo estimates the number of truthful "No" answers — the
// quantity the inverted query of §3.3.2 reports. Under the two-coin
// mechanism Pr[No | truth=No] = p + (1−p)(1−q), so
//
//	En = (Rn − (1−p)·(1−q)·n) / p,  Rn = n − Ry.
//
// Algebraically En ≡ n − Ey, so inversion does not change the point
// estimate of either count; what changes is the *relative* accuracy
// loss: when few clients truthfully answer "Yes", |An − En|/An is far
// smaller than |Ay − Ey|/Ay for the same absolute error, which is
// exactly the Fig. 5a effect.
func EstimateNo(params Params, observedYes, n int) (float64, error) {
	ey, err := EstimateYes(params, observedYes, n)
	if err != nil {
		return 0, err
	}
	return float64(n) - ey, nil
}

// AccuracyLoss is the paper's utility metric (Eq. 6):
// η = |actual − estimated| / actual. The actual count must be nonzero.
func AccuracyLoss(actual, estimated float64) (float64, error) {
	if actual == 0 {
		return 0, fmt.Errorf("%w: actual count is zero", errBadParam)
	}
	return math.Abs(actual-estimated) / math.Abs(actual), nil
}

// EpsilonDP returns the differential privacy level of the randomized
// response mechanism (Eq. 8):
//
//	ε = ln( (p + (1−p)·q) / ((1−p)·q) )
//
// It is +Inf when the mechanism is deterministic for truthful "Yes"
// holders ((1−p)·q = 0), i.e. no privacy.
func EpsilonDP(params Params) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	denom := (1 - params.P) * params.Q
	if denom == 0 {
		return math.Inf(1), nil
	}
	return math.Log((params.P + denom) / denom), nil
}

// EpsilonZK returns the zero-knowledge privacy level of the combined
// sampling-then-randomized-response mechanism at sampling fraction s
// (the technical report's Eq. 19, which Table 1 and Fig. 7b report):
//
//	ε_zk = ln( (1 + s·(2−s)·(e^{ε_dp} − 1)) / (1−s) )
//
// The closed form was recovered by exact fit against all nine Table 1
// entries at the paper's stated s = 0.6 (every entry matches to the
// printed 4 decimals). Zero-knowledge privacy requires genuine sampling:
// the bound diverges as s → 1, matching the paper's plots, which stop at
// a 90% sampling fraction.
func EpsilonZK(s float64, params Params) (float64, error) {
	if math.IsNaN(s) || s <= 0 || s > 1 {
		return 0, fmt.Errorf("%w: s=%v (need 0 < s ≤ 1)", errBadParam, s)
	}
	eps, err := EpsilonDP(params)
	if err != nil {
		return 0, err
	}
	if s == 1 || math.IsInf(eps, 1) {
		return math.Inf(1), nil
	}
	return math.Log((1 + s*(2-s)*(math.Exp(eps)-1)) / (1 - s)), nil
}

// EpsilonDPSampled returns the differential privacy level of the
// combined mechanism under the standard privacy-amplification-by-
// subsampling bound:
//
//	ε'_dp = ln(1 + s·(e^{ε_dp} − 1))
//
// This is the quantity Fig. 5c plots when comparing PrivApprox against
// RAPPOR: it equals ε_dp at s = 1 and tends to 0 as s → 0.
func EpsilonDPSampled(s float64, params Params) (float64, error) {
	if math.IsNaN(s) || s <= 0 || s > 1 {
		return 0, fmt.Errorf("%w: s=%v (need 0 < s ≤ 1)", errBadParam, s)
	}
	eps, err := EpsilonDP(params)
	if err != nil {
		return 0, err
	}
	if math.IsInf(eps, 1) {
		return math.Inf(1), nil
	}
	return math.Log(1 + s*(math.Exp(eps)-1)), nil
}

// SamplingForEpsilonZK inverts EpsilonZK: it returns the sampling
// fraction s ∈ (0, 1) that achieves the target zero-knowledge level for
// fixed randomization parameters (the paper's Fig. 7 sweep computes s
// from Eq. 19 this way). It returns an error when the target is not
// achievable, i.e. below the s→0 limit ln(1) = 0 or when ε_dp is +Inf.
func SamplingForEpsilonZK(epsZK float64, params Params) (float64, error) {
	if math.IsNaN(epsZK) || epsZK <= 0 {
		return 0, fmt.Errorf("%w: epsZK=%v", errBadParam, epsZK)
	}
	eps, err := EpsilonDP(params)
	if err != nil {
		return 0, err
	}
	if math.IsInf(eps, 1) {
		return 0, fmt.Errorf("%w: ε_dp is infinite, no sampling fraction achieves a ZK bound", errBadParam)
	}
	// Solve E(1−s) = 1 + s(2−s)A for s, where A = e^{ε_dp}−1, E = e^{ε_zk}:
	// As² − (2A+E)s + (E−1) = 0, taking the root in (0, 1).
	a := math.Exp(eps) - 1
	e := math.Exp(epsZK)
	if a == 0 {
		// Perfectly private core: ε_zk = ln(1/(1−s)) ⇒ s = 1 − e^{−ε_zk}.
		return 1 - 1/e, nil
	}
	disc := (2*a+e)*(2*a+e) - 4*a*(e-1)
	if disc < 0 {
		return 0, fmt.Errorf("%w: target ε_zk=%v unreachable for %+v", errBadParam, epsZK, params)
	}
	s := ((2*a + e) - math.Sqrt(disc)) / (2 * a)
	if s <= 0 || s >= 1 {
		return 0, fmt.Errorf("%w: target ε_zk=%v maps to s=%v outside (0,1)", errBadParam, epsZK, s)
	}
	return s, nil
}

// responseYesProbability returns Pr[response = Yes] for a client whose
// truthful answer is truth. Useful for analytical tests and the SplitX /
// RAPPOR comparisons.
func responseYesProbability(params Params, truth bool) float64 {
	if truth {
		return params.P + (1-params.P)*params.Q
	}
	return (1 - params.P) * params.Q
}

// SimulateAccuracyLoss reproduces the paper's "experimental method" for
// estimating the accuracy loss of the randomized response process
// (§3.2.4): it runs rounds micro-benchmarks over a synthetic population
// of n answers with the given truthful-"Yes" fraction, and returns the
// mean accuracy loss (Eq. 6) across rounds. Sampling is not applied,
// matching the paper's setup.
func SimulateAccuracyLoss(params Params, yesFraction float64, n, rounds int, rng *rand.Rand) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	if yesFraction < 0 || yesFraction > 1 {
		return 0, fmt.Errorf("%w: yesFraction=%v", errBadParam, yesFraction)
	}
	if n <= 0 || rounds <= 0 {
		return 0, fmt.Errorf("%w: n=%d rounds=%d", errBadParam, n, rounds)
	}
	if rng == nil {
		rng = seeded.New(rand.Int63())
	}
	rz, err := NewRandomizer(params, rng)
	if err != nil {
		return 0, err
	}
	actualYes := int(math.Round(yesFraction * float64(n)))
	if actualYes == 0 {
		return 0, fmt.Errorf("%w: zero truthful yes answers", errBadParam)
	}
	var total float64
	for round := 0; round < rounds; round++ {
		observed := 0
		for i := 0; i < n; i++ {
			if rz.Respond(i < actualYes) {
				observed++
			}
		}
		est, err := EstimateYes(params, observed, n)
		if err != nil {
			return 0, err
		}
		loss, err := AccuracyLoss(float64(actualYes), est)
		if err != nil {
			return 0, err
		}
		total += loss
	}
	return total / float64(rounds), nil
}
