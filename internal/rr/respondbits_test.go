package rr

// The statistical gate for the client's coin stream: RespondBits' mask
// kernel fed by the product's generator (internal/seeded). It checks
// that every bucket answers with the mechanism's exact conditional
// probability, independently of every other bucket and of the previous
// answer, at any bucket count, with the bits past the bucket count left
// alone; that Skip consumes exactly what RespondBits does; and that
// Eq. 5 stays unbiased on its output.
//
// Every test draws from fixed seeds, so the gate is deterministic. Its
// bounds sit zTail standard deviations out (a one-sided 10⁻⁶ tail), far
// enough that a correct kernel passes on any seed and close enough that
// a broken one fails on every seed. Two deliberate breaks are known to
// fail it:
//   - swapping thTrue and thFalse in NewRandomizer fails
//     TestRespondBitsChiSquare, TestRespondBitsIndependent,
//     TestRespondBitsWidths and TestRespondBitsEstimatorUnbiased: every
//     bucket answers with the other truth's probability;
//   - dropping the lane mask from RespondBits — a partial chunk treated
//     as 64 lanes, or the truth's bits past nbits not carried over —
//     fails TestRespondBitsWidths.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privapprox/internal/seeded"
)

const zTail = 4.75

// chiCritical is the Wilson–Hilferty approximation of the χ² quantile
// with k degrees of freedom at the standard normal deviate z.
func chiCritical(k int, z float64) float64 {
	c := 2 / (9 * float64(k))
	return float64(k) * math.Pow(1-c+z*math.Sqrt(c), 3)
}

// chiSquare1 returns the 1-degree-of-freedom chi-square statistic for an
// observed yes-count against an expected probability.
func chiSquare1(yes, n int, p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	expYes := p * float64(n)
	expNo := (1 - p) * float64(n)
	dYes := float64(yes) - expYes
	dNo := float64(n-yes) - expNo
	return dYes*dYes/expYes + dNo*dNo/expNo
}

func bitAt(b []byte, i int) int { return int(b[i/8]>>(i%8)) & 1 }

// randomTruth sets the first nbits bits of v from rng and leaves the
// rest of v alone.
func randomTruth(rng *rand.Rand, v []byte, nbits int) {
	for i := 0; i < nbits; i++ {
		v[i/8] = v[i/8]&^(1<<(i%8)) | byte(rng.Intn(2))<<(i%8)
	}
}

// tally counts, per bucket and per truthful bit, the answers and the
// "Yes" responses among them.
type tally struct{ n, yes [2][]int }

func newTally(nbits int) *tally {
	var tl tally
	for tr := range tl.n {
		tl.n[tr] = make([]int, nbits)
		tl.yes[tr] = make([]int, nbits)
	}
	return &tl
}

func (tl *tally) add(truth, resp []byte) {
	for i := range tl.n[0] {
		tr := bitAt(truth, i)
		tl.n[tr][i]++
		tl.yes[tr][i] += bitAt(resp, i)
	}
}

// check tests every (bucket, truth) cell against Pr[Yes | truth]: a
// degenerate probability must be met exactly, the others jointly by one
// χ² with a degree of freedom per cell, and each truth's pooled count by
// a 1-dof χ².
func (tl *tally) check(t *testing.T, what string, pr Params) {
	t.Helper()
	var chi float64
	dof := 0
	for tr := range tl.n {
		pi := responseYesProbability(pr, tr == 1)
		var n, yes int
		for i := range tl.n[tr] {
			n += tl.n[tr][i]
			yes += tl.yes[tr][i]
			switch {
			case pi <= 0 && tl.yes[tr][i] != 0, pi >= 1 && tl.yes[tr][i] != tl.n[tr][i]:
				t.Errorf("%s %+v truth=%d bucket %d: %d of %d yes, want exactly Pr=%v",
					what, pr, tr, i, tl.yes[tr][i], tl.n[tr][i], pi)
			case pi > 0 && pi < 1:
				chi += chiSquare1(tl.yes[tr][i], tl.n[tr][i], pi)
				dof++
			}
		}
		if c := chiSquare1(yes, n, pi); c > chiCritical(1, zTail) {
			t.Errorf("%s %+v truth=%d: pooled %d of %d yes, want Pr=%.4f (χ² %.1f)",
				what, pr, tr, yes, n, pi, c)
		}
	}
	if dof > 0 && chi > chiCritical(dof, zTail) {
		t.Errorf("%s %+v: per-bucket χ² %.1f over %d cells, critical %.1f",
			what, pr, chi, dof, chiCritical(dof, zTail))
	}
}

// TestRespondBitsChiSquare checks Pr[Yes | truth] = p + (1−p)q and
// Pr[Yes | ¬truth] = (1−p)q bucket by bucket over a (p, q) grid that
// includes the exact corners p = 1, q = 0 and q = 1. Truths are random
// per answer, so every bucket sees both.
func TestRespondBitsChiSquare(t *testing.T) {
	const nbits, rounds = 128, 3000
	truths := seeded.New(99)
	truth := make([]byte, nbits/8)
	buf := make([]byte, nbits/8)
	for _, p := range []float64{0.1, 0.5, 0.9, 1} {
		for _, q := range []float64{0, 0.5, 1} {
			pr := Params{P: p, Q: q}
			rz, err := NewRandomizer(pr, seeded.New(42))
			if err != nil {
				t.Fatal(err)
			}
			tl := newTally(nbits)
			for r := 0; r < rounds; r++ {
				randomTruth(truths, truth, nbits)
				copy(buf, truth)
				rz.RespondBits(buf, nbits)
				tl.add(truth, buf)
			}
			tl.check(t, "RespondBits", pr)
		}
	}
}

// TestRespondBitsIndependent checks that buckets are independent of one
// another and of the previous answer: with standardized residuals
// r_i = (y_i − π_i)/σ_i, the scaled correlation √N·mean(r_i·r_j) of every
// bucket pair, and √(N−1)·mean(r_i(t)·r_i(t−1)) of every bucket with
// itself one answer earlier, is standard normal, so their squares sum to
// a χ² with one degree of freedom per pair.
func TestRespondBitsIndependent(t *testing.T) {
	const nbits, rounds = 128, 4000
	truth := make([]byte, nbits/8)
	randomTruth(seeded.New(5), truth, nbits)
	buf := make([]byte, nbits/8)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		pr := Params{P: p, Q: 0.5}
		rz, err := NewRandomizer(pr, seeded.New(77))
		if err != nil {
			t.Fatal(err)
		}
		var mean, sd [nbits]float64
		for i := range mean {
			mean[i] = responseYesProbability(pr, bitAt(truth, i) == 1)
			sd[i] = math.Sqrt(mean[i] * (1 - mean[i]))
		}
		var pair [nbits][nbits]float64
		var lag [nbits]float64
		var res, prev [nbits]float64
		for r := 0; r < rounds; r++ {
			copy(buf, truth)
			rz.RespondBits(buf, nbits)
			for i := range res {
				res[i] = (float64(bitAt(buf, i)) - mean[i]) / sd[i]
			}
			for i := range res {
				for j := i + 1; j < nbits; j++ {
					pair[i][j] += res[i] * res[j]
				}
				if r > 0 {
					lag[i] += res[i] * prev[i]
				}
			}
			prev = res
		}
		var chiPair, chiLag float64
		pairs := 0
		for i := range pair {
			for j := i + 1; j < nbits; j++ {
				chiPair += pair[i][j] * pair[i][j] / rounds
				pairs++
			}
			chiLag += lag[i] * lag[i] / (rounds - 1)
		}
		if c := chiCritical(pairs, zTail); chiPair > c {
			t.Errorf("%+v: bucket-pair correlation χ² %.0f over %d pairs, critical %.0f", pr, chiPair, pairs, c)
		}
		if c := chiCritical(nbits, zTail); chiLag > c {
			t.Errorf("%+v: consecutive-answer correlation χ² %.1f over %d buckets, critical %.1f", pr, chiLag, nbits, c)
		}
	}
}

// TestRespondBitsWidths runs bucket counts around the 64-lane chunk
// boundaries. Every bucket, the last of a partial chunk included, must
// answer with its exact probability, and every bit past nbits — in the
// final partial byte and in the bytes after it — must come back as it
// went in, whether it was 0 or 1.
func TestRespondBitsWidths(t *testing.T) {
	const rounds = 2000
	truths := seeded.New(3)
	for _, nbits := range []int{1, 11, 63, 64, 65, 128, 130} {
		nbytes := (nbits + 7) / 8
		for _, pr := range []Params{{P: 0.5, Q: 0.5}, {P: 1, Q: 0.5}} {
			rz, err := NewRandomizer(pr, seeded.New(int64(nbits)))
			if err != nil {
				t.Fatal(err)
			}
			truth := make([]byte, nbytes+2)
			buf := make([]byte, len(truth))
			tl := newTally(nbits)
			for r := 0; r < rounds; r++ {
				for i := range truth {
					truth[i] = 0xA5 ^ byte(r)
				}
				randomTruth(truths, truth, nbits)
				copy(buf, truth)
				rz.RespondBits(buf, nbits)
				for i := nbits; i < 8*len(buf); i++ {
					if bitAt(buf, i) != bitAt(truth, i) {
						t.Fatalf("nbits=%d %+v: bit %d past nbits changed", nbits, pr, i)
					}
				}
				tl.add(truth, buf)
			}
			tl.check(t, fmt.Sprintf("nbits=%d", nbits), pr)
		}
	}
}

// TestSkipMatchesRespondBits: Skip(nbits) leaves the stream where
// RespondBits(·, nbits) does, for random truths, every chunk shape and
// the parameter corners that draw nothing (p = 1, q = 0) or draw for one
// mask only.
func TestSkipMatchesRespondBits(t *testing.T) {
	truths := seeded.New(11)
	for _, pr := range []Params{{P: 0.1, Q: 0.5}, {P: 0.9, Q: 0.6}, {P: 1, Q: 0.5}, {P: 0.5, Q: 0}, {P: 0.3, Q: 1}} {
		for _, nbits := range []int{1, 11, 63, 64, 65, 128, 130} {
			answered, err := NewRandomizer(pr, seeded.New(int64(nbits)))
			if err != nil {
				t.Fatal(err)
			}
			skipped, _ := NewRandomizer(pr, seeded.New(int64(nbits)))
			buf := make([]byte, (nbits+7)/8)
			for r := 0; r < 50; r++ {
				randomTruth(truths, buf, nbits)
				answered.RespondBits(buf, nbits)
				skipped.Skip(nbits)
				if a, s := answered.rng.Uint64(), skipped.rng.Uint64(); a != s {
					t.Fatalf("%+v nbits=%d round %d: stream after RespondBits %#x, after Skip %#x", pr, nbits, r, a, s)
				}
			}
		}
	}
}

// TestRespondBitsEstimatorUnbiased feeds RespondBits output through the
// paper's Eq. 5 estimator: averaged over many randomized answers, the
// estimate must recover the truthful "Yes" count within zTail of its own
// standard error, Var(Ey) = (A·a(1−a) + (n−A)·b(1−b)) / p² per answer.
func TestRespondBitsEstimatorUnbiased(t *testing.T) {
	const (
		nbits     = 1000
		actualYes = 250
		rounds    = 400
	)
	for _, pr := range []Params{{P: 0.1, Q: 0.5}, {P: 0.3, Q: 0.6}, {P: 0.6, Q: 0.3}, {P: 0.9, Q: 0.9}} {
		rz, err := NewRandomizer(pr, seeded.New(7))
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]byte, (nbits+7)/8)
		for i := 0; i < actualYes; i++ {
			truth[i/8] |= 1 << (i % 8)
		}
		buf := make([]byte, len(truth))
		var sum float64
		for r := 0; r < rounds; r++ {
			copy(buf, truth)
			rz.RespondBits(buf, nbits)
			yes := 0
			for i := 0; i < nbits; i++ {
				yes += bitAt(buf, i)
			}
			est, err := EstimateYes(pr, yes, nbits)
			if err != nil {
				t.Fatal(err)
			}
			sum += est
		}
		a, b := responseYesProbability(pr, true), responseYesProbability(pr, false)
		v := (actualYes*a*(1-a) + (nbits-actualYes)*b*(1-b)) / (pr.P * pr.P)
		se := math.Sqrt(v / rounds)
		if mean := sum / rounds; math.Abs(mean-actualYes) > zTail*se {
			t.Errorf("%+v: mean estimate %.2f, want %d ± %.2f", pr, mean, actualYes, zTail*se)
		}
	}
}

// TestRespondBitsZeroAllocs pins the allocation contract of the kernel.
func TestRespondBitsZeroAllocs(t *testing.T) {
	rz, err := NewRandomizer(Params{P: 0.9, Q: 0.6}, seeded.New(3))
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]byte, 16)
	if allocs := testing.AllocsPerRun(200, func() {
		rz.RespondBits(bits, 121)
	}); allocs != 0 {
		t.Fatalf("RespondBits: %v allocs/op, want 0", allocs)
	}
}

// TestRespondAndRespondBitsAgreeOnMarginals: the scalar Respond and the
// mask kernel must implement the same mechanism — equal response
// marginals for both truth values, checked empirically.
func TestRespondAndRespondBitsAgreeOnMarginals(t *testing.T) {
	pr := Params{P: 0.6, Q: 0.3}
	const trials = 200000
	rzA, _ := NewRandomizer(pr, seeded.New(1))
	rzB, _ := NewRandomizer(pr, seeded.New(2))
	for _, truth := range []bool{true, false} {
		yesScalar := 0
		for i := 0; i < trials; i++ {
			if rzA.Respond(truth) {
				yesScalar++
			}
		}
		yesBatch := 0
		var b [1]byte
		for i := 0; i < trials; i++ {
			b[0] = 0
			if truth {
				b[0] = 1
			}
			rzB.RespondBits(b[:], 1)
			yesBatch += int(b[0] & 1)
		}
		pScalar := float64(yesScalar) / trials
		pBatch := float64(yesBatch) / trials
		if math.Abs(pScalar-pBatch) > 0.01 {
			t.Errorf("truth=%v: scalar marginal %.4f vs batched %.4f", truth, pScalar, pBatch)
		}
	}
}
