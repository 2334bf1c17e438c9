package rr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	valid := []Params{{P: 0.3, Q: 0.6}, {P: 1, Q: 0}, {P: 0.01, Q: 1}}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", p, err)
		}
	}
	invalid := []Params{{P: 0, Q: 0.5}, {P: -0.1, Q: 0.5}, {P: 1.1, Q: 0.5},
		{P: 0.5, Q: -0.1}, {P: 0.5, Q: 1.1}, {P: math.NaN(), Q: 0.5}}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
}

func TestInvertParams(t *testing.T) {
	p := Params{P: 0.7, Q: 0.9}
	inv := p.Invert()
	if inv.P != 0.7 || math.Abs(inv.Q-0.1) > 1e-15 {
		t.Errorf("Invert = %+v", inv)
	}
}

func TestRespondDeterministicCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// p=1: always truthful.
	rz, err := NewRandomizer(Params{P: 1, Q: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if rz.Respond(true) != true || rz.Respond(false) != false {
			t.Fatal("p=1 must echo the truth")
		}
	}
}

func TestResponseYesProbabilityMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	params := Params{P: 0.3, Q: 0.6}
	rz, err := NewRandomizer(params, rng)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 300000
	var yesTrue, yesFalse int
	for i := 0; i < trials; i++ {
		if rz.Respond(true) {
			yesTrue++
		}
		if rz.Respond(false) {
			yesFalse++
		}
	}
	gotTrue := float64(yesTrue) / trials
	gotFalse := float64(yesFalse) / trials
	if math.Abs(gotTrue-ResponseYesProbability(params, true)) > 0.005 {
		t.Errorf("Pr[Yes|true] = %v, want %v", gotTrue, ResponseYesProbability(params, true))
	}
	if math.Abs(gotFalse-ResponseYesProbability(params, false)) > 0.005 {
		t.Errorf("Pr[Yes|false] = %v, want %v", gotFalse, ResponseYesProbability(params, false))
	}
}

func TestEstimateYesUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	params := Params{P: 0.6, Q: 0.6}
	rz, err := NewRandomizer(params, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	const actualYes = 6000
	const rounds = 50
	var sum float64
	for r := 0; r < rounds; r++ {
		observed := 0
		for i := 0; i < n; i++ {
			if rz.Respond(i < actualYes) {
				observed++
			}
		}
		est, err := EstimateYes(params, observed, n)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / rounds
	if math.Abs(mean-actualYes)/actualYes > 0.01 {
		t.Errorf("mean estimate = %v, want ≈%v", mean, actualYes)
	}
}

func TestEstimateYesExactInversion(t *testing.T) {
	// With the analytic response probability the estimator recovers the
	// exact truthful count.
	params := Params{P: 0.3, Q: 0.9}
	n := 10000
	actualYes := 2500
	expectedObserved := float64(actualYes)*ResponseYesProbability(params, true) +
		float64(n-actualYes)*ResponseYesProbability(params, false)
	est, err := EstimateYes(params, int(math.Round(expectedObserved)), n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-float64(actualYes)) > 2 {
		t.Errorf("estimate = %v, want ≈%v", est, actualYes)
	}
}

func TestEstimateYesValidation(t *testing.T) {
	params := Params{P: 0.5, Q: 0.5}
	if _, err := EstimateYes(params, 1, 0); err == nil {
		t.Error("expected error for n = 0")
	}
	if _, err := EstimateYes(params, 5, 3); err == nil {
		t.Error("expected error for Ry > n")
	}
	if _, err := EstimateYes(Params{P: 0, Q: 0.5}, 1, 2); err == nil {
		t.Error("expected error for invalid params")
	}
}

func TestEstimateNoComplementsEstimateYes(t *testing.T) {
	// En ≡ n − Ey, and equals the direct inverted-mechanism estimator
	// (Rn − (1−p)(1−q)n)/p.
	f := func(pRaw, qRaw, obsRaw uint8) bool {
		params := Params{
			P: 0.05 + 0.9*float64(pRaw)/255,
			Q: 0.05 + 0.9*float64(qRaw)/255,
		}
		n := 10000
		obs := int(float64(n) * float64(obsRaw) / 255)
		en, err1 := EstimateNo(params, obs, n)
		ey, err2 := EstimateYes(params, obs, n)
		if err1 != nil || err2 != nil {
			return false
		}
		direct := (float64(n-obs) - (1-params.P)*(1-params.Q)*float64(n)) / params.P
		return math.Abs(en-(float64(n)-ey)) < 1e-6 && math.Abs(en-direct) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The Fig. 5a effect: at a low truthful-"Yes" fraction the inverted
// query's relative loss is far below the native query's for the same
// absolute estimation error.
func TestInversionReducesRelativeLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	params := Params{P: 0.9, Q: 0.6}
	rz, err := NewRandomizer(params, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	actualYes := 1000 // 10% "Yes" fraction, far from q = 0.6
	var lossNative, lossInverse float64
	const rounds = 30
	for r := 0; r < rounds; r++ {
		obs := 0
		for i := 0; i < n; i++ {
			if rz.Respond(i < actualYes) {
				obs++
			}
		}
		ey, err := EstimateYes(params, obs, n)
		if err != nil {
			t.Fatal(err)
		}
		en, err := EstimateNo(params, obs, n)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := AccuracyLoss(float64(actualYes), ey)
		if err != nil {
			t.Fatal(err)
		}
		li, err := AccuracyLoss(float64(n-actualYes), en)
		if err != nil {
			t.Fatal(err)
		}
		lossNative += ln / rounds
		lossInverse += li / rounds
	}
	if lossInverse >= lossNative {
		t.Errorf("inverse loss %v not below native loss %v", lossInverse, lossNative)
	}
}

func TestAccuracyLoss(t *testing.T) {
	loss, err := AccuracyLoss(100, 110)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-0.1) > 1e-12 {
		t.Errorf("loss = %v, want 0.1", loss)
	}
	if _, err := AccuracyLoss(0, 5); err == nil {
		t.Error("expected error for zero actual")
	}
}

// Paper Table 1 privacy levels: the table reports the zero-knowledge ε
// (technical report Eq. 19) at the experiment's sampling fraction s=0.6.
// All nine printed values must match to their 4 decimals.
func TestEpsilonZKMatchesPaperTable1(t *testing.T) {
	cases := []struct {
		p, q, want float64
	}{
		{0.3, 0.3, 1.7047},
		{0.3, 0.6, 1.3862},
		{0.3, 0.9, 1.2527},
		{0.6, 0.3, 2.5649},
		{0.6, 0.6, 2.0476},
		{0.6, 0.9, 1.7917},
		{0.9, 0.3, 4.1820},
		{0.9, 0.6, 3.5263},
		{0.9, 0.9, 3.1570},
	}
	for _, c := range cases {
		got, err := EpsilonZK(0.6, Params{P: c.p, Q: c.q})
		if err != nil {
			t.Fatalf("EpsilonZK(0.6, %v, %v): %v", c.p, c.q, err)
		}
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("EpsilonZK(0.6, %v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestEpsilonDPKnownValues(t *testing.T) {
	// Direct checks of Eq. 8.
	cases := []struct {
		p, q, want float64
	}{
		{0.3, 0.6, math.Log(0.72 / 0.42)},
		{0.9, 0.6, math.Log(16)},
		{0.5, 0.5, math.Log(3)},
	}
	for _, c := range cases {
		got, err := EpsilonDP(Params{P: c.p, Q: c.q})
		if err != nil {
			t.Fatalf("EpsilonDP(%v, %v): %v", c.p, c.q, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("EpsilonDP(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestEpsilonDPDegenerate(t *testing.T) {
	got, err := EpsilonDP(Params{P: 1, Q: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("EpsilonDP(p=1) = %v, want +Inf", got)
	}
	got, err = EpsilonDP(Params{P: 0.5, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("EpsilonDP(q=0) = %v, want +Inf", got)
	}
}

func TestEpsilonZKProperties(t *testing.T) {
	params := Params{P: 0.5, Q: 0.5}
	// Monotone increasing in s, diverging at s=1.
	prev := 0.0
	for _, s := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.9} {
		ezk, err := EpsilonZK(s, params)
		if err != nil {
			t.Fatal(err)
		}
		if ezk <= prev {
			t.Errorf("EpsilonZK not increasing at s=%v: %v <= %v", s, ezk, prev)
		}
		prev = ezk
	}
	ezk1, err := EpsilonZK(1, params)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ezk1, 1) {
		t.Errorf("EpsilonZK(1) = %v, want +Inf (ZK needs sampling)", ezk1)
	}
}

func TestEpsilonZKValidation(t *testing.T) {
	if _, err := EpsilonZK(0, Params{P: 0.5, Q: 0.5}); err == nil {
		t.Error("expected error for s = 0")
	}
	if _, err := EpsilonZK(1.2, Params{P: 0.5, Q: 0.5}); err == nil {
		t.Error("expected error for s > 1")
	}
}

func TestEpsilonDPSampledProperties(t *testing.T) {
	params := Params{P: 0.5, Q: 0.5}
	edp, err := EpsilonDP(params)
	if err != nil {
		t.Fatal(err)
	}
	// At s=1 the amplified bound equals ε_dp (Fig. 5c's meeting point).
	e1, err := EpsilonDPSampled(1, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e1-edp) > 1e-12 {
		t.Errorf("EpsilonDPSampled(1) = %v, want ε_dp = %v", e1, edp)
	}
	// Monotone increasing in s and strictly below ε_dp for s < 1.
	prev := 0.0
	for _, s := range []float64{0.1, 0.4, 0.6, 0.9} {
		e, err := EpsilonDPSampled(s, params)
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev || e >= edp {
			t.Errorf("EpsilonDPSampled(%v) = %v out of order (prev %v, ε_dp %v)", s, e, prev, edp)
		}
		prev = e
	}
	if _, err := EpsilonDPSampled(0, params); err == nil {
		t.Error("expected error for s = 0")
	}
}

func TestSamplingForEpsilonZKRoundTrip(t *testing.T) {
	f := func(sRaw, pRaw, qRaw uint8) bool {
		s := 0.05 + 0.9*float64(sRaw)/255
		params := Params{
			P: 0.05 + 0.9*float64(pRaw)/255,
			Q: 0.05 + 0.9*float64(qRaw)/255,
		}
		ezk, err := EpsilonZK(s, params)
		if err != nil {
			return false
		}
		got, err := SamplingForEpsilonZK(ezk, params)
		if err != nil {
			return false
		}
		return math.Abs(got-s) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplingForEpsilonZKValidation(t *testing.T) {
	if _, err := SamplingForEpsilonZK(-1, Params{P: 0.5, Q: 0.5}); err == nil {
		t.Error("expected error for negative target")
	}
	if _, err := SamplingForEpsilonZK(1, Params{P: 1, Q: 0.5}); err == nil {
		t.Error("expected error for infinite ε_dp")
	}
}

func TestRespondBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rz, err := NewRandomizer(Params{P: 1, Q: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bits := []byte{0b10110010, 0b00000001}
	orig := append([]byte(nil), bits...)
	rz.RespondBits(bits, 9)
	// p=1 keeps every bit.
	for i := range bits {
		if bits[i] != orig[i] {
			t.Fatalf("p=1 changed bits: %08b -> %08b", orig[i], bits[i])
		}
	}
	// p→0, q=1 forces all answered bits to 1.
	rz2, err := NewRandomizer(Params{P: 1e-12, Q: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 2)
	rz2.RespondBits(zero, 9)
	if zero[0] != 0xFF || zero[1] != 0x01 {
		t.Errorf("forced-yes bits = %08b %08b", zero[0], zero[1])
	}
	// Bits beyond nbits must stay untouched.
	if zero[1]&0xFE != 0 {
		t.Error("bits beyond nbits were modified")
	}
}

func TestSimulateAccuracyLossSmallForHighP(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lossHigh, err := SimulateAccuracyLoss(Params{P: 0.9, Q: 0.6}, 0.6, 10000, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	lossLow, err := SimulateAccuracyLoss(Params{P: 0.3, Q: 0.6}, 0.6, 10000, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lossHigh >= lossLow {
		t.Errorf("loss(p=0.9)=%v should beat loss(p=0.3)=%v", lossHigh, lossLow)
	}
	if lossHigh > 0.05 {
		t.Errorf("loss(p=0.9)=%v unexpectedly large", lossHigh)
	}
}

func TestSimulateAccuracyLossValidation(t *testing.T) {
	if _, err := SimulateAccuracyLoss(Params{P: 0.5, Q: 0.5}, -0.1, 100, 1, nil); err == nil {
		t.Error("expected error for bad fraction")
	}
	if _, err := SimulateAccuracyLoss(Params{P: 0.5, Q: 0.5}, 0.5, 0, 1, nil); err == nil {
		t.Error("expected error for n = 0")
	}
	if _, err := SimulateAccuracyLoss(Params{P: 0.5, Q: 0.5}, 0, 100, 1, nil); err == nil {
		t.Error("expected error for zero yes answers")
	}
}
