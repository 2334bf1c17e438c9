package budget

import (
	"errors"
	"math"
	"testing"
	"time"

	"privapprox/internal/rr"
)

func TestDeriveDefaults(t *testing.T) {
	params, err := Budget{}.Derive(100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := params.Validate(); err != nil {
		t.Fatal(err)
	}
	// The derived triple must respect the default privacy budget.
	ezk, err := params.EpsilonZK()
	if err != nil {
		t.Fatal(err)
	}
	if ezk > defaultEpsilonZK+1e-9 {
		t.Errorf("ε_zk = %v exceeds default budget %v", ezk, defaultEpsilonZK)
	}
	if params.RR.Q != defaultQ {
		t.Errorf("Q = %v, want default %v", params.RR.Q, defaultQ)
	}
}

func TestDerivePrivacyBindsSampling(t *testing.T) {
	// With pinned p and q, the privacy budget should exactly determine s.
	b := Budget{EpsilonZK: 1.5, P: 0.5, Q: 0.6}
	params, err := b.Derive(100000)
	if err != nil {
		t.Fatal(err)
	}
	wantS, err := rr.SamplingForEpsilonZK(1.5, rr.Params{P: 0.5, Q: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(params.S-wantS) > 1e-9 {
		t.Errorf("s = %v, want %v from Eq. 19", params.S, wantS)
	}
}

func TestDeriveTightPrivacyMeansLowSampling(t *testing.T) {
	// Strong privacy with aggressive randomization parameters: still
	// satisfiable, but only by sampling very few clients.
	b := Budget{EpsilonZK: 0.5, P: 0.9, Q: 0.3}
	params, err := b.Derive(10000)
	if err != nil {
		t.Fatal(err)
	}
	if params.S > 0.05 {
		t.Errorf("s = %v, want tiny under ε_zk=0.5 with p=0.9", params.S)
	}
	ezk, err := params.EpsilonZK()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ezk-0.5) > 1e-9 {
		t.Errorf("ε_zk = %v, want 0.5 exactly (privacy binds)", ezk)
	}
}

func TestDeriveAccuracyFloorSatisfied(t *testing.T) {
	tight := Budget{MaxAccuracyLoss: 0.05, P: 0.5, Q: 0.6, EpsilonZK: 3}
	const population = 5000
	pt, err := tight.Derive(population)
	if err != nil {
		t.Fatal(err)
	}
	n0, err := requiredSampleSize(0.05, 0.95, population)
	if err != nil {
		t.Fatal(err)
	}
	if pt.S*population < float64(n0) {
		t.Errorf("s=%v yields %v expected samples, below floor %d", pt.S, pt.S*population, n0)
	}
}

func TestDeriveLowersPWhenAccuracyConflicts(t *testing.T) {
	// With free choice of p, a tight accuracy floor under a strict
	// privacy budget should force the initializer to pick a smaller p
	// rather than fail.
	b := Budget{EpsilonZK: 1.0, MaxAccuracyLoss: 0.05, Q: 0.6}
	params, err := b.Derive(5000)
	if err != nil {
		t.Fatal(err)
	}
	if params.RR.P >= 0.9 {
		t.Errorf("p = %v, expected the initializer to descend below 0.9", params.RR.P)
	}
	ezk, err := params.EpsilonZK()
	if err != nil {
		t.Fatal(err)
	}
	if ezk > 1.0+1e-9 {
		t.Errorf("ε_zk = %v exceeds budget 1.0", ezk)
	}
}

func TestDeriveAccuracyVsResourceConflict(t *testing.T) {
	// Tight accuracy on a big population, but a resource cap of 10
	// answers: infeasible.
	b := Budget{MaxAccuracyLoss: 0.01, MaxAnswersPerEpoch: 10, P: 0.5, Q: 0.6, EpsilonZK: 3}
	if _, err := b.Derive(1000000); !errors.Is(err, errUnsatisfiable) {
		t.Errorf("expected unsatisfiable, got %v", err)
	}
}

func TestDeriveLatencyCapsSampling(t *testing.T) {
	// Capacity 1000 answers/sec × 1s SLA = 1000 answers from 100k
	// clients → s ≤ 0.01.
	b := Budget{
		MaxLatency:       time.Second,
		ThroughputPerSec: 1000,
		P:                0.5, Q: 0.6, EpsilonZK: 3,
	}
	params, err := b.Derive(100000)
	if err != nil {
		t.Fatal(err)
	}
	if params.S > 0.01+1e-12 {
		t.Errorf("s = %v, want ≤ 0.01 under the SLA", params.S)
	}
}

func TestDeriveResourceCap(t *testing.T) {
	b := Budget{MaxAnswersPerEpoch: 500, P: 0.5, Q: 0.6, EpsilonZK: 3}
	params, err := b.Derive(10000)
	if err != nil {
		t.Fatal(err)
	}
	if params.S > 0.05+1e-12 {
		t.Errorf("s = %v, want ≤ 0.05 under the answer cap", params.S)
	}
}

func TestDeriveValidation(t *testing.T) {
	if _, err := (Budget{}).Derive(0); err == nil {
		t.Error("expected error for zero population")
	}
	if _, err := (Budget{EpsilonZK: -1}).Derive(10); err == nil {
		t.Error("expected error for negative epsilon")
	}
	if _, err := (Budget{Confidence: 2}).Derive(10); err == nil {
		t.Error("expected error for confidence > 1")
	}
	if _, err := (Budget{MaxAccuracyLoss: 2, P: 0.5}).Derive(10); err == nil {
		t.Error("expected error for accuracy loss ≥ 1")
	}
	if _, err := (Budget{P: 1.5}).Derive(10); err == nil {
		t.Error("expected error for bad P")
	}
}

func TestParamsValidateAndEpsilon(t *testing.T) {
	good := Params{S: 0.5, RR: rr.Params{P: 0.5, Q: 0.5}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := good.EpsilonZK(); err != nil {
		t.Fatal(err)
	}
	bad := Params{S: 0, RR: rr.Params{P: 0.5, Q: 0.5}}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for s = 0")
	}
}

func TestRequiredSampleSizeMonotone(t *testing.T) {
	n1, err := requiredSampleSize(0.05, 0.95, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := requiredSampleSize(0.01, 0.95, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	if n2 <= n1 {
		t.Errorf("tighter accuracy needs more samples: %d vs %d", n2, n1)
	}
	// Small populations cap at the population size.
	n3, err := requiredSampleSize(0.001, 0.99, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n3 > 50 {
		t.Errorf("sample size %d exceeds population", n3)
	}
}

func TestControllerRaisesOnHighError(t *testing.T) {
	initial := Params{S: 0.2, RR: rr.Params{P: 0.5, Q: 0.6}}
	c, err := NewController(initial, 0.05, 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Update(0.10) // loss above target → raise s
	if p.S <= 0.2 {
		t.Errorf("s = %v, want > 0.2", p.S)
	}
	// Repeated violations saturate at sMax.
	for i := 0; i < 20; i++ {
		p = c.Update(0.10)
	}
	if p.S != 0.9 {
		t.Errorf("s = %v, want clamp at 0.9", p.S)
	}
	// Randomization never changes.
	if p.RR != initial.RR {
		t.Error("controller must not touch randomization parameters")
	}
}

func TestControllerLowersOnLowError(t *testing.T) {
	initial := Params{S: 0.5, RR: rr.Params{P: 0.5, Q: 0.6}}
	c, err := NewController(initial, 0.05, 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Update(0.001) // far below target → reclaim budget
	if p.S >= 0.5 {
		t.Errorf("s = %v, want < 0.5", p.S)
	}
	// In the dead zone nothing moves.
	mid := c.Params().S
	p = c.Update(0.04)
	if p.S != mid {
		t.Errorf("s moved in dead zone: %v -> %v", mid, p.S)
	}
	// Clamp at sMin.
	for i := 0; i < 100; i++ {
		p = c.Update(0.0001)
	}
	if p.S != 0.01 {
		t.Errorf("s = %v, want clamp at 0.01", p.S)
	}
}

func TestControllerValidation(t *testing.T) {
	ok := Params{S: 0.5, RR: rr.Params{P: 0.5, Q: 0.6}}
	if _, err := NewController(ok, 0, 0.01, 0.9); err == nil {
		t.Error("expected error for zero target")
	}
	if _, err := NewController(ok, 0.05, 0.6, 0.9); err == nil {
		t.Error("expected error for initial s below sMin")
	}
	if _, err := NewController(Params{S: 0}, 0.05, 0.01, 0.9); err == nil {
		t.Error("expected error for invalid params")
	}
	if _, err := NewController(ok, 0.05, 0.9, 0.1); err == nil {
		t.Error("expected error for inverted bounds")
	}
}
