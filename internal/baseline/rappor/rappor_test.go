package rappor

import (
	"errors"
	"math"
	"testing"

	"privapprox/internal/rr"
)

func TestEpsilonOneTimeMatchesPaperMapping(t *testing.T) {
	// The Fig. 5c mapping: with p = 1−f, q = 0.5, h = 1, RAPPOR's ε
	// equals PrivApprox's ε_dp.
	for _, f := range []float64{0.25, 0.5, 0.75} {
		rapporEps, err := EpsilonOneTime(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		privEps, err := rr.EpsilonDP(rr.Params{P: 1 - f, Q: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rapporEps-privEps) > 1e-12 {
			t.Errorf("f=%v: RAPPOR ε=%v vs PrivApprox ε_dp=%v", f, rapporEps, privEps)
		}
	}
}

func TestEpsilonOneTimeValidation(t *testing.T) {
	one, err := EpsilonOneTime(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * math.Log(3); math.Abs(one-want) > 1e-12 {
		t.Errorf("ε(f=0.5, h=2) = %v, want %v", one, want)
	}
	for _, c := range []struct {
		f float64
		h int
	}{{0, 1}, {2, 1}, {-0.5, 1}, {0.5, 0}} {
		if _, err := EpsilonOneTime(c.f, c.h); !errors.Is(err, ErrParams) {
			t.Errorf("f=%v h=%d: err = %v, want ErrParams", c.f, c.h, err)
		}
	}
}

// PrivApprox with sampling is strictly below RAPPOR at every s < 1 and
// meets it at s = 1 — the Fig. 5c curves.
func TestFig5cOrdering(t *testing.T) {
	const f = 0.5
	rapporEps, err := EpsilonOneTime(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := rr.Params{P: 1 - f, Q: 0.5}
	for _, s := range []float64{0.1, 0.4, 0.8, 0.99} {
		priv, err := rr.EpsilonDPSampled(s, params)
		if err != nil {
			t.Fatal(err)
		}
		if priv >= rapporEps {
			t.Errorf("s=%v: PrivApprox ε=%v not below RAPPOR ε=%v", s, priv, rapporEps)
		}
	}
	at1, err := rr.EpsilonDPSampled(1, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at1-rapporEps) > 1e-12 {
		t.Errorf("curves must meet at s=1: %v vs %v", at1, rapporEps)
	}
}
