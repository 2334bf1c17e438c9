package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-2.5758293035489004, 0.005},
	}
	for _, c := range cases {
		if got := normalCDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("normalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.05, -1.6448536269514722},
		{0.999999, 4.753424308822899},
	}
	for _, c := range cases {
		got, err := NormalQuantile(c.p)
		if err != nil {
			t.Fatalf("NormalQuantile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRejectsDomain(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NormalQuantile(p); err == nil {
			t.Errorf("NormalQuantile(%v): expected error", p)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.98) + 0.01 // map into (0.01, 0.99)
		x, err := NormalQuantile(p)
		if err != nil {
			return false
		}
		return almostEqual(normalCDF(x), p, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		{1, 1, 0.3, 0.3},                  // uniform
		{2, 2, 0.5, 0.5},                  // symmetric
		{0.5, 0.5, 0.5, 0.5},              // arcsine distribution median
		{2, 3, 0.4, 0.5248},               // I_0.4(2,3) = 1-(1-x)^3(1+3x) ... check below
		{5, 1, 0.9, math.Pow(0.9, 5)},     // I_x(a,1) = x^a
		{1, 5, 0.1, 1 - math.Pow(0.9, 5)}, // I_x(1,b) = 1-(1-x)^b
	}
	for _, c := range cases {
		got, err := RegIncBeta(c.a, c.b, c.x)
		if err != nil {
			t.Fatalf("RegIncBeta(%v,%v,%v): %v", c.a, c.b, c.x, err)
		}
		if !almostEqual(got, c.want, 1e-4) {
			t.Errorf("RegIncBeta(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if v, _ := RegIncBeta(3, 4, 0); v != 0 {
		t.Errorf("I_0 = %v, want 0", v)
	}
	if v, _ := RegIncBeta(3, 4, 1); v != 1 {
		t.Errorf("I_1 = %v, want 1", v)
	}
	if _, err := RegIncBeta(-1, 1, 0.5); err == nil {
		t.Error("expected error for a <= 0")
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	f := func(raw float64, dfRaw uint8) bool {
		x := math.Mod(math.Abs(raw), 10)
		df := float64(dfRaw%100) + 1
		lo, err1 := StudentTCDF(-x, df)
		hi, err2 := StudentTCDF(x, df)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(lo+hi, 1, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Reference two-sided 97.5% critical values from standard t tables.
func TestStudentTQuantileTable(t *testing.T) {
	cases := []struct {
		df   float64
		want float64
	}{
		{1, 12.7062},
		{2, 4.30265},
		{5, 2.57058},
		{10, 2.22814},
		{29, 2.04523},
		{100, 1.98397},
		{1000, 1.96234},
	}
	for _, c := range cases {
		got, err := StudentTQuantile(0.975, c.df)
		if err != nil {
			t.Fatalf("StudentTQuantile(0.975, %v): %v", c.df, err)
		}
		if !almostEqual(got, c.want, 5e-4) {
			t.Errorf("t(0.975, df=%v) = %v, want %v", c.df, got, c.want)
		}
	}
}

func TestStudentTQuantileMedianIsZero(t *testing.T) {
	got, err := StudentTQuantile(0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("median = %v, want 0", got)
	}
}

func TestStudentTQuantileInvertsCDF(t *testing.T) {
	f := func(rawP float64, dfRaw uint8) bool {
		p := math.Mod(math.Abs(rawP), 0.9) + 0.05
		df := float64(dfRaw%60) + 1
		x, err := StudentTQuantile(p, df)
		if err != nil {
			return false
		}
		c, err := StudentTCDF(x, df)
		if err != nil {
			return false
		}
		return almostEqual(c, p, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTLargeDFApproachesNormal(t *testing.T) {
	tq, err := StudentTQuantile(0.975, 2e7)
	if err != nil {
		t.Fatal(err)
	}
	nq, err := NormalQuantile(0.975)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tq, nq, 1e-6) {
		t.Errorf("t quantile at huge df = %v, normal = %v", tq, nq)
	}
}

func TestTCritical(t *testing.T) {
	got, err := TCritical(0.05, 29)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2.04523, 5e-4) {
		t.Errorf("TCritical(0.05, 29) = %v, want 2.04523", got)
	}
	if _, err := TCritical(0, 5); err == nil {
		t.Error("expected error for alpha = 0")
	}
	if _, err := TCritical(0.05, 0); err == nil {
		t.Error("expected error for df = 0")
	}
}
