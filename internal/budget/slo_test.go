package budget

import (
	"bytes"
	"errors"
	"testing"

	"privapprox/internal/codec"
)

func TestSLOControllerValidation(t *testing.T) {
	for _, tc := range []struct {
		target, shedMin float64
		window          int
	}{
		{0, 0.1, 8},
		{-1, 0.1, 8},
		{2, 0, 8},
		{2, 1.5, 8},
		{2, 0.1, 0},
	} {
		if _, err := NewSLOController(tc.target, tc.shedMin, tc.window); err == nil {
			t.Errorf("NewSLOController(%v, %v, %d) accepted", tc.target, tc.shedMin, tc.window)
		}
	}
}

func TestSLOControllerTightensAndRecovers(t *testing.T) {
	c, err := NewSLOController(2.0, 0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shed() != 1 {
		t.Fatalf("initial shed = %v", c.Shed())
	}
	// Sustained overload: p95 far over target → threshold walks down to
	// the floor and no further.
	for i := 0; i < 50; i++ {
		c.Observe(10)
	}
	if c.Shed() != 0.05 {
		t.Fatalf("shed under sustained overload = %v, want floor 0.05", c.Shed())
	}
	if got := c.P95(); got != 10 {
		t.Fatalf("P95 = %v, want 10", got)
	}
	// Recovery: comfortably under half the target → relaxes back to 1,
	// capped there.
	for i := 0; i < 100; i++ {
		c.Observe(0.5)
	}
	if c.Shed() != 1 {
		t.Fatalf("shed after recovery = %v, want 1", c.Shed())
	}
	// In the dead band (between target/2 and target) the threshold
	// holds steady.
	c2, _ := NewSLOController(2.0, 0.05, 4)
	for i := 0; i < 20; i++ {
		if got := c2.Observe(1.5); got != 1 {
			t.Fatalf("dead-band observation moved shed to %v", got)
		}
	}
}

func TestSLOControllerP95Window(t *testing.T) {
	c, err := NewSLOController(100, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// One outlier in ten observations: the nearest-rank p95 of n=10 is
	// the maximum, so the outlier shows; after it slides out of the
	// window, p95 returns to baseline.
	c.Observe(50)
	for i := 0; i < 8; i++ {
		c.Observe(1)
	}
	c.Observe(1)
	if got := c.P95(); got != 50 {
		t.Fatalf("P95 with outlier in window = %v, want 50", got)
	}
	for i := 0; i < 10; i++ {
		c.Observe(1)
	}
	if got := c.P95(); got != 1 {
		t.Fatalf("P95 after outlier aged out = %v, want 1", got)
	}
}

func TestSLOControllerStateRoundTrip(t *testing.T) {
	c, err := NewSLOController(2.0, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, lat := range []float64{5, 4, 0.1, 6, 7, 3} {
		_ = i
		c.Observe(lat)
	}
	state := c.AppendState(nil)

	r, err := NewSLOController(2.0, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := codec.NewReader(state, ErrBadBudget, "record")
	if err := r.RestoreState(&d); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left after restore", d.Len())
	}
	if r.Shed() != c.Shed() || r.P95() != c.P95() {
		t.Fatalf("restored (shed=%v p95=%v), want (%v, %v)", r.Shed(), r.P95(), c.Shed(), c.P95())
	}
	// The restored controller continues identically.
	for _, lat := range []float64{9, 0.2, 4} {
		a, b := c.Observe(lat), r.Observe(lat)
		if a != b {
			t.Fatalf("post-restore divergence: %v vs %v", a, b)
		}
	}
	// Window mismatch is rejected, not silently adopted.
	w, _ := NewSLOController(2.0, 0.05, 16)
	d = codec.NewReader(state, ErrBadBudget, "record")
	if err := w.RestoreState(&d); err == nil {
		t.Fatal("restore accepted a mismatched window")
	}
}

// FuzzSLOControllerRestore asserts RestoreState never panics and only
// accepts state that round-trips.
func FuzzSLOControllerRestore(f *testing.F) {
	c, err := NewSLOController(2.0, 0.05, 4)
	if err != nil {
		f.Fatal(err)
	}
	c.Observe(5)
	c.Observe(1)
	f.Add(c.AppendState(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, state []byte) {
		r, err := NewSLOController(2.0, 0.05, 4)
		if err != nil {
			t.Fatal(err)
		}
		d := codec.NewReader(state, ErrBadBudget, "record")
		if err := r.RestoreState(&d); err != nil {
			if !errors.Is(err, ErrBadBudget) {
				t.Fatalf("restore error %v does not wrap the reader's sentinel", err)
			}
			return
		}
		// Accepted state must re-serialize to exactly the consumed bytes.
		re := r.AppendState(nil)
		if !bytes.Equal(re, state[:len(state)-d.Len()]) {
			t.Fatalf("accepted state does not round-trip")
		}
	})
}
