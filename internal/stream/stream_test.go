package stream

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

// windowsFor lists every window containing t, earliest first: the
// windows that cover t's pane.
func windowsFor(a *SlidingAssigner, t time.Time) []Window {
	var ws []Window
	first, last := a.Covering(a.PaneOf(t.UnixNano()))
	for s := first; s <= last; s += a.slide {
		ws = append(ws, Window{Start: time.Unix(0, s), End: time.Unix(0, s+a.size)})
	}
	return ws
}

func TestSlidingAssignerValidation(t *testing.T) {
	if _, err := NewSlidingAssigner(0, time.Second, time.Time{}); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := NewSlidingAssigner(time.Second, 0, time.Time{}); err == nil {
		t.Error("expected error for zero slide")
	}
	if _, err := NewSlidingAssigner(time.Second, 2*time.Second, time.Time{}); err == nil {
		t.Error("expected error for slide > size")
	}
}

func TestSlidingAssignerPaperGeometry(t *testing.T) {
	// The paper's example: 10-minute window sliding every minute — every
	// event belongs to exactly 10 windows.
	a, err := NewSlidingAssigner(10*time.Minute, time.Minute, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(3600, 0)
	ws := windowsFor(a, at)
	if len(ws) != 10 {
		t.Fatalf("got %d windows, want 10", len(ws))
	}
	for i, w := range ws {
		if !w.contains(at) {
			t.Errorf("window %d %v does not contain event", i, w)
		}
		if i > 0 && !ws[i-1].Start.Before(w.Start) {
			t.Errorf("windows not sorted at %d", i)
		}
		if w.End.Sub(w.Start) != 10*time.Minute {
			t.Errorf("window %d length %v", i, w.End.Sub(w.Start))
		}
	}
}

func TestTumblingDegenerate(t *testing.T) {
	a, err := NewSlidingAssigner(time.Minute, time.Minute, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	ws := windowsFor(a, time.Unix(90, 0))
	if len(ws) != 1 {
		t.Fatalf("tumbling got %d windows", len(ws))
	}
	if ws[0].Start.Unix() != 60 || ws[0].End.Unix() != 120 {
		t.Errorf("window = %v", ws[0])
	}
}

// Property: every assigned window contains the event, and the count is
// ceil(size/slide) for slide-aligned geometry.
func TestSlidingAssignerProperty(t *testing.T) {
	f := func(tsRaw int64, sizeRaw, slideRaw uint8) bool {
		slide := time.Duration(int64(slideRaw%20)+1) * time.Second
		k := int64(sizeRaw%10) + 1
		size := time.Duration(k) * slide
		a, err := NewSlidingAssigner(size, slide, time.Time{})
		if err != nil {
			return false
		}
		at := time.Unix(tsRaw%100000, 0)
		ws := windowsFor(a, at)
		if int64(len(ws)) != k {
			return false
		}
		for _, w := range ws {
			if !w.contains(at) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any geometry — the slide need not divide the size — and
// any origin, the windows covering an instant's pane are exactly the
// slide-grid windows containing that instant, and the pane lies inside
// each of them.
func TestPanesCoverTheWindowsOfTheirInstants(t *testing.T) {
	f := func(tsRaw, originRaw int64, sizeRaw, slideRaw uint8) bool {
		slide := time.Duration(int64(slideRaw%12)+1) * 250 * time.Millisecond
		size := slide + time.Duration(sizeRaw%40)*250*time.Millisecond
		origin := time.Unix(0, originRaw%int64(time.Hour))
		a, err := NewSlidingAssigner(size, slide, origin)
		if err != nil {
			return false
		}
		at := origin.Add(time.Duration(tsRaw % int64(time.Hour)))
		var want []Window
		for s := origin.Add(-(2*time.Hour/slide + 1) * slide); !s.After(at); s = s.Add(slide) {
			if w := (Window{Start: s, End: s.Add(size)}); w.contains(at) {
				want = append(want, w)
			}
		}
		got := windowsFor(a, at)
		p := a.PaneOf(at.UnixNano())
		if len(got) != len(want) || p > at.UnixNano() || at.UnixNano() >= p+a.Pane() {
			return false
		}
		for i, w := range got {
			if !w.Start.Equal(want[i].Start) || !w.End.Equal(want[i].End) ||
				w.Start.UnixNano() > p || w.End.UnixNano() < p+a.Pane() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOriginAlignedWindows(t *testing.T) {
	origin := time.Unix(1_700_000_000, 0) // not a multiple of 3s
	a, err := NewSlidingAssigner(3*time.Second, 3*time.Second, origin)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 0, 1, 2 (origin + 0s, 1s, 2s) must share one window that
	// starts exactly at the origin.
	for e := 0; e < 3; e++ {
		ws := windowsFor(a, origin.Add(time.Duration(e)*time.Second))
		if len(ws) != 1 {
			t.Fatalf("epoch %d: %d windows", e, len(ws))
		}
		if !ws[0].Start.Equal(origin) {
			t.Errorf("epoch %d window starts %v, want origin", e, ws[0].Start)
		}
	}
	// Epoch 3 starts the next window.
	ws := windowsFor(a, origin.Add(3*time.Second))
	if !ws[0].Start.Equal(origin.Add(3 * time.Second)) {
		t.Errorf("epoch 3 window starts %v", ws[0].Start)
	}
}

func TestWindowContainsAndString(t *testing.T) {
	w := Window{Start: time.Unix(0, 0), End: time.Unix(10, 0)}
	if !w.contains(time.Unix(0, 0)) || !w.contains(time.Unix(9, int64(time.Second-1))) {
		t.Error("window should contain start and interior")
	}
	if w.contains(time.Unix(10, 0)) {
		t.Error("window must exclude its end")
	}
	if w.String() == "" {
		t.Error("empty String")
	}
}

func TestShareJoinerCompletesGroups(t *testing.T) {
	j, err := NewKeyedShareJoiner[string](3)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := j.Add("mid1", 0, []byte("a")); err != nil || g != nil {
		t.Fatalf("first share: %v, %v", g, err)
	}
	if g, err := j.Add("mid1", 1, []byte("b")); err != nil || g != nil {
		t.Fatalf("second share: %v, %v", g, err)
	}
	// A replayed share from an already-contributing source is rejected.
	if _, err := j.Add("mid1", 0, []byte("dup")); !errors.Is(err, errDuplicate) {
		t.Fatalf("same-source replay: %v", err)
	}
	g, err := j.Add("mid1", 2, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || len(g.Payloads) != 3 || g.Key != "mid1" {
		t.Fatalf("joined = %+v", g)
	}
	if j.PendingCount() != 0 {
		t.Errorf("pending = %d", j.PendingCount())
	}
	// Replay of a completed key is rejected.
	if _, err := j.Add("mid1", 1, []byte("x")); !errors.Is(err, errDuplicate) {
		t.Errorf("replay: %v", err)
	}
	// Source index out of range is an error.
	if _, err := j.Add("mid9", 9, []byte("x")); !errors.Is(err, ErrJoinArity) {
		t.Errorf("bad source: %v", err)
	}
}

func TestShareJoinerInterleavedKeys(t *testing.T) {
	j, _ := NewKeyedShareJoiner[string](2)
	j.Add("a", 0, []byte("a1"))
	j.Add("b", 0, []byte("b1"))
	ga, err := j.Add("a", 1, []byte("a2"))
	if err != nil || ga == nil || ga.Key != "a" {
		t.Fatalf("group a = %v, %v", ga, err)
	}
	gb, err := j.Add("b", 1, []byte("b2"))
	if err != nil || gb == nil || gb.Key != "b" {
		t.Fatalf("group b = %v, %v", gb, err)
	}
}

// TestShareJoinerGenerations: a completed key is a duplicate for one to
// two rotations and then forgotten; a partial group that was already
// waiting when the previous rotation happened expires with it, one that
// arrived since survives, and a share that finds its sibling in the
// previous generation still completes the group.
func TestShareJoinerGenerations(t *testing.T) {
	j, _ := NewKeyedShareJoiner[string](2)
	j.Add("done", 0, []byte("1"))
	if g, err := j.Add("done", 1, []byte("2")); err != nil || g == nil {
		t.Fatal("join should complete")
	}
	j.Add("stale", 0, []byte("x"))
	j.Add("slow", 0, []byte("s"))
	j.Rotate()
	j.Add("fresh", 0, []byte("y"))
	if _, err := j.Add("done", 0, []byte("replay")); !errors.Is(err, errDuplicate) {
		t.Errorf("replay one rotation after completion: %v", err)
	}
	if g, err := j.Add("slow", 1, []byte("t")); err != nil || g == nil || string(g.Payloads[0]) != "s" {
		t.Fatalf("share whose sibling waits in the previous generation: %+v, %v", g, err)
	}
	if expired := j.Rotate(); expired != 1 || j.PendingCount() != 1 {
		t.Errorf("expired=%d pending=%d, want the stale group gone and the fresh one kept", expired, j.PendingCount())
	}
	if _, err := j.Add("slow", 0, []byte("replay")); !errors.Is(err, errDuplicate) {
		t.Errorf("replay of a key that completed in the current generation: %v", err)
	}
	// Two rotations after completion the key is forgotten and can be
	// reused (a fresh MID collision).
	if _, err := j.Add("done", 0, []byte("again")); err != nil {
		t.Errorf("post-expiry add: %v", err)
	}
}

func TestShareJoinerValidation(t *testing.T) {
	if _, err := NewKeyedShareJoiner[string](1); !errors.Is(err, ErrJoinArity) {
		t.Errorf("arity: %v", err)
	}
}
