// Package stream holds the two stream-processing pieces the aggregator
// runs in place of Apache Flink (paper §5): the event-time geometry of
// sliding/tumbling windows and the keyed join of the XOR share streams.
// The windowed operator itself — panes, watermark, late drops, firing —
// lives in the aggregator, whose one submit tail is the only place it
// runs.
package stream

import (
	"errors"
	"fmt"
	"time"
)

// errWindow reports invalid window geometry.
var errWindow = errors.New("stream: invalid window")

// Window is the half-open event-time interval [Start, End).
type Window struct {
	Start time.Time
	End   time.Time
}

// contains reports whether t falls inside the window.
func (w Window) contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// String renders the window for logs and tests.
func (w Window) String() string {
	return fmt.Sprintf("[%s,%s)", w.Start.Format(time.RFC3339Nano), w.End.Format(time.RFC3339Nano))
}

// SlidingAssigner is the geometry of a query's windows: windows of
// length size starting every slide, aligned to an origin (the query's
// start; zero means Unix-epoch alignment). Size == slide degenerates to
// tumbling windows. Event time is cut into panes of length
// gcd(size, slide) on the same grid (Li et al., "No pane, no gain",
// SIGMOD Record 2005): every window boundary is a pane boundary, so a
// window is the union of the panes it covers and every instant of a
// pane lies in the same windows. Times and starts are UnixNano.
type SlidingAssigner struct {
	size, slide, pane, off int64
}

// NewSlidingAssigner validates the geometry (paper §2.2 requires
// δ ≤ w; the aggregator updates results every slide interval) and
// aligns window boundaries to origin, so the first window of a query
// covers exactly its first size of epochs.
func NewSlidingAssigner(size, slide time.Duration, origin time.Time) (*SlidingAssigner, error) {
	if size <= 0 || slide <= 0 {
		return nil, fmt.Errorf("%w: size %v slide %v", errWindow, size, slide)
	}
	if slide > size {
		return nil, fmt.Errorf("%w: slide %v exceeds size %v", errWindow, slide, size)
	}
	a := &SlidingAssigner{size: int64(size), slide: int64(slide), pane: int64(size)}
	for r := a.slide; r != 0; {
		a.pane, r = r, a.pane%r
	}
	if !origin.IsZero() {
		a.off = origin.UnixNano()
	}
	return a, nil
}

// Pane returns the pane length, gcd(size, slide).
func (a *SlidingAssigner) Pane() int64 { return a.pane }

// PaneOf returns the start of the pane that holds t.
func (a *SlidingAssigner) PaneOf(t int64) int64 {
	ts := t - a.off
	return ts - mod(ts, a.pane) + a.off
}

// Covering returns the starts of the first and the last window that
// cover the pane starting at p; the windows starting every slide from
// first through last are exactly the ones that cover it.
func (a *SlidingAssigner) Covering(p int64) (first, last int64) {
	ps := p - a.off
	last = ps - mod(ps, a.slide)  // the latest window start ≤ the pane
	reach := ps + a.pane - a.size // the earliest start reaching the pane's end
	first = reach + mod(-reach, a.slide)
	return first + a.off, last + a.off
}

// mod is a floored modulo that behaves for negative timestamps.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
