// Package stream holds the two stream-processing pieces the aggregator
// runs in place of Apache Flink (paper §5): event-time sliding/tumbling
// window assignment and the keyed join of the XOR share streams. The
// windowed operator itself — watermark, late drops, firing — lives in
// the aggregator, whose one submit tail is the only place it runs.
package stream

import (
	"errors"
	"fmt"
	"time"
)

// ErrWindow reports invalid window geometry.
var ErrWindow = errors.New("stream: invalid window")

// Window is the half-open event-time interval [Start, End).
type Window struct {
	Start time.Time
	End   time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// String renders the window for logs and tests.
func (w Window) String() string {
	return fmt.Sprintf("[%s,%s)", w.Start.Format(time.RFC3339Nano), w.End.Format(time.RFC3339Nano))
}

// SlidingAssigner maps an event time to every sliding window containing
// it: windows of length Size starting every Slide, aligned to Origin
// (the query's start; zero means Unix-epoch alignment). Size == Slide
// degenerates to tumbling windows.
type SlidingAssigner struct {
	Size   time.Duration
	Slide  time.Duration
	Origin time.Time
}

// NewSlidingAssigner validates the geometry (paper §2.2 requires
// δ ≤ w; the aggregator updates results every slide interval).
func NewSlidingAssigner(size, slide time.Duration) (*SlidingAssigner, error) {
	if size <= 0 || slide <= 0 {
		return nil, fmt.Errorf("%w: size %v slide %v", ErrWindow, size, slide)
	}
	if slide > size {
		return nil, fmt.Errorf("%w: slide %v exceeds size %v", ErrWindow, slide, size)
	}
	return &SlidingAssigner{Size: size, Slide: slide}, nil
}

// NewSlidingAssignerAt is NewSlidingAssigner with window boundaries
// aligned to origin, so the first window of a query covers exactly its
// first Size of epochs.
func NewSlidingAssignerAt(size, slide time.Duration, origin time.Time) (*SlidingAssigner, error) {
	a, err := NewSlidingAssigner(size, slide)
	if err != nil {
		return nil, err
	}
	a.Origin = origin
	return a, nil
}

// AppendWindowsFor appends every window containing t to dst, earliest
// first, and returns the extended slice; a caller that assigns windows
// per record reuses dst and allocates nothing.
func (a *SlidingAssigner) AppendWindowsFor(dst []Window, t time.Time) []Window {
	var off int64
	if !a.Origin.IsZero() {
		off = a.Origin.UnixNano()
	}
	ts := t.UnixNano() - off
	slide := int64(a.Slide)
	size := int64(a.Size)
	last := ts - mod(ts, slide) // latest window start ≤ t
	base := len(dst)
	for start := last; start > ts-size; start -= slide {
		dst = append(dst, Window{
			Start: time.Unix(0, start+off),
			End:   time.Unix(0, start+size+off),
		})
	}
	// Reverse the appended tail into earliest-first order.
	for i, j := base, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// mod is a floored modulo that behaves for negative timestamps.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
