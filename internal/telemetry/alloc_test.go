package telemetry

import (
	"testing"
	"time"
)

// TestInstrumentZeroAllocs pins the hot-path contract of every
// mutation primitive at exactly 0 allocs/op: counters, histogram
// observation, span recording, and fire recording (whose
// ring is preallocated and whose Query field is a pre-existing string
// header, not a copy).
func TestInstrumentZeroAllocs(t *testing.T) {
	r := NewRegistry()
	var c Counter
	h := r.Histogram("h_ns")
	tr := NewTracer()
	tr.BeginEpoch(1)
	query := "taxi"
	cases := []struct {
		name string
		f    func()
	}{
		{"Counter.Add", func() { c.Add(2) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"Tracer.Record", func() { tr.Record(1, StageJoin, time.Microsecond, 64, 7) }},
		{"Tracer.RecordCurrent", func() { tr.RecordCurrent(StageDrain, time.Microsecond, 64, 7) }},
		{"Tracer.BeginEpoch", func() { tr.BeginEpoch(1) }},
		{"Tracer.RecordFire", func() {
			tr.RecordFire(FireSpan{Epoch: 1, Query: query, WindowStart: 1, WindowEnd: 2, Responses: 5, Dur: time.Millisecond})
		}},
	}
	for _, tc := range cases {
		tc.f() // warm up
		if avg := testing.AllocsPerRun(100, tc.f); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
		}
	}
}
