package telemetry

import (
	"testing"
	"time"
)

// TestInstrumentZeroAllocs pins the hot-path contract of every
// mutation primitive at exactly 0 allocs/op: histogram observation and
// span recording (a fired window's included).
func TestInstrumentZeroAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_ns")
	tr := NewTracer()
	tr.BeginEpoch(1)
	cases := []struct {
		name string
		f    func()
	}{
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"Tracer.Record", func() { tr.Record(1, StageJoin, time.Microsecond, 64, 7) }},
		{"Tracer.RecordCurrent", func() { tr.RecordCurrent(StageDrain, time.Microsecond, 64, 7) }},
		{"Tracer.BeginEpoch", func() { tr.BeginEpoch(1) }},
		{"Tracer.Record(fire)", func() { tr.Record(tr.Epoch(), StageFire, time.Millisecond, 5, 0) }},
	}
	for _, tc := range cases {
		tc.f() // warm up
		if avg := testing.AllocsPerRun(100, tc.f); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
		}
	}
}
