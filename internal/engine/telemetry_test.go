package engine

import (
	"errors"
	"testing"

	"privapprox/internal/telemetry"
)

// failingSink refuses every announcement after the first.
type failingSink struct{ calls int }

var errSinkDown = errors.New("sink down")

func (s *failingSink) Announce(p []byte) error {
	s.calls++
	if s.calls > 1 {
		return errSinkDown
	}
	return nil
}

// TestRegistrySinkVersionGauges pins the convergence surface: the
// sink's newest acked snapshot version is tracked and exported as a
// gauge, so a sink stuck behind the registry version is visible as
// control_sink_version < control_version, and attaching a sink catches
// it up.
func TestRegistrySinkVersionGauges(t *testing.T) {
	_, priv := testKey(1)
	pub, _ := testKey(1)
	r := NewRegistry()
	if err := r.Trust("alice", pub); err != nil {
		t.Fatal(err)
	}

	stuck := &failingSink{}
	if err := r.AttachSink(stuck); err != nil {
		t.Fatal(err)
	}
	// The sink acked the initial (version 0) snapshot.
	if v := r.SinkVersion(); v != 0 {
		t.Fatalf("SinkVersion after attach = %d, want 0", v)
	}

	// The sink refuses the broadcast of version 1 and must stay pinned
	// at its last acked version.
	signed := testSigned(t, "alice", 1, priv)
	if err := r.Register(signed, testParams()); err == nil {
		t.Fatal("Register should surface the failing sink's error")
	}
	if got := r.Version(); got != 1 {
		t.Fatalf("registry version = %d, want 1", got)
	}
	if v := r.SinkVersion(); v != 0 {
		t.Fatalf("SinkVersion after refused broadcast = %d, want 0", v)
	}

	// The telemetry source renders the same state as gauges.
	gauges := func() map[string]float64 {
		out := map[string]float64{}
		for _, s := range r.AppendSamples(nil) {
			if s.LabelKey != "" {
				t.Errorf("sample %s carries label %s=%s", s.Name, s.LabelKey, s.LabelValue)
			}
			out[s.Name] = s.Value
		}
		return out
	}
	for name, v := range map[string]float64{
		"privapprox_control_version":        1,
		"privapprox_control_active_queries": 1,
		"privapprox_control_sink_version":   0,
	} {
		if got, ok := gauges()[name]; !ok || got != v {
			t.Errorf("sample %s = %v (present=%v), want %v", name, got, ok, v)
		}
	}

	// Attaching a working sink replaces the stuck one and announces the
	// current snapshot: the lag closes.
	if err := r.AttachSink(&recordingSink{}); err != nil {
		t.Fatal(err)
	}
	if v := r.SinkVersion(); v != 1 {
		t.Fatalf("SinkVersion after re-attach = %d, want 1", v)
	}
	if got := gauges()["privapprox_control_sink_version"]; got != 1 {
		t.Errorf("control_sink_version after re-attach = %v, want 1", got)
	}

	var _ telemetry.Source = r
}
