package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	tr.BeginEpoch(0)
	tr.Record(0, StageAnswer, 5*time.Millisecond, 100, 0)
	tr.Record(0, StageDrain, 2*time.Millisecond, 200, 64)
	tr.Record(0, StageDrain, 1*time.Millisecond, 50, 32)
	tr.BeginEpoch(1)
	tr.RecordCurrent(StageJoin, 3*time.Millisecond, 400, 8)
	if got := tr.Epoch(); got != 1 {
		t.Fatalf("Epoch() = %d, want 1", got)
	}

	spans := tr.Spans(nil)
	if len(spans) != 2 || spans[0].Epoch != 0 || spans[1].Epoch != 1 {
		t.Fatalf("spans = %+v, want epochs 0,1", spans)
	}
	d := spans[0].Stages[StageDrain]
	if d.Busy != 3*time.Millisecond || d.Events != 2 || d.Units != 250 || d.MaxDepth != 64 {
		t.Fatalf("drain span = %+v", d)
	}
	if j := spans[1].Stages[StageJoin]; j.Units != 400 {
		t.Fatalf("join span = %+v", j)
	}
}

func TestTracerRingRecycles(t *testing.T) {
	tr := NewTracer()
	for e := uint64(0); e < spanRing+5; e++ {
		tr.BeginEpoch(e)
		tr.Record(e, StageAnswer, time.Microsecond, 1, 0)
	}
	spans := tr.Spans(nil)
	if len(spans) != spanRing {
		t.Fatalf("resident spans = %d, want %d", len(spans), spanRing)
	}
	if spans[0].Epoch != 5 || spans[len(spans)-1].Epoch != spanRing+4 {
		t.Fatalf("span range [%d,%d], want [5,%d]", spans[0].Epoch, spans[len(spans)-1].Epoch, spanRing+4)
	}
	// A record against a recycled epoch must not corrupt the slot's
	// current tenant, but still lands in the totals.
	before := tr.totals[StageAnswer].events.Load()
	tr.Record(1, StageAnswer, time.Microsecond, 1, 0)
	if got := tr.totals[StageAnswer].events.Load(); got != before+1 {
		t.Fatalf("stale record missing from totals: %d, want %d", got, before+1)
	}
	for _, s := range tr.Spans(nil) {
		if s.Epoch == spanRing+1 && s.Stages[StageAnswer].Events != 1 {
			t.Fatalf("stale epoch-1 record leaked into epoch %d slot", s.Epoch)
		}
	}
}

// TestTracerFires: a fired window is one Record against the fire stage —
// its duration as busy time and its responses as units — landing in the
// epoch's span and in the stage totals the tracer exports.
func TestTracerFires(t *testing.T) {
	tr := NewTracer()
	tr.BeginEpoch(3)
	const fires = 10
	for i := 0; i < fires; i++ {
		tr.Record(tr.Epoch(), StageFire, time.Millisecond, 10, 0)
	}
	spans := tr.Spans(nil)
	if len(spans) != 1 || spans[0].Epoch != 3 {
		t.Fatalf("spans = %+v, want epoch 3 only", spans)
	}
	if f := spans[0].Stages[StageFire]; f.Events != fires || f.Units != 10*fires || f.Busy != fires*time.Millisecond {
		t.Fatalf("fire span = %+v, want %d events, %d units, %v busy", f, fires, 10*fires, fires*time.Millisecond)
	}
	got := fireSamples(tr)
	if got["privapprox_stage_events_total"] != fires || got["privapprox_stage_units_total"] != 10*fires ||
		got["privapprox_stage_busy_ns_total"] != float64(fires*time.Millisecond) {
		t.Fatalf("fire stage samples = %v", got)
	}
}

// fireSamples returns the tracer's exported fire-stage series by name.
func fireSamples(tr *Tracer) map[string]float64 {
	got := map[string]float64{}
	for _, s := range tr.AppendSamples(nil) {
		if s.LabelValue == "fire" {
			got[s.Name] = s.Value
		}
	}
	return got
}

func TestTracerStageSamples(t *testing.T) {
	tr := NewTracer()
	tr.BeginEpoch(0)
	tr.Record(0, StageDrain, 7*time.Millisecond, 3, 12)
	got := map[string]float64{}
	for _, s := range tr.AppendSamples(nil) {
		if s.LabelValue == "drain" {
			got[s.Name] = s.Value
		}
	}
	if got["privapprox_stage_busy_ns_total"] != float64(7*time.Millisecond) ||
		got["privapprox_stage_events_total"] != 1 ||
		got["privapprox_stage_units_total"] != 3 ||
		got["privapprox_stage_depth_max"] != 12 {
		t.Fatalf("drain stage samples = %v", got)
	}
}

// TestTracerConcurrentRecordFire: fires recorded from many goroutines
// at once, against epochs in and out of the span ring, lose no event and
// no unit in the fire stage's totals.
func TestTracerConcurrentRecordFire(t *testing.T) {
	tr := NewTracer()
	tr.BeginEpoch(0)
	const goroutines, perG = 8, 3 * spanRing
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Record(uint64(i), StageFire, time.Microsecond, g+1, 0)
			}
		}(g)
	}
	wg.Wait()
	const units = perG * goroutines * (goroutines + 1) / 2
	got := fireSamples(tr)
	if got["privapprox_stage_events_total"] != goroutines*perG || got["privapprox_stage_units_total"] != units ||
		got["privapprox_stage_busy_ns_total"] != float64(goroutines*perG*time.Microsecond) {
		t.Fatalf("fire stage samples = %v, want %d events and %d units", got, goroutines*perG, units)
	}
	// Epoch 0's slot is resident: it holds exactly the fires recorded
	// against epoch 0, one per goroutine.
	if f := tr.Spans(nil)[0].Stages[StageFire]; f.Events != goroutines || f.Units != goroutines*(goroutines+1)/2 {
		t.Fatalf("epoch 0 fire span = %+v, want %d events", f, goroutines)
	}
}
