package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/minisql"
	"privapprox/internal/rr"
	"privapprox/internal/telemetry"
	"privapprox/internal/workload"
)

// sampleMap folds gathered samples into name{label=value} → value.
func sampleMap(samples []telemetry.Sample) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		key := s.Name
		if s.LabelKey != "" {
			key += "{" + s.LabelKey + "=" + s.LabelValue + "}"
		}
		out[key] = s.Value
	}
	return out
}

// TestSystemTelemetrySnapshot drives epochs through a fully wired
// system and asserts the snapshot API surfaces every plane: aggregator
// accounting, fleet-summed broker traffic, per-proxy backlog, client
// fleet counters, publish latency, tracer stage totals — every fired
// window charged to the fire stage — and a result card per fired window.
func TestSystemTelemetrySnapshot(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	sys, err := New(taxiSystemConfig(t, 30, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)

	var fired []aggregator.Result
	for e := 0; e < 3; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, res...)
	}
	res, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	fired = append(fired, res...)

	got := sampleMap(sys.TelemetrySnapshot())
	// Exact counts at s=1: every client answers every epoch, one share
	// per proxy. The brokers also took four control announcements: the
	// empty query set and the registration, on each proxy's control topic.
	if v := got["privapprox_agg_decoded_total"]; v != 90 {
		t.Errorf("agg_decoded_total = %v, want 90", v)
	}
	if v := got["privapprox_broker_messages_in_total"]; v != 184 {
		t.Errorf("broker_messages_in_total (fleet sum) = %v, want 184", v)
	}
	if v := got["privapprox_client_answers_sent_total"]; v != 90 {
		t.Errorf("client_answers_sent_total = %v, want 90", v)
	}
	// Presence of the remaining planes (values are timing-dependent).
	for _, name := range []string{
		"privapprox_proxy_backlog{proxy=0}",
		"privapprox_proxy_backlog{proxy=1}",
		"privapprox_publish_ns_count",
		"privapprox_stage_busy_ns_total{stage=answer}",
		"privapprox_stage_busy_ns_total{stage=drain}",
		"privapprox_stage_busy_ns_total{stage=join}",
		"privapprox_stage_busy_ns_total{stage=fire}",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
	if v := got["privapprox_publish_ns_count"]; !(v > 0) {
		t.Errorf("publish_ns_count = %v, want > 0", v)
	}
	if v := got["privapprox_stage_events_total{stage=answer}"]; v != 3 {
		t.Errorf("answer stage events = %v, want 3 (one per epoch)", v)
	}
	if v := got["privapprox_stage_units_total{stage=answer}"]; v != 90 {
		t.Errorf("answer stage units = %v, want 90 participants", v)
	}
	// Every fired window is one fire-stage event, its responses the
	// stage's units.
	responses := 0
	for _, r := range fired {
		responses += r.Responses
	}
	if len(fired) == 0 {
		t.Fatal("no window fired")
	}
	if v := got["privapprox_stage_events_total{stage=fire}"]; v != float64(len(fired)) {
		t.Errorf("fire stage events = %v, want the %d fired windows", v, len(fired))
	}
	if v := got["privapprox_stage_units_total{stage=fire}"]; v != float64(responses) {
		t.Errorf("fire stage units = %v, want the fired windows' %d responses", v, responses)
	}

	// The result card of each fired window carries its query, bounds and
	// responses.
	cards := sys.Lineage().Cards(nil)
	if len(cards) != len(fired) {
		t.Fatalf("%d result cards, want one per fired window (%d)", len(cards), len(fired))
	}
	for _, c := range cards {
		if !strings.Contains(c.Query, "analyst:1") {
			t.Errorf("card query = %q, want analyst:1 id", c.Query)
		}
		if c.Responses <= 0 || c.WindowEnd <= c.WindowStart {
			t.Errorf("degenerate card: %+v", c)
		}
	}

	// Per-epoch spans: every driven epoch has an answer-stage record.
	spans := sys.Tracer().Spans(nil)
	if len(spans) != 3 {
		t.Fatalf("got %d epoch spans, want 3", len(spans))
	}
	for _, sp := range spans {
		if sp.Stages[telemetry.StageAnswer].Events != 1 {
			t.Errorf("epoch %d: answer events = %d, want 1", sp.Epoch, sp.Stages[telemetry.StageAnswer].Events)
		}
	}
}

// TestSystemTelemetryWALHistograms pins the durable-fleet wiring: a
// system with a DataDir must route proxy WAL append timings into the
// registry built before the fleet opened.
func TestSystemTelemetryWALHistograms(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	cfg := taxiSystemConfig(t, 10, params)
	cfg.DataDir = t.TempDir()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	got := sampleMap(sys.TelemetrySnapshot())
	if v := got["privapprox_wal_append_ns_count"]; !(v > 0) {
		t.Errorf("wal_append_ns_count = %v, want > 0 (durable proxies journal every publish)", v)
	}
}

// TestSystemTelemetrySLOAndControl exercises the control planes:
// control-plane version/sink gauges and the SLO controllers' actuation
// state appear once the system runs in closed-loop mode.
func TestSystemTelemetrySLOAndControl(t *testing.T) {
	q, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	sys, err := New(Config{
		Clients: 20,
		Proxies: 2,
		Params:  &params,
		Seed:    42,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if err := sys.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableSLO(2.0, 0.2, 8); err != nil {
		t.Fatal(err)
	}
	// The SLO controller for a query materializes when its first window
	// fires; with a 4s window at 1s frequency the watermark-delayed
	// first fire lands at epoch 8.
	for e := 0; e < 9; e++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	got := sampleMap(sys.TelemetrySnapshot())
	if v := got["privapprox_control_version"]; !(v >= 1) {
		t.Errorf("control_version = %v, want >= 1", v)
	}
	if v, ok := got["privapprox_control_sink_version"]; !ok || !(v >= 1) {
		t.Errorf("control_sink_version = %v (present=%v), want >= 1", v, ok)
	}
	foundShed := false
	for key := range got {
		if strings.HasPrefix(key, "privapprox_slo_shed{query=") {
			foundShed = true
		}
	}
	if !foundShed {
		t.Errorf("no privapprox_slo_shed series; keys: %d samples", len(got))
	}
}

// TestStageDrainCountsDrainedRecords: an epoch's drain-stage units are
// the share records drained while it was the current epoch — two per
// answer, one at each proxy — whether RunEpoch drained them (at its drain
// points and in its tail, each a record of its own) or DrainUpTo did.
// RunEpoch once counted the windows it fired there instead.
func TestStageDrainCountsDrainedRecords(t *testing.T) {
	sys := drainPointSystem(t, 2)
	defer sys.Close()
	defer conserved(t, sys)
	const epochs = 6
	var sent [epochs]int64
	for e := range epochs {
		before := client.SumStats(sys.Clients()).AnswersSent
		var err error
		if e%2 == 0 {
			_, _, err = sys.RunEpoch()
		} else if _, err = sys.AnswerEpoch(); err == nil {
			_, _, err = sys.DrainUpTo(1 << 30)
		}
		if err != nil {
			t.Fatal(err)
		}
		sent[e] = client.SumStats(sys.Clients()).AnswersSent - before
	}
	spans := sys.Tracer().Spans(nil)
	if len(spans) != epochs {
		t.Fatalf("%d epoch spans, want %d", len(spans), epochs)
	}
	for _, span := range spans {
		drain := span.Stages[telemetry.StageDrain]
		if want := 2 * sent[span.Epoch]; want == 0 || drain.Units != want {
			t.Errorf("epoch %d: drain units %d, want the %d records its %d answers published", span.Epoch, drain.Units, want, sent[span.Epoch])
		}
		if runEpoch := span.Epoch%2 == 0; runEpoch && drain.Events < 2 || !runEpoch && drain.Events != 1 {
			t.Errorf("epoch %d: %d drain records", span.Epoch, drain.Events)
		}
	}
}
