// Overhead benchmarks for the telemetry plane: the raw cost of each
// instrument primitive, and the instrumented Fig 8 batch tail side by
// side with the plain one so the "≤ 3% with telemetry enabled" budget is
// a measured number, not a claim.
package privapprox

import (
	"fmt"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/rr"
	"privapprox/internal/telemetry"
	"privapprox/internal/workload"
	"privapprox/internal/xorcrypt"
)

// BenchmarkTelemetryCounter measures one atomic counter increment —
// the cheapest instrument, and the one on the widest paths.
func BenchmarkTelemetryCounter(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_ops_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkTelemetryHistogram measures one latency observation into the
// sharded fixed-bucket histogram.
func BenchmarkTelemetryHistogram(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("bench_latency_ns")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)<<6 + 511)
	}
}

// BenchmarkTelemetryTracerRecord measures charging one duration to the
// current epoch's stage cells (totals + the live span slot).
func BenchmarkTelemetryTracerRecord(b *testing.B) {
	tr := telemetry.NewTracer()
	tr.BeginEpoch(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordCurrent(telemetry.StageJoin, 1500*time.Nanosecond, 64, 7)
	}
}

// BenchmarkTelemetryGather measures a full snapshot of a registry with
// a realistic instrument population — the cost a /metrics scrape puts
// on a running node (never on the hot path, but worth pinning).
func BenchmarkTelemetryGather(b *testing.B) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 16; i++ {
		reg.Counter(fmt.Sprintf("bench_counter_%d_total", i)).Add(int64(i))
		reg.Gauge(fmt.Sprintf("bench_gauge_%d", i)).Set(int64(i))
	}
	h := reg.Histogram("bench_latency_ns")
	for i := 0; i < 1024; i++ {
		h.Observe(int64(i) << 4)
	}
	tr := telemetry.NewTracer()
	tr.BeginEpoch(1)
	tr.RecordCurrent(telemetry.StageJoin, time.Millisecond, 64, 3)
	reg.RegisterSource(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if samples := reg.Gather(); len(samples) == 0 {
			b.Fatal("empty gather")
		}
	}
}

// BenchmarkFig8SubmitBatchInstrumented is BenchmarkFig8SubmitBatch
// (batch=64) with the telemetry plane attached: an epoch tracer on the
// aggregator timing every SubmitShareBatch, and a publish histogram
// observing each iteration. Compare ns/answer against the plain
// batch=64 run of BenchmarkFig8SubmitBatch to read off the telemetry
// overhead; the allocgate pins its allocs at 0.
func BenchmarkFig8SubmitBatchInstrumented(b *testing.B) {
	const batch = 64
	q, err := workload.TaxiQuery("bench", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	agg, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: 1 << 30,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       9,
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	tracer.BeginEpoch(0)
	agg.SetTracer(tracer)
	reg.RegisterSource(agg)
	reg.RegisterSource(tracer)
	hist := reg.Histogram("privapprox_publish_ns")

	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 0)
	msg := newAgedMessage(b, q, vec)
	now := time.Now()
	var lanes shareLanes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for src, shares := range lanes.split(b, splitter, msg.raw, batch) {
			if _, err := agg.SubmitShareBatch(shares, src, now); err != nil {
				b.Fatal(err)
			}
		}
		hist.Observe(int64(time.Since(t0)))
		if i%64 == 63 {
			msg.advance(b)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/answer")
}
