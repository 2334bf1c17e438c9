package core

import (
	"strconv"

	"privapprox/internal/client"
	"privapprox/internal/pubsub"
	"privapprox/internal/rr"
	"privapprox/internal/telemetry"
	"privapprox/internal/telemetry/lineage"
	"privapprox/internal/xorcrypt"
)

// Tracer returns the epoch tracer behind the system's metrics registry:
// per-epoch stage spans and the window-fire log.
func (s *System) Tracer() *telemetry.Tracer { return s.tracer }

// TelemetrySnapshot gathers the current samples — the snapshot API
// tests and the experiment harness consume, identical to one /metrics
// scrape.
func (s *System) TelemetrySnapshot() []telemetry.Sample { return s.tel.Gather() }

// Lineage returns the provenance recorder behind the registry: one
// result card per fired window (in-process systems keep a memory-only
// ring; the durable node role adds the JSONL card log).
func (s *System) Lineage() *lineage.Recorder { return s.cards }

// initTelemetry registers every component source on the system's
// registry and attaches the hot-path hooks (aggregator tracer, broker
// publish histograms). Called once at the end of New; the WAL latency
// histograms are attached earlier, when the durable fleet's logs open.
func (s *System) initTelemetry() {
	s.tel.RegisterSource(s.tracer)
	s.tel.RegisterSource(s.agg)
	s.agg.SetTracer(s.tracer)

	// The provenance plane: a memory-only recorder (no card log) so
	// every in-process system answers Cards()/the debug endpoint; the
	// options are infallible without a Path, so the error is impossible.
	if rec, err := lineage.NewRecorder(lineage.Options{Registry: s.tel, Tracer: s.tracer}); err == nil {
		s.cards = rec
		s.tel.RegisterSource(rec)
		s.agg.SetCardSink(rec)
	}

	pubHist := s.tel.Histogram("privapprox_publish_ns")
	for i := 0; i < s.fleet.Size(); i++ {
		if b := s.fleet.Proxy(i).Broker(); b != nil {
			b.SetPublishHistogram(pubHist)
		}
	}
	// One fleet-total source for the broker counters (per-broker
	// registration would emit colliding unlabeled series), plus a
	// per-proxy backlog gauge for the signal overload control acts on.
	s.tel.RegisterSource(telemetry.SourceFunc(func(dst []telemetry.Sample) []telemetry.Sample {
		for i := 0; i < s.fleet.Size(); i++ {
			dst = append(dst, telemetry.Sample{
				Name: "privapprox_proxy_backlog", LabelKey: "proxy",
				LabelValue: strconv.Itoa(i), Value: float64(s.fleet.Proxy(i).Stats().TotalBacklog),
				Kind: telemetry.KindGauge,
			})
		}
		return pubsub.AppendStatsSamples(dst, s.fleet.TotalStats())
	}))

	s.tel.RegisterSource(telemetry.SourceFunc(func(dst []telemetry.Sample) []telemetry.Sample {
		return client.AppendFleetSamples(dst, client.SumStats(s.clients.Clients()))
	}))

	// SLO actuation state: the live shed threshold and p95 lag each
	// controller is steering on, labeled by query.
	s.tel.RegisterSource(telemetry.SourceFunc(func(dst []telemetry.Sample) []telemetry.Sample {
		s.ctrlMu.Lock()
		defer s.ctrlMu.Unlock()
		for id, ctl := range s.slos {
			name := id.String()
			dst = append(dst,
				telemetry.Sample{Name: "privapprox_slo_shed", LabelKey: "query", LabelValue: name, Value: ctl.Shed(), Kind: telemetry.KindGauge},
				telemetry.Sample{Name: "privapprox_slo_p95_lag_slides", LabelKey: "query", LabelValue: name, Value: ctl.P95(), Kind: telemetry.KindGauge},
			)
		}
		return dst
	}))

	s.tel.RegisterSource(s.registry)

	// Kernel-plane counters (batch-granular, process-global).
	s.tel.RegisterSource(telemetry.SourceFunc(xorcrypt.Metrics))
	s.tel.RegisterSource(telemetry.SourceFunc(rr.Metrics))
}
