package pubsub

import (
	"privapprox/internal/telemetry"
)

// SetPublishHistogram attaches a latency histogram to the broker's
// publish paths: each successful publish call (single record or
// columnar batch — one observation per call, not per record) records
// its wall time. Nil detaches; an unset histogram costs one atomic
// pointer load per publish.
func (b *Broker) SetPublishHistogram(h *telemetry.Histogram) {
	b.pubLat.Store(h)
}

// AppendSamples implements telemetry.Source over the broker's traffic
// counters and snapshot-time consumer-lag accounting — the same
// numbers Stats() reports, which remains as the compat surface.
func (b *Broker) AppendSamples(dst []telemetry.Sample) []telemetry.Sample {
	return AppendStatsSamples(dst, b.Stats())
}

// AppendStatsSamples renders one Stats snapshot as broker series. It is
// the shared renderer behind Broker.AppendSamples and fleet-level
// aggregation (core sums many brokers into one snapshot first, because
// the series carry no per-broker label and would otherwise collide).
func AppendStatsSamples(dst []telemetry.Sample, s Stats) []telemetry.Sample {
	return append(dst,
		telemetry.Sample{Name: "privapprox_broker_messages_in_total", Value: float64(s.MessagesIn), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_broker_bytes_in_total", Value: float64(s.BytesIn), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_broker_messages_out_total", Value: float64(s.MessagesOut), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_broker_rejected_total", Value: float64(s.Rejected), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_broker_duplicates_total", Value: float64(s.Duplicates), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_broker_backlog", Value: float64(s.TotalBacklog), Kind: telemetry.KindGauge},
		telemetry.Sample{Name: "privapprox_broker_backlog_max", Value: float64(s.MaxBacklog), Kind: telemetry.KindGauge},
	)
}

var _ telemetry.Source = (*Broker)(nil)
