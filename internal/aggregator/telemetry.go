package aggregator

import (
	"privapprox/internal/telemetry"
	"privapprox/internal/telemetry/lineage"
)

// SetTracer attaches an epoch tracer: SubmitShareBatch charges its
// join/decrypt/decode time to the join stage, and every fired window
// emits a FireSpan keyed by (epoch, query, window). Nil detaches. The
// hot path pays one atomic pointer load when no tracer is set.
func (a *Aggregator) SetTracer(tr *telemetry.Tracer) {
	a.tracer.Store(tr)
}

// Tracer returns the attached epoch tracer, or nil. The aggregator
// role charges each drain point's span to it too.
func (a *Aggregator) Tracer() *telemetry.Tracer { return a.tracer.Load() }

// SetCardSink attaches the provenance recorder: every subsequently
// fired window emits one result card (realized participation, CI
// width, budget burn, late counts — see lineage.Card). Nil detaches.
// Like the tracer, an unset sink costs one atomic load at fire time
// and nothing on the share hot path.
func (a *Aggregator) SetCardSink(rec *lineage.Recorder) {
	a.cards.Store(rec)
}

// AppendSamples implements telemetry.Source: the Stats() counters, the
// join and window depth gauges, and per-query series labeled
// query="..." (decoded and late counts, the live shed threshold, open
// panes, and the event-time watermark). Stats() remains the compat snapshot over the same
// numbers.
func (a *Aggregator) AppendSamples(dst []telemetry.Sample) []telemetry.Sample {
	s := a.Stats()
	pending, completed := a.joinCounts()
	dst = append(dst,
		telemetry.Sample{Name: "privapprox_agg_decoded_total", Value: float64(s.Decoded), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_agg_malformed_total", Value: float64(s.Malformed), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_agg_duplicates_total", Value: float64(s.Duplicates), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_agg_late_total", Value: float64(s.Late), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_agg_swept_total", Value: float64(s.Swept), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_agg_unknown_query_total", Value: float64(s.UnknownQuery), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_agg_length_mismatch_total", Value: float64(s.LengthMismatch), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_agg_queries", Value: float64(s.Queries), Kind: telemetry.KindGauge},
		telemetry.Sample{Name: "privapprox_agg_pending_joins", Value: float64(pending), Kind: telemetry.KindGauge},
		telemetry.Sample{Name: "privapprox_agg_open_windows", Value: float64(a.OpenWindows()), Kind: telemetry.KindGauge},
		telemetry.Sample{Name: "privapprox_agg_completed_joins", Value: float64(completed), Kind: telemetry.KindGauge},
	)
	for _, st := range a.states.Load().ordered {
		st.paneMu.RLock()
		panes := len(st.panes)
		st.paneMu.RUnlock()
		dst = append(dst,
			telemetry.Sample{Name: "privapprox_query_decoded_total", LabelKey: "query", LabelValue: st.qname, Value: float64(st.decoded.Load()), Kind: telemetry.KindCounter},
			telemetry.Sample{Name: "privapprox_query_late_total", LabelKey: "query", LabelValue: st.qname, Value: float64(st.dropped.Load()), Kind: telemetry.KindCounter},
			telemetry.Sample{Name: "privapprox_query_shed_threshold", LabelKey: "query", LabelValue: st.qname, Value: st.newest().shed, Kind: telemetry.KindGauge},
			telemetry.Sample{Name: "privapprox_query_open_panes", LabelKey: "query", LabelValue: st.qname, Value: float64(panes), Kind: telemetry.KindGauge},
		)
		if wm := st.wmMax.Load(); wm != wmUnseen {
			dst = append(dst, telemetry.Sample{Name: "privapprox_query_watermark_ns", LabelKey: "query", LabelValue: st.qname, Value: float64(wm), Kind: telemetry.KindGauge})
		}
	}
	return dst
}

var _ telemetry.Source = (*Aggregator)(nil)
