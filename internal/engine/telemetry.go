package engine

import "privapprox/internal/telemetry"

// AppendSamples implements telemetry.Source over the control plane's
// convergence state: the registry's current snapshot version, the
// number of active queries, and the newest version the control sink
// acknowledged — a sink gauge trailing privapprox_control_version is a
// control plane silently lagging its proxies.
func (r *Registry) AppendSamples(dst []telemetry.Sample) []telemetry.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(dst,
		telemetry.Sample{Name: "privapprox_control_version", Value: float64(r.version), Kind: telemetry.KindGauge},
		telemetry.Sample{Name: "privapprox_control_active_queries", Value: float64(len(r.entries)), Kind: telemetry.KindGauge},
		telemetry.Sample{Name: "privapprox_control_sink_version", Value: float64(r.sinkVer), Kind: telemetry.KindGauge},
	)
}

var _ telemetry.Source = (*Registry)(nil)
