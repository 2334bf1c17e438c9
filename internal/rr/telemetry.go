package rr

import (
	"privapprox/internal/telemetry"
)

// Package-level kernel counters for the randomized-response plane:
// answer vectors randomized, counted once per RespondBits call — never
// per bit. A process registers them with
// telemetry.Registry.RegisterSource(telemetry.SourceFunc(Metrics)).
var respondedVectors telemetry.Counter

// Metrics appends the package's kernel counters as telemetry samples.
func Metrics(dst []telemetry.Sample) []telemetry.Sample {
	return append(dst, telemetry.Sample{
		Name:  "privapprox_rr_responded_vectors_total",
		Value: float64(respondedVectors.Load()),
		Kind:  telemetry.KindCounter,
	})
}
