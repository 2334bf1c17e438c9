package xorcrypt

import (
	"privapprox/internal/telemetry"
)

// Package-level kernel counters of the join plane: JoinColumnsInto
// counts each call and the bytes of one lane with one atomic add each.
// A process registers them with telemetry.Registry.RegisterSource
// (telemetry.SourceFunc(Metrics)).
var (
	joinBatchBytes telemetry.Counter
	joinBatchCalls telemetry.Counter
)

// Metrics appends the package's kernel counters as telemetry samples.
func Metrics(dst []telemetry.Sample) []telemetry.Sample {
	return append(dst,
		telemetry.Sample{Name: "privapprox_xorcrypt_join_batch_bytes_total", Value: float64(joinBatchBytes.Load()), Kind: telemetry.KindCounter},
		telemetry.Sample{Name: "privapprox_xorcrypt_join_batch_calls_total", Value: float64(joinBatchCalls.Load()), Kind: telemetry.KindCounter},
	)
}
