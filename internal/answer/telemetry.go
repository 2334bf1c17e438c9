package answer

import (
	"privapprox/internal/telemetry"
)

// Package-level kernel counter for the accumulate plane: every folded
// answer vector, one atomic add per AddBatch call. A process registers
// it with telemetry.Registry.RegisterSource
// (telemetry.SourceFunc(Metrics)).
var accumulatedBatchVectors telemetry.Counter

// Metrics appends the package's kernel counters as telemetry samples.
func Metrics(dst []telemetry.Sample) []telemetry.Sample {
	return append(dst, telemetry.Sample{
		Name:  "privapprox_answer_accumulated_batch_vectors_total",
		Value: float64(accumulatedBatchVectors.Load()),
		Kind:  telemetry.KindCounter,
	})
}
