package wal

import (
	"privapprox/internal/telemetry"
)

// SetLatencyHistograms attaches latency histograms to the log: app
// observes each successful Append/AppendBatch call end to end
// (including any policy fsync), fsync observes each fsync of the
// active segment regardless of which policy triggered it. Either may
// be nil; unset histograms cost one atomic load per operation.
func (l *Log) SetLatencyHistograms(app, fsync *telemetry.Histogram) {
	l.appendLat.Store(app)
	l.fsyncLat.Store(fsync)
}
