package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// The bucket ladder: bucket i holds observations v (nanoseconds) with
// v < 256ns·2^i, i.e. upper bounds 256ns, 512ns, 1µs, ... ~549s over
// histBuckets buckets, with one overflow bucket above the last bound.
// Fixed at compile time so Observe is a bits.Len64 plus two atomic
// adds — no per-histogram configuration, no boxing, no allocation.
const (
	histBuckets = 32 // finite bounds
	histMinBits = 8  // first bound = 1 << histMinBits ns = 256ns
	histShards  = 4  // concurrent writers spread over shards
	shardMask   = histShards - 1
)

// histShard is one writer lane. The counts array spans several cache
// lines on its own, so lanes mostly avoid false sharing without
// explicit padding; sum and count ride the same lane as its buckets.
type histShard struct {
	counts [histBuckets + 1]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// Histogram is a sharded fixed-bucket latency histogram. Observe picks
// a shard from the low bits of a cheap multiplicative hash of the
// value, so concurrent writers recording different latencies land on
// different lanes; snapshot folds all lanes.
type Histogram struct {
	shards [histShards]histShard
	name   string
}

func newHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Observe records one duration in nanoseconds. 0 allocs/op; safe for
// any number of concurrent callers.
func (h *Histogram) Observe(ns int64) {
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	b := bucketOf(v)
	s := &h.shards[(v*0x9E3779B97F4A7C15)>>32&shardMask]
	s.counts[b].Add(1)
	s.sum.Add(ns)
	s.count.Add(1)
}

// bucketOf maps a nanosecond value to its bucket index: the number of
// significant bits above the ladder floor, clamped to the overflow
// bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v >> histMinBits)
	if b > histBuckets {
		return histBuckets
	}
	return b
}

// Name returns the series name.
func (h *Histogram) Name() string { return h.name }

// snapshot folds the shards into cumulative bucket counts aligned with
// Bounds(), plus total count and sum. Reads are atomic per cell but
// not cross-cell consistent — fine for monitoring, documented for
// tests.
func (h *Histogram) snapshot() (cum [histBuckets + 1]int64, count, sum int64) {
	var raw [histBuckets + 1]int64
	for i := range h.shards {
		s := &h.shards[i]
		for b := range raw {
			raw[b] += s.counts[b].Load()
		}
		count += s.count.Load()
		sum += s.sum.Load()
	}
	var running int64
	for b := range raw {
		running += raw[b]
		cum[b] = running
	}
	return cum, count, sum
}

// bound returns the upper bound in nanoseconds of finite bucket i.
func bound(i int) float64 {
	return float64(uint64(1) << (histMinBits + i))
}

// appendSamples expands the histogram into Prometheus-convention
// samples: name_bucket{le="..."} cumulative counts (including +Inf),
// name_sum, and name_count.
func (h *Histogram) appendSamples(dst []Sample) []Sample {
	cum, count, sum := h.snapshot()
	for i := 0; i < histBuckets; i++ {
		dst = append(dst, Sample{
			Name:       h.name + "_bucket",
			LabelKey:   "le",
			LabelValue: formatBound(bound(i)),
			Value:      float64(cum[i]),
			Kind:       KindCounter,
		})
	}
	dst = append(dst, Sample{Name: h.name + "_bucket", LabelKey: "le", LabelValue: "+Inf", Value: float64(cum[histBuckets]), Kind: KindCounter})
	dst = append(dst, Sample{Name: h.name + "_sum", Value: float64(sum), Kind: KindCounter})
	dst = append(dst, Sample{Name: h.name + "_count", Value: float64(count), Kind: KindCounter})
	return dst
}

func formatBound(b float64) string { return trimFloat(b) }
