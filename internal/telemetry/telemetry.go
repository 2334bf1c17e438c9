// Package telemetry is the fleet-wide observability plane: a
// zero-allocation metrics registry (named, sharded fixed-bucket latency
// histograms plus snapshot Sources), epoch trace spans that follow a
// batch through the pipeline stages, and exposition surfaces
// (Prometheus text, expvar, pprof) for the live introspection endpoint.
//
// The hot-path contract: instruments are resolved ONCE at construction
// time (a *Histogram or *Tracer field on the component, never a map
// lookup or string hash per event), and every mutation method —
// Histogram.Observe, Tracer.Record — performs only atomic arithmetic on
// preallocated memory: 0 allocs/op, enforced by the repo allocgate. Snapshot-time paths (Gather, WriteProm, Spans)
// may allocate freely; they run at scrape cadence, not share cadence.
//
// The package deliberately imports nothing from the rest of the repo,
// so every kernel package (xorcrypt, rr, answer, pubsub, wal, client,
// aggregator, engine, core) can depend on it without cycles.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Kind classifies a sample for the Prometheus TYPE line.
type Kind uint8

const (
	KindUntyped Kind = iota
	KindCounter
	KindGauge
)

// Sample is one exported series value at snapshot time. LabelKey /
// LabelValue carry at most one label pair (e.g. query="taxi"); Name
// plus the pair identify the series. Help is optional and only
// meaningful on the first sample of a name.
type Sample struct {
	Name       string
	LabelKey   string
	LabelValue string
	Value      float64
	Kind       Kind
}

// Source contributes snapshot-time samples to a Registry. Components
// that already keep their own atomic counters (broker, aggregator,
// chaos transport, WAL) implement it instead of growing bespoke Stats
// structs; AppendSamples must be safe to call concurrently with the
// component's hot path and should not retain dst.
type Source interface {
	AppendSamples(dst []Sample) []Sample
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(dst []Sample) []Sample

// AppendSamples calls f.
func (f SourceFunc) AppendSamples(dst []Sample) []Sample { return f(dst) }

// Registry owns a set of named histograms and snapshot Sources.
// Histogram is idempotent per name — asking twice for the same name
// returns the same histogram — so concurrent component construction
// cannot double-register. Construction takes the registry lock; the
// returned histograms never do.
type Registry struct {
	mu      sync.Mutex
	hists   map[string]*Histogram
	sources []Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the latency histogram registered under name,
// creating it on first use. Buckets are the fixed exponential
// nanosecond ladder (see hist.go); Observe is 0 allocs/op. Panics if
// name is not a valid metric name: registration is a construction-time
// act, so a bad name is a programming error, not a runtime condition to
// soft-fail.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	h := newHistogram(name)
	r.hists[name] = h
	return h
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]* — checked at registration so a
// typo'd series fails at construction instead of silently corrupting
// the exposition text.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch ch := name[i]; {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch == '_', ch == ':':
		case ch >= '0' && ch <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// RegisterSource adds a snapshot source; its samples appear in every
// Gather and WriteProm after this call.
func (r *Registry) RegisterSource(s Source) {
	if s == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, s)
	r.mu.Unlock()
}

// Gather snapshots every histogram and source into a flat, sorted
// sample list. Histograms contribute their _count and _sum series plus
// one cumulative _bucket sample per bucket bound (label le). Gather
// allocates; it is the scrape path, not the hot path.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, 8*len(r.hists)+16)
	for _, h := range r.hists {
		out = h.appendSamples(out)
	}
	sources := append([]Source(nil), r.sources...)
	r.mu.Unlock()
	// Sources run outside the registry lock: they may take component
	// locks of their own, and nothing they need is guarded by ours.
	for _, s := range sources {
		out = s.AppendSamples(out)
	}
	// Stable sort on name only: within one series the append order is
	// meaningful (histogram buckets ascend by bound) and must survive.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Name < out[j].Name
	})
	return out
}
