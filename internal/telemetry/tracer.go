package telemetry

import (
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline hop an epoch batch passes through:
// client answer generation (flush and publish included), broker poll +
// aggregator drain, the join/decrypt/decode tail, and the window fire.
type Stage uint8

const (
	StageAnswer Stage = iota // clients compute, split and publish answers
	StageDrain               // consumer poll → aggregator submit
	StageJoin                // aggregator join/decrypt/decode tail
	StageFire                // window fire + result emit
	numStages
)

var stageNames = [numStages]string{
	StageAnswer: "answer",
	StageDrain:  "drain",
	StageJoin:   "join",
	StageFire:   "fire",
}

// String returns the stage's instrument label.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// stageCell is the per-(epoch, stage) accumulator: total busy
// nanoseconds, number of recorded events, units processed (shares,
// messages), and the maximum queue depth seen behind the stage.
type stageCell struct {
	ns     atomic.Int64
	events atomic.Int64
	units  atomic.Int64
	depth  atomic.Int64 // max
}

func (c *stageCell) record(d time.Duration, units, depth int) {
	c.ns.Add(int64(d))
	c.events.Add(1)
	c.units.Add(int64(units))
	for {
		cur := c.depth.Load()
		if int64(depth) <= cur || c.depth.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

func (c *stageCell) reset() {
	c.ns.Store(0)
	c.events.Store(0)
	c.units.Store(0)
	c.depth.Store(0)
}

// spanRing is the number of epochs whose spans stay resident; older
// slots are recycled in place.
const spanRing = 64

// spanSlot holds one epoch's stage cells. key is epoch+1 (0 = empty)
// so epoch 0 is representable.
type spanSlot struct {
	key    atomic.Uint64
	stages [numStages]stageCell
}

// StageSpan is the snapshot of one stage within one epoch.
type StageSpan struct {
	Stage    Stage
	Busy     time.Duration
	Events   int64
	Units    int64
	MaxDepth int64
}

// EpochSpan is the snapshot of one epoch's trip through the pipeline.
type EpochSpan struct {
	Epoch  uint64
	Stages [int(numStages)]StageSpan
}

// Tracer records epoch trace spans with zero allocation on the hot
// path: Record is a ring-slot lookup plus atomic adds. The driver
// calls BeginEpoch once per epoch; stages call Record with whatever
// epoch they are processing — a fired window charges its fire duration
// and responses to the fire stage. A Tracer is also a Source, exporting
// cumulative per-stage totals.
type Tracer struct {
	epoch  atomic.Uint64 // current epoch + 1
	slots  [spanRing]spanSlot
	totals [numStages]stageCell
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// BeginEpoch marks e as the current epoch and claims its ring slot,
// resetting whatever older epoch occupied it.
func (t *Tracer) BeginEpoch(e uint64) {
	t.epoch.Store(e + 1)
	slot := &t.slots[e%spanRing]
	if slot.key.Load() != e+1 {
		for i := range slot.stages {
			slot.stages[i].reset()
		}
		slot.key.Store(e + 1)
	}
}

// Epoch returns the current epoch (the last BeginEpoch argument).
func (t *Tracer) Epoch() uint64 {
	e := t.epoch.Load()
	if e == 0 {
		return 0
	}
	return e - 1
}

// Record charges d of busy time, units processed, and an observed
// queue depth to stage st of epoch e. 0 allocs/op; concurrent-safe.
// Records against an epoch more than spanRing behind the current one
// land on a recycled slot and are charged to totals only.
func (t *Tracer) Record(e uint64, st Stage, d time.Duration, units, depth int) {
	if st >= numStages {
		return
	}
	t.totals[st].record(d, units, depth)
	slot := &t.slots[e%spanRing]
	if slot.key.Load() == e+1 {
		slot.stages[st].record(d, units, depth)
	}
}

// RecordCurrent is Record against the current epoch — for stages that
// do not thread the epoch number through their call path.
func (t *Tracer) RecordCurrent(st Stage, d time.Duration, units, depth int) {
	t.Record(t.Epoch(), st, d, units, depth)
}

// Spans appends a snapshot of every resident epoch span to dst,
// oldest epoch first.
func (t *Tracer) Spans(dst []EpochSpan) []EpochSpan {
	start := len(dst)
	for i := range t.slots {
		slot := &t.slots[i]
		key := slot.key.Load()
		if key == 0 {
			continue
		}
		es := EpochSpan{Epoch: key - 1}
		for s := range slot.stages {
			c := &slot.stages[s]
			es.Stages[s] = StageSpan{
				Stage:    Stage(s),
				Busy:     time.Duration(c.ns.Load()),
				Events:   c.events.Load(),
				Units:    c.units.Load(),
				MaxDepth: c.depth.Load(),
			}
		}
		dst = append(dst, es)
	}
	sortSpans(dst[start:])
	return dst
}

func sortSpans(spans []EpochSpan) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j-1].Epoch > spans[j].Epoch; j-- {
			spans[j-1], spans[j] = spans[j], spans[j-1]
		}
	}
}

// AppendSamples exports the cumulative per-stage totals, making the
// Tracer a Source: busy nanoseconds, event and unit counts as
// counters, and the high-water queue depth as a gauge, one series per
// stage labeled stage="...".
func (t *Tracer) AppendSamples(dst []Sample) []Sample {
	for s := range t.totals {
		c := &t.totals[s]
		name := stageNames[s]
		dst = append(dst,
			Sample{Name: "privapprox_stage_busy_ns_total", LabelKey: "stage", LabelValue: name, Value: float64(c.ns.Load()), Kind: KindCounter},
			Sample{Name: "privapprox_stage_events_total", LabelKey: "stage", LabelValue: name, Value: float64(c.events.Load()), Kind: KindCounter},
			Sample{Name: "privapprox_stage_units_total", LabelKey: "stage", LabelValue: name, Value: float64(c.units.Load()), Kind: KindCounter},
			Sample{Name: "privapprox_stage_depth_max", LabelKey: "stage", LabelValue: name, Value: float64(c.depth.Load()), Kind: KindGauge},
		)
	}
	return dst
}
