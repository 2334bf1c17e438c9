// Package chaos injects seeded faults into the data-plane publish path.
// It is netsim.Link's live sibling: where Link models an adversarial
// delivery schedule for the control plane offline, chaos.Transport
// wraps a real pubsub transport and perturbs sessioned PublishColumns
// calls as they happen — synthetic connection resets (the request never
// executes), dropped acks (the request executes but the caller sees an
// ambiguous failure), duplicated deliveries (the request executes
// twice), and delays. Under a fixed seed the fault schedule is a pure
// function of the call sequence, so a chaos run is reproducible and a
// gate can assert that results under faults are byte-identical to the
// fault-free run (the broker's producer-session dedup and the client's
// retry policy absorb every injected fault).
//
// Faults target only PublishColumns calls that carry a producer session
// (pid != 0): those are the calls with an exactly-once contract to
// stress. Publish and unsessioned batches pass through untouched —
// without broker dedup, a replayed or duplicated share would XOR the
// aggregator's MID join into silent garbage, which is the bug class the
// session layer exists to prevent, not a behavior worth simulating
// here.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"privapprox/internal/pubsub"
)

// Fault identifies one injected fault kind.
type Fault int

const (
	// FaultNone: the call passes through untouched.
	FaultNone Fault = iota
	// FaultReset fails the call before it reaches the inner transport —
	// a connection reset on send. The operation did not execute;
	// retrying cannot double-publish even without dedup.
	FaultReset
	// FaultAckDrop executes the call, then reports an ambiguous failure
	// — the broker applied the batch but the ack never arrived. Only a
	// deduplicating retry recovers this without double-publishing.
	FaultAckDrop
	// FaultDuplicate executes the call twice with the same producer ID
	// and sequence — a duplicated delivery the broker must dedup.
	FaultDuplicate
	// FaultDelay sleeps briefly, then executes the call normally.
	FaultDelay
)

// String names the fault kind.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultReset:
		return "reset"
	case FaultAckDrop:
		return "ack-drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// ErrInjectedReset is the synthetic pre-execution failure. It is not a
// pubsub sentinel, so pubsub.Producer treats it as a retryable
// transport error — exactly like a real dial failure or reset.
var ErrInjectedReset = errors.New("chaos: injected connection reset")

// Plan is one seeded fault schedule: per-call probabilities for each
// fault kind (at most one fault fires per call, drawn in the order
// reset, ack-drop, duplicate, delay from a single uniform variate).
// The zero Plan injects nothing.
type Plan struct {
	// Seed fixes the schedule; the same seed and call sequence always
	// yield the same faults. Seed 0 is a valid (distinct) schedule.
	Seed int64
	// Reset, AckDrop, Duplicate, Delay are per-call probabilities in
	// [0, 1]; their sum must not exceed 1.
	Reset     float64
	AckDrop   float64
	Duplicate float64
	Delay     float64
	// DelayFor is the FaultDelay sleep (default 200µs).
	DelayFor time.Duration
}

// Validate checks the probabilities.
func (p Plan) Validate() error {
	for _, v := range []float64{p.Reset, p.AckDrop, p.Duplicate, p.Delay} {
		if v < 0 || v > 1 {
			return fmt.Errorf("chaos: probability %v outside [0, 1]", v)
		}
	}
	if sum := p.Reset + p.AckDrop + p.Duplicate + p.Delay; sum > 1 {
		return fmt.Errorf("chaos: fault probabilities sum to %v > 1", sum)
	}
	return nil
}

func (p Plan) delayFor() time.Duration {
	if p.DelayFor > 0 {
		return p.DelayFor
	}
	return 200 * time.Microsecond
}

// Stats counts the faults a Transport injected.
type Stats struct {
	Calls      int64 // sessioned PublishColumns calls seen
	Resets     int64
	AckDrops   int64
	Duplicates int64
	Delays     int64
}

// Injected returns the total number of faults fired.
func (s Stats) Injected() int64 { return s.Resets + s.AckDrops + s.Duplicates + s.Delays }

// inner lets Transport embed the wrapped transport without exporting a
// field: every method but PublishColumns is promoted from it untouched.
type inner = pubsub.Transport

// Transport wraps a pubsub transport with fault injection on the
// sessioned publish path; every other call passes straight through.
type Transport struct {
	inner
	plan Plan

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// Wrap builds a fault-injecting view of t under the given plan.
func Wrap(t pubsub.Transport, plan Plan) (*Transport, error) {
	if t == nil {
		return nil, fmt.Errorf("chaos: nil transport")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Transport{inner: t, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}, nil
}

// Stats returns the fault counters so far.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// draw picks at most one fault for the current call and counts it.
func (t *Transport) draw() Fault {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Calls++
	r := t.rng.Float64()
	switch {
	case r < t.plan.Reset:
		t.stats.Resets++
		return FaultReset
	case r < t.plan.Reset+t.plan.AckDrop:
		t.stats.AckDrops++
		return FaultAckDrop
	case r < t.plan.Reset+t.plan.AckDrop+t.plan.Duplicate:
		t.stats.Duplicates++
		return FaultDuplicate
	case r < t.plan.Reset+t.plan.AckDrop+t.plan.Duplicate+t.plan.Delay:
		t.stats.Delays++
		return FaultDelay
	}
	return FaultNone
}

// PublishColumns runs a sessioned publish under one drawn fault; an
// unsessioned batch (pid 0) has no dedup behind it and passes through.
func (t *Transport) PublishColumns(topic string, cols pubsub.Columns, pid, seq uint64) error {
	if pid == 0 {
		return t.inner.PublishColumns(topic, cols, pid, seq)
	}
	switch t.draw() {
	case FaultReset:
		return ErrInjectedReset
	case FaultAckDrop:
		if err := t.inner.PublishColumns(topic, cols, pid, seq); err != nil {
			return err
		}
		// The batch landed; report the ack lost. Wrapping ErrAmbiguous
		// states the truth — the caller cannot know the outcome — and
		// routes the producer onto its deduplicated retry path.
		return fmt.Errorf("%w: chaos: injected ack drop", pubsub.ErrAmbiguous)
	case FaultDuplicate:
		if err := t.inner.PublishColumns(topic, cols, pid, seq); err != nil {
			return err
		}
		// Redeliver with the same (pid, seq); the broker must dedup.
		// An error from the duplicate is swallowed — the first delivery
		// already succeeded.
		_ = t.inner.PublishColumns(topic, cols, pid, seq)
		return nil
	case FaultDelay:
		time.Sleep(t.plan.delayFor())
	}
	return t.inner.PublishColumns(topic, cols, pid, seq)
}

var _ pubsub.Transport = (*Transport)(nil)
