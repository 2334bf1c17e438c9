package pubsub

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy shapes a Producer's at-least-once delivery. The zero
// value means one attempt.
type RetryPolicy struct {
	// Attempts is the number of tries per batch chunk (<= 0 means 1).
	// Retries fire only for retryable failures: ErrAmbiguous (the
	// request may have applied — safe to retry because the broker
	// dedups) and transport-level errors like dial failures and
	// connection resets. Broker verdicts (ErrNoTopic, ErrClosed,
	// ErrPartitionFull, wire violations) never retry.
	Attempts int
	// Backoff is the sleep before the first retry, doubling per retry up
	// to MaxBackoff. Defaults: 10ms → 500ms.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed, when nonzero, enables deterministic ±50% jitter on backoff
	// so a fleet of producers does not retry in lockstep.
	Seed int64
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.Attempts <= 0 {
		r.Attempts = 1
	}
	if r.Backoff <= 0 {
		r.Backoff = 10 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 500 * time.Millisecond
	}
	return r
}

// Producer is the idempotent publish front-end over any Transport: it
// tags every batch with a producer ID and a per-topic sequence number,
// and retries ambiguous failures safely — the broker's per-partition
// session slots turn a replayed batch into Stats.Duplicates instead of
// double-published records.
//
// A Producer serializes its publishes (one in-flight batch per
// producer), which the dedup contract requires: sequences must reach
// the broker in order. Concurrent callers share the one lane.
type Producer struct {
	t  Transport
	id uint64

	mu     sync.Mutex
	pol    RetryPolicy
	seqs   map[string]uint64
	jitter atomic.Uint64
}

// NewProducer wraps t with a fresh producer session. The producer ID is
// drawn from crypto/rand (collision odds over 64 bits are negligible;
// no broker-side registration is needed).
func NewProducer(t Transport, pol RetryPolicy) *Producer {
	p := &Producer{t: t, seqs: make(map[string]uint64)}
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// crypto/rand failing is effectively fatal elsewhere in the
			// system too; fall back to a time-derived ID rather than
			// panicking in a constructor.
			binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
		}
		if p.id = binary.BigEndian.Uint64(b[:]); p.id != 0 {
			break
		}
	}
	p.SetPolicy(pol)
	return p
}

// ID returns the producer's session ID.
func (p *Producer) ID() uint64 { return p.id }

// SetPolicy replaces the retry policy. Safe to call between publishes;
// a publish in flight finishes under the policy it started with.
func (p *Producer) SetPolicy(pol RetryPolicy) {
	p.mu.Lock()
	p.pol = pol.withDefaults()
	p.jitter.Store(jitterState(p.pol.Seed))
	p.mu.Unlock()
}

// retryablePublishErr reports whether a failed publish may be retried
// under a session: ambiguous outcomes (the broker dedups a replay) and
// transport-level failures (dial errors, resets — the request never got
// a broker verdict) are retryable; definite broker and protocol
// verdicts are not.
func retryablePublishErr(err error) bool {
	if errors.Is(err, ErrAmbiguous) {
		return true
	}
	for _, s := range []error{
		ErrNoTopic, ErrTopicExists, ErrNoPartition, ErrBadOffset,
		ErrClosed, ErrPartitionFull, ErrWire, ErrDurable,
	} {
		if errors.Is(err, s) {
			return false
		}
	}
	return true
}

// PublishColumns publishes cols to topic with at-least-once retries and
// exactly-once effect. Batches above maxBatchBytes are split by rows
// into chunks, each tagged with its own sequence; all-or-nothing holds
// per chunk.
func (p *Producer) PublishColumns(topic string, cols Columns) error {
	if err := cols.Validate(); err != nil {
		return err
	}
	if cols.Count == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rows := maxBatchBytes / (cols.KeyLen + cols.ValLen)
	if rows < 1 {
		rows = 1
	}
	for start := 0; start < cols.Count; start += rows {
		n := cols.Count - start
		if n > rows {
			n = rows
		}
		chunk := Columns{
			Count:  n,
			KeyLen: cols.KeyLen,
			ValLen: cols.ValLen,
			Keys:   cols.Keys[start*cols.KeyLen : (start+n)*cols.KeyLen],
			Vals:   cols.Vals[start*cols.ValLen : (start+n)*cols.ValLen],
		}
		if err := p.sendLocked(topic, chunk); err != nil {
			return err
		}
	}
	return nil
}

// sendLocked assigns the chunk its sequence and runs the retry loop:
// retryable failures consume attempts with exponential backoff, every
// attempt carrying the same sequence. Caller holds p.mu.
func (p *Producer) sendLocked(topic string, chunk Columns) error {
	seq := p.seqs[topic] + 1
	p.seqs[topic] = seq
	backoff := p.pol.Backoff
	for attempt := 1; ; attempt++ {
		err := p.t.PublishColumns(topic, chunk, p.id, seq)
		if err == nil || !retryablePublishErr(err) || attempt >= p.pol.Attempts {
			return err
		}
		time.Sleep(jitterDur(&p.jitter, backoff))
		if backoff *= 2; backoff > p.pol.MaxBackoff {
			backoff = p.pol.MaxBackoff
		}
	}
}
