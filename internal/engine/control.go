// Package engine is PrivApprox's query control plane: the path every
// query takes to the clients, where many analysts' signed queries run
// concurrently over one shared client fleet (paper §3.1: queries are
// submitted to the aggregator and distributed to clients via the
// proxies).
//
// Three pieces compose:
//
//   - The control codec (this file): versioned query-set announcements
//     — full snapshots of the active query set, each entry carrying the
//     signed query, the analyst's public key, the derived system
//     parameters, and a per-query revision. Snapshots are idempotent
//     and totally ordered by version, so delivery through a lossy,
//     reordering channel converges as soon as the latest snapshot
//     lands.
//   - Registry: the aggregator-side control plane — verifies analyst
//     signatures against a trust store, rejects wire-ID collisions, and
//     broadcasts snapshots to control sinks (the proxies' control
//     topics).
//   - Applier / Follower: the client-side — consume announcements,
//     verify, and reconcile each client's subscription set against the
//     newest snapshot.
package engine

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
)

// ErrControlWire reports a malformed control-plane payload.
var ErrControlWire = errors.New("engine: control wire error")

// opQuerySet tags a full query-set snapshot — the only control opcode
// today; updates and stops are expressed as new snapshots, which is
// what makes the protocol loss- and reorder-tolerant.
const opQuerySet = byte(0x51)

// Codec limits: a snapshot is bounded so a malicious control record
// cannot balloon a client's memory.
const (
	maxEntries   = 4096
	maxStringLen = 1 << 20
	maxBuckets   = 1 << 16
)

// Bucket wire tags.
const (
	bucketRange   = byte(1)
	bucketPattern = byte(2)
)

// Entry is one active query in a snapshot.
type Entry struct {
	// Signed is the analyst's signed query.
	Signed *query.Signed
	// AnalystKey is the analyst's public key; clients verify the
	// signature against it, which detects tampering with a relayed
	// announcement. On its own it does not authenticate the analyst —
	// clients that must rule out forgery under a fresh key pin analyst
	// keys with Applier.Trust.
	AnalystKey ed25519.PublicKey
	// Params is the derived system parameter triple clients answer
	// under.
	Params budget.Params
	// Rev increments each time this query's entry changes (e.g. a
	// feedback-retuned sampling fraction); appliers re-subscribe only
	// when it moves, keeping a client's per-query coin stream stable
	// across unrelated snapshot churn.
	Rev uint64
	// Shed ∈ (0, 1] is the overload-control threshold: clients answer
	// at the effective fraction Params.S·Shed. Shed changes do NOT bump
	// Rev — appliers forward them via SetShed without re-subscribing,
	// so actuating the controller never redraws client coin streams.
	// Zero on the wire normalizes to 1 (no shedding), which keeps old
	// snapshots and zero-valued entries meaning "unshed".
	Shed float64
}

// QuerySet is one versioned snapshot of the active query set.
type QuerySet struct {
	Version uint64
	Entries []Entry
}

// MarshalBinary encodes the snapshot.
func (qs *QuerySet) MarshalBinary() ([]byte, error) {
	buf := []byte{opQuerySet}
	buf = binary.BigEndian.AppendUint64(buf, qs.Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(qs.Entries)))
	for i := range qs.Entries {
		var err error
		buf, err = appendEntry(buf, &qs.Entries[i])
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendEntry(buf []byte, e *Entry) ([]byte, error) {
	if e.Signed == nil || e.Signed.Query == nil {
		return nil, fmt.Errorf("%w: entry without query", ErrControlWire)
	}
	q := e.Signed.Query
	if len(q.Buckets) > maxBuckets {
		return nil, fmt.Errorf("%w: %d buckets", ErrControlWire, len(q.Buckets))
	}
	buf = appendString(buf, q.QID.Analyst)
	buf = binary.BigEndian.AppendUint64(buf, q.QID.Serial)
	buf = appendString(buf, q.SQL)
	buf = binary.BigEndian.AppendUint64(buf, uint64(q.Frequency))
	buf = binary.BigEndian.AppendUint64(buf, uint64(q.Window))
	buf = binary.BigEndian.AppendUint64(buf, uint64(q.Slide))
	if q.Inverted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(q.Buckets)))
	for _, b := range q.Buckets {
		var err error
		buf, err = appendBucket(buf, b)
		if err != nil {
			return nil, err
		}
	}
	buf = appendBytes(buf, e.Signed.Signature)
	buf = appendBytes(buf, e.AnalystKey)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Params.S))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Params.RR.P))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Params.RR.Q))
	buf = binary.BigEndian.AppendUint64(buf, e.Rev)
	shed := e.Shed
	if !(shed > 0) || shed > 1 {
		shed = 1
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(shed))
	return buf, nil
}

// appendBucket encodes one bucket with a type tag. Range buckets
// round-trip exactly (IEEE bits, so ±Inf endpoints survive); pattern
// buckets travel as their source pattern and are recompiled on decode.
// Any other bucket implementation cannot be distributed and is
// rejected at encode time.
func appendBucket(buf []byte, b query.Bucket) ([]byte, error) {
	switch bk := b.(type) {
	case query.RangeBucket:
		buf = append(buf, bucketRange)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(bk.Lo))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(bk.Hi))
		return buf, nil
	case *query.PatternBucket:
		buf = append(buf, bucketPattern)
		return appendString(buf, bk.Label()), nil
	default:
		return nil, fmt.Errorf("%w: bucket type %T not encodable", ErrControlWire, b)
	}
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// ctlDec is a bounds-checked sequential reader over a control payload.
type ctlDec struct{ buf []byte }

func (d *ctlDec) u8() (byte, error) {
	if len(d.buf) < 1 {
		return 0, fmt.Errorf("%w: short payload", ErrControlWire)
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *ctlDec) u32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, fmt.Errorf("%w: short payload", ErrControlWire)
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

func (d *ctlDec) u64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, fmt.Errorf("%w: short payload", ErrControlWire)
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *ctlDec) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *ctlDec) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if n > maxStringLen {
		return nil, fmt.Errorf("%w: %d-byte field", ErrControlWire, n)
	}
	if uint32(len(d.buf)) < n {
		return nil, fmt.Errorf("%w: short payload", ErrControlWire)
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out, nil
}

func (d *ctlDec) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// DecodeQuerySet decodes one control payload. It validates structure
// only; signature verification and query validation belong to the
// applier (a malformed snapshot must not take the control consumer
// down).
func DecodeQuerySet(payload []byte) (*QuerySet, error) {
	d := &ctlDec{buf: payload}
	op, err := d.u8()
	if err != nil {
		return nil, err
	}
	if op != opQuerySet {
		return nil, fmt.Errorf("%w: unknown opcode %#x", ErrControlWire, op)
	}
	version, err := d.u64()
	if err != nil {
		return nil, err
	}
	count, err := d.u32()
	if err != nil {
		return nil, err
	}
	if count > maxEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrControlWire, count)
	}
	qs := &QuerySet{Version: version}
	for i := uint32(0); i < count; i++ {
		e, err := decodeEntry(d)
		if err != nil {
			return nil, err
		}
		qs.Entries = append(qs.Entries, e)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrControlWire, len(d.buf))
	}
	return qs, nil
}

func decodeEntry(d *ctlDec) (Entry, error) {
	var e Entry
	q := &query.Query{}
	var err error
	if q.QID.Analyst, err = d.str(); err != nil {
		return e, err
	}
	if q.QID.Serial, err = d.u64(); err != nil {
		return e, err
	}
	if q.SQL, err = d.str(); err != nil {
		return e, err
	}
	var f, w, s uint64
	if f, err = d.u64(); err != nil {
		return e, err
	}
	if w, err = d.u64(); err != nil {
		return e, err
	}
	if s, err = d.u64(); err != nil {
		return e, err
	}
	q.Frequency, q.Window, q.Slide = time.Duration(f), time.Duration(w), time.Duration(s)
	inv, err := d.u8()
	if err != nil {
		return e, err
	}
	if inv > 1 {
		return e, fmt.Errorf("%w: inversion flag %d", ErrControlWire, inv)
	}
	q.Inverted = inv == 1
	nb, err := d.u32()
	if err != nil {
		return e, err
	}
	if nb > maxBuckets {
		return e, fmt.Errorf("%w: %d buckets", ErrControlWire, nb)
	}
	for i := uint32(0); i < nb; i++ {
		b, err := decodeBucket(d)
		if err != nil {
			return e, err
		}
		q.Buckets = append(q.Buckets, b)
	}
	sig, err := d.bytes()
	if err != nil {
		return e, err
	}
	pub, err := d.bytes()
	if err != nil {
		return e, err
	}
	var ps, pp, pq float64
	if ps, err = d.f64(); err != nil {
		return e, err
	}
	if pp, err = d.f64(); err != nil {
		return e, err
	}
	if pq, err = d.f64(); err != nil {
		return e, err
	}
	if e.Rev, err = d.u64(); err != nil {
		return e, err
	}
	if e.Shed, err = d.f64(); err != nil {
		return e, err
	}
	if !(e.Shed > 0) || e.Shed > 1 {
		e.Shed = 1
	}
	e.Signed = &query.Signed{Query: q, Signature: sig}
	e.AnalystKey = ed25519.PublicKey(pub)
	e.Params = budget.Params{S: ps, RR: rr.Params{P: pp, Q: pq}}
	return e, nil
}

func decodeBucket(d *ctlDec) (query.Bucket, error) {
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case bucketRange:
		lo, err := d.f64()
		if err != nil {
			return nil, err
		}
		hi, err := d.f64()
		if err != nil {
			return nil, err
		}
		return query.RangeBucket{Lo: lo, Hi: hi}, nil
	case bucketPattern:
		pattern, err := d.str()
		if err != nil {
			return nil, err
		}
		b, err := query.NewPatternBucket(pattern)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrControlWire, err)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("%w: unknown bucket tag %#x", ErrControlWire, tag)
	}
}
