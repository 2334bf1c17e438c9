// Package engine is PrivApprox's query control plane: the path every
// query takes to the clients, where many analysts' signed queries run
// concurrently over one shared client fleet (paper §3.1: queries are
// submitted to the aggregator and distributed to clients via the
// proxies).
//
// Three pieces compose:
//
//   - The control codec (this file): versioned query-set announcements
//     — full snapshots of the active query set, each stamped with From,
//     the first epoch it is in force at, and each entry carrying the
//     signed query, the analyst's public key, the derived system
//     parameters, and a per-query revision.
//   - Registry: the aggregator-side control plane — verifies analyst
//     signatures against a trust store, rejects wire-ID collisions, and
//     broadcasts snapshots to control sinks (the proxies' control
//     topics).
//   - Applier / Follower: the receiving side — consume announcements,
//     verify, and reconcile a set of subscribers against them: a
//     process's clients (role.Clients), and the aggregator itself
//     (role.Drain), so a query, a parameter change, a shed change and a
//     stop reach the aggregator the way they reach the clients.
//
// The in-force rule, which every follower keeps through its Applier: a
// snapshot applies at the start of epoch From (at once, once that has
// passed: From 0 applies on arrival); snapshots apply in (From, Version)
// order, every one of them; and one not greater in that order than the
// last one applied is ignored. A follower's clock is a position in that
// order (Applier.Advance): one that answers epochs stands at the start
// of an epoch, every version; a wiring that re-announces the changes a
// restored topic holds also bounds the version, so each applies at the
// change that made it.
package engine

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/codec"
	"privapprox/internal/query"
	"privapprox/internal/rr"
)

// ErrControlWire reports a malformed control-plane payload.
var ErrControlWire = errors.New("engine: control wire error")

// opQuerySet tags a full query-set snapshot — the only control opcode
// today; updates and stops are expressed as new snapshots, which is
// what makes the protocol loss- and reorder-tolerant. 0x51 tagged the
// snapshot without From and is refused like any unknown opcode.
const opQuerySet = byte(0x52)

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

// QuerySet is one versioned snapshot of the active query set, in force
// from the start of epoch From.
type QuerySet struct {
	Version uint64
	From    uint64
	Entries []Entry
}

// MarshalBinary encodes the snapshot.
func (qs *QuerySet) MarshalBinary() ([]byte, error) {
	buf := []byte{opQuerySet}
	buf = binary.BigEndian.AppendUint64(buf, qs.Version)
	buf = binary.BigEndian.AppendUint64(buf, qs.From)
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
	buf = codec.AppendBytes(buf, q.QID.Analyst)
	buf = binary.BigEndian.AppendUint64(buf, q.QID.Serial)
	buf = codec.AppendBytes(buf, q.SQL)
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
	buf = codec.AppendBytes(buf, e.Signed.Signature)
	buf = codec.AppendBytes(buf, e.AnalystKey)
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
		return codec.AppendBytes(buf, bk.Label()), nil
	default:
		return nil, fmt.Errorf("%w: bucket type %T not encodable", ErrControlWire, b)
	}
}

// DecodeQuerySet decodes one control payload. It validates structure
// only; signature verification and query validation belong to the
// applier (a malformed snapshot must not take the control consumer
// down).
func DecodeQuerySet(payload []byte) (*QuerySet, error) {
	d := codec.NewReader(payload, ErrControlWire, "payload")
	if op := d.U8(); op != opQuerySet {
		d.Fail("unknown opcode %#x", op)
	}
	qs := &QuerySet{Version: d.U64(), From: d.U64()}
	count := d.U32()
	if count > maxEntries {
		d.Fail("%d entries", count)
	}
	for ; count > 0 && d.Err() == nil; count-- {
		qs.Entries = append(qs.Entries, decodeEntry(&d))
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return qs, nil
}

// field reads a length-prefixed string of at most maxStringLen bytes as
// a view into the payload.
func field(d *codec.Reader) []byte {
	b := d.Bytes()
	if len(b) > maxStringLen {
		d.Fail("%d-byte field", len(b))
	}
	return b
}

func decodeEntry(d *codec.Reader) Entry {
	q := &query.Query{QID: query.ID{Analyst: string(field(d)), Serial: d.U64()}, SQL: string(field(d))}
	q.Frequency, q.Window, q.Slide = time.Duration(d.U64()), time.Duration(d.U64()), time.Duration(d.U64())
	switch inv := d.U8(); inv {
	case 0:
	case 1:
		q.Inverted = true
	default:
		d.Fail("inversion flag %d", inv)
	}
	nb := d.U32()
	if nb > maxBuckets {
		d.Fail("%d buckets", nb)
	}
	for ; nb > 0 && d.Err() == nil; nb-- {
		q.Buckets = append(q.Buckets, decodeBucket(d))
	}
	// The entry outlives the payload: it owns its signature and key.
	sig, pub := bytes.Clone(field(d)), bytes.Clone(field(d))
	e := Entry{
		Signed:     &query.Signed{Query: q, Signature: sig},
		AnalystKey: ed25519.PublicKey(pub),
		Params:     budget.Params{S: d.F64(), RR: rr.Params{P: d.F64(), Q: d.F64()}},
		Rev:        d.U64(),
		Shed:       d.F64(),
	}
	if !(e.Shed > 0) || e.Shed > 1 {
		e.Shed = 1
	}
	return e
}

func decodeBucket(d *codec.Reader) query.Bucket {
	switch tag := d.U8(); tag {
	case bucketRange:
		return query.RangeBucket{Lo: d.F64(), Hi: d.F64()}
	case bucketPattern:
		b, err := query.NewPatternBucket(string(field(d)))
		if err != nil {
			d.Fail("%v", err)
			return nil
		}
		return b
	default:
		d.Fail("unknown bucket tag %#x", tag)
		return nil
	}
}
