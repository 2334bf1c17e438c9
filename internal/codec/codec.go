// Package codec is the one reader for every variable-length record the
// system reads off the wire or disk: big-endian integers and
// u32-length-prefixed byte strings, bounds-checked, where the first
// failure sticks and every later read returns a zero value. It reads
//
//   - the TCP broker protocol (internal/pubsub): request frames, the
//     status and body of every reply, and the runs of a fetch response;
//   - the broker journal (internal/pubsub): partition run records and
//     the meta records for topics and consumer commits;
//   - the control topic's query-set announcements (internal/engine);
//   - the checkpoint record (internal/role), its system section
//     (internal/core) with the SLO controllers' state (internal/budget),
//     and the aggregator's state (internal/aggregator).
//
// Fixed-layout records — the answer message, WAL frames, lineage stamps —
// keep their direct reads. DESIGN.md's byte-format table lists every
// format with its encoder, decoder and limits.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBytes appends b with its u32 length prefix.
func AppendBytes[T ~string | ~[]byte](buf []byte, b T) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// Reader decodes a record front to back. It is a small value: a caller
// keeps it on its stack and passes its address down.
type Reader struct {
	buf      []byte
	err      error
	sentinel error
	unit     string
}

// NewReader reads data, a unit ("frame", "record", ...) named in its
// failures, every one of which wraps sentinel.
func NewReader(data []byte, sentinel error, unit string) Reader {
	return Reader{buf: data, sentinel: sentinel, unit: unit}
}

// Fail records a failure unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Take returns the next n bytes, a view into the record whose capacity
// ends at its length, so an append to it cannot overwrite what follows.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.Fail("short %s", r.unit)
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 by its IEEE 754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads an AppendBytes string as a view into the record.
func (r *Reader) Bytes() []byte { return r.Take(int(r.U32())) }

// Str reads an AppendBytes string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count reads a u32 element count and refuses one the rest of the record
// cannot hold, each element taking at least size bytes (a size of 0
// bounds nothing) — a corrupt count never sizes an allocation, and
// count × size never overflows.
func (r *Reader) Count(size int) int {
	n := int(r.U32())
	if size > 0 && n > len(r.buf)/size {
		r.Fail("count %d beyond the %s", n, r.unit)
		return 0
	}
	return n
}

// Done fails the read unless it consumed the whole record.
func (r *Reader) Done() error {
	if len(r.buf) > 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}
