// Package ckpt holds the one reader every section of a checkpoint
// record is decoded with — the consumer positions and results of the
// record itself (internal/role), the system section (internal/core) and
// the aggregator's state (internal/aggregator): big-endian integers and
// u32-length-prefixed byte strings, bounds-checked, where the first
// failure sticks and every later read returns a zero value.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBytes appends b with its u32 length prefix.
func AppendBytes[T string | []byte](buf []byte, b T) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// Reader decodes a record front to back.
type Reader struct {
	buf      []byte
	err      error
	sentinel error
}

// NewReader reads data; every failure it reports wraps sentinel.
func NewReader(data []byte, sentinel error) *Reader {
	return &Reader{buf: data, sentinel: sentinel}
}

// Fail records a failure unless one is recorded already.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread bytes.
func (r *Reader) Rest() []byte { return r.buf }

// Take returns the next n bytes, a view into the record.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.Fail("short record")
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
// cannot hold, each element taking at least size bytes — a corrupt count
// never sizes an allocation.
func (r *Reader) Count(size int) int {
	n := int(r.U32())
	if n > len(r.buf)/size {
		r.Fail("count %d beyond the record", n)
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
