package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The TCP transport speaks length-prefixed binary frames. Each request
// frame starts with a one-byte opcode; each response frame starts with a
// one-byte status (0 = ok, 1 = error followed by a message string).

// maxFrame bounds a frame to keep a misbehaving peer from ballooning
// memory.
const maxFrame = 64 << 20

// ErrWire reports a transport protocol violation.
var ErrWire = errors.New("pubsub: wire protocol error")

// Opcodes. The values are the wire format and are pinned by the golden
// frame in wire_golden_test.go; 8–11 are unassigned.
const (
	opCreateTopic = byte(1)
	// opPublish carries one variable-length, optionally keyless record.
	opPublish    = byte(2)
	opFetch      = byte(3)
	opEndOffset  = byte(4)
	opCommit     = byte(5)
	opCommitted  = byte(6)
	opPartitions = byte(7)
	// opPublishColumns carries one fixed-stride batch and its producer
	// session tag: topic | u64 pid | u64 seq | u32 count | u32 keyLen |
	// u32 valLen | keys | vals.
	opPublishColumns = byte(12)
)

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into a buffer of its own: the caller owns
// the bytes.
func readFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto is readFrame over buf's storage when the frame fits it.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrWire, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// enc is an append-only payload builder.
type enc struct{ buf []byte }

// encPool recycles frame-encode buffers across requests: the publish
// hot path reuses one grown buffer per connectionful of traffic instead
// of allocating a frame per call. A pooled enc may be reused only after
// the frame is fully written (roundTrip writes before returning).
var encPool = sync.Pool{New: func() any { return new(enc) }}

func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.buf = e.buf[:0]
	return e
}

func putEnc(e *enc) { encPool.Put(e) }

func (e *enc) byte(b byte)     { e.buf = append(e.buf, b) }
func (e *enc) uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *enc) uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *enc) bytes(b []byte) {
	e.uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) str(s string) { e.bytes([]byte(s)) }

// dec is a sequential payload reader.
type dec struct{ buf []byte }

func (d *dec) byte() (byte, error) {
	if len(d.buf) < 1 {
		return 0, fmt.Errorf("%w: short frame", ErrWire)
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *dec) uint32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, fmt.Errorf("%w: short frame", ErrWire)
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

func (d *dec) uint64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, fmt.Errorf("%w: short frame", ErrWire)
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *dec) str() (string, error) {
	b, err := d.view()
	return string(b), err
}

// view reads a length-prefixed byte string without copying: the
// returned slice aliases the frame buffer (cap-limited, so
// an append cannot run into its neighbour) and is valid only while the
// frame is. The server's publish handlers pass views straight to the
// broker, which copies them once into its slab; the client's fetch
// hands out views of the response frame it owns.
func (d *dec) view() ([]byte, error) {
	n, err := d.uint32()
	if err != nil {
		return nil, err
	}
	if uint32(len(d.buf)) < n {
		return nil, fmt.Errorf("%w: short frame", ErrWire)
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out, nil
}
