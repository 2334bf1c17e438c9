package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"privapprox/internal/codec"
)

// The TCP transport speaks length-prefixed binary frames. Each request
// frame starts with a one-byte opcode; each response frame starts with a
// one-byte status (0 = ok, 1 = error followed by a message string). A
// frame holds its fields and nothing after them: both sides refuse
// trailing bytes.

// maxFrame bounds a frame to keep a misbehaving peer from ballooning
// memory.
const maxFrame = 64 << 20

// ErrWire reports a malformed request — a transport protocol violation,
// or arguments no encoder of a valid request writes.
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
func (e *enc) bytes(b []byte)  { e.buf = codec.AppendBytes(e.buf, b) }
func (e *enc) str(s string)    { e.buf = codec.AppendBytes(e.buf, s) }

// wireReader reads a frame of the TCP protocol: every failure wraps
// ErrWire, and a string read is a view into the frame (cap-limited, so
// an append cannot run into its neighbour) valid only while the frame
// is. The server's publish handlers pass views straight to the broker,
// which copies them once into its slab; the client's fetch hands out
// views of the response frame it owns.
func wireReader(frame []byte) codec.Reader { return codec.NewReader(frame, ErrWire, "frame") }
