package pubsub

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
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

// errWire reports a malformed request — a transport protocol violation,
// or arguments no encoder of a valid request writes.
var errWire = errors.New("pubsub: wire protocol error")

// Opcodes. The values are the wire format and are pinned by the golden
// frame in wire_golden_test.go. 1 (the retired topic creation: every
// topic is created on its broker, in process), 2 (the retired
// single-record publish) and 8–11 are unassigned, and a frame carrying
// one is refused.
const (
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

// frameHeader is a frame's length prefix: a big-endian u32 counting the
// body bytes after it.
const frameHeader = 4

// frameStep bounds how far a frame's buffer grows ahead of the body
// bytes that have arrived: at most this much, or as much as has already
// arrived. A header that claims maxFrame and then stalls pins no more
// than frameStep; a buffer that already has the room reads in one pass.
const frameStep = 1 << 20

// readFrameLen reads a frame's length prefix out of br's buffer,
// refusing one above maxFrame.
func readFrameLen(br *bufio.Reader) (int, error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(frameHeader) // buffered by Peek: it cannot fail
	if n > maxFrame {
		return 0, fmt.Errorf("%w: frame of %d bytes", errWire, n)
	}
	return int(n), nil
}

// appendFrameBody reads the n bytes of a frame after its length prefix
// and appends them to buf, growing it (by frameStep) only as they arrive.
func appendFrameBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	start := len(buf)
	for end := start + n; len(buf) < end; {
		at := len(buf)
		step := min(end-at, max(cap(buf)-at, frameStep, at-start))
		buf = slices.Grow(buf, step)[:at+step]
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// putFrameLen fills the length prefix reserved at the head of frame.
func putFrameLen(frame []byte) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
}

// enc is an append-only payload builder. A request built by newRequest
// holds its whole frame, length prefix first, so it goes out in one
// write; reply is the memory its reply frame is read into.
type enc struct{ buf, reply []byte }

// encPool recycles request buffers and their reply memory across round
// trips: the client reuses one grown buffer per request in flight
// instead of allocating a frame per call. A pooled enc may be reused
// only after its frame is fully written and its reply read
// (Client.roundTrip does both before it returns).
var encPool = sync.Pool{New: func() any { return new(enc) }}

// newRequest returns a pooled enc holding a reserved length prefix and
// op.
func newRequest(op byte) *enc {
	e := encPool.Get().(*enc)
	e.buf = append(e.buf[:0], 0, 0, 0, 0, op)
	return e
}

func putEnc(e *enc) { encPool.Put(e) }

// frame fills the reserved length prefix and returns the whole frame.
func (e *enc) frame() []byte {
	putFrameLen(e.buf)
	return e.buf
}

func (e *enc) byte(b byte)     { e.buf = append(e.buf, b) }
func (e *enc) uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *enc) uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *enc) bytes(b []byte)  { e.buf = codec.AppendBytes(e.buf, b) }
func (e *enc) str(s string)    { e.buf = codec.AppendBytes(e.buf, s) }

// wireReader reads a frame of the TCP protocol: every failure wraps
// errWire, and a string read is a view into the frame (cap-limited, so
// an append cannot run into its neighbour) valid only while the frame
// is. The server's publish handlers pass views straight to the broker,
// which copies them once into its slab; the client's fetch hands out
// views of the response frame it read into the caller's memory.
func wireReader(frame []byte) codec.Reader { return codec.NewReader(frame, errWire, "frame") }
