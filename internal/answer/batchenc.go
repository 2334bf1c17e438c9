package answer

import (
	"errors"
	"fmt"
)

// ErrBatchShape reports a message that does not fit the shape of the
// batch it is being encoded into: a columnar batch has exactly one
// query and one stride, so mixed-query (or mixed-width) batches are
// rejected at encode time rather than detected downstream.
var ErrBatchShape = errors.New("answer: batch shape mismatch")

// BatchEncoder packs same-query messages into one contiguous
// fixed-stride lane, the payload column of the columnar publish frame
// and the input shape of xorcrypt's batch split. The first Append fixes the
// batch shape (QueryID and bucket count); epochs may vary freely, since
// each slot carries its own epoch in the message header.
type BatchEncoder struct {
	buf   []byte
	qid   uint64
	nbits int
	count int
}

// Append encodes m at the end of the lane.
func (e *BatchEncoder) Append(m *Message) error {
	if m.Answer == nil {
		return fmt.Errorf("%w: nil answer", ErrCorrupt)
	}
	if e.count == 0 {
		e.qid = m.QueryID
		e.nbits = m.Answer.Len()
	} else if m.QueryID != e.qid {
		return fmt.Errorf("%w: query %d in a batch for query %d", ErrBatchShape, m.QueryID, e.qid)
	} else if m.Answer.Len() != e.nbits {
		return fmt.Errorf("%w: %d answer bits in a batch of %d-bit answers", ErrBatchShape, m.Answer.Len(), e.nbits)
	}
	var err error
	e.buf, err = m.AppendBinary(e.buf)
	if err != nil {
		return err
	}
	e.count++
	return nil
}

// Bytes returns the packed lane: Count() slots of Stride() bytes each.
// The slice is valid until the next Append or Reset.
func (e *BatchEncoder) Bytes() []byte { return e.buf }

// Count returns the number of messages in the lane.
func (e *BatchEncoder) Count() int { return e.count }

// Stride returns the wire length of one slot (0 while empty).
func (e *BatchEncoder) Stride() int {
	if e.count == 0 {
		return 0
	}
	return EncodedLen(e.nbits)
}

// Reset empties the encoder, keeping the lane's backing buffer for
// reuse across batches.
func (e *BatchEncoder) Reset() {
	e.buf = e.buf[:0]
	e.qid = 0
	e.nbits = 0
	e.count = 0
}
