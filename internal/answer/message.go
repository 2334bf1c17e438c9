package answer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Message is the plaintext a client produces per epoch (paper Eq. 9):
// the query identifier concatenated with the randomized answer vector.
// Its binary encoding is the unit the XOR-based encryption splits into
// shares, so Marshal/Unmarshal must be deterministic and fixed-length
// for a given bucket count (ciphertext and key shares must be
// indistinguishable, which requires uniform message lengths).
type Message struct {
	QueryID uint64
	Epoch   uint64
	Answer  *BitVector
}

// wire layout: qid(8) | epoch(8) | nbits(4) | packed answer bytes.
const msgHeaderLen = 8 + 8 + 4

// HeaderLen is the fixed wire-header length preceding the packed answer
// bits in every encoded Message. Batch consumers use it to locate the
// answer lane inside a packed slot: in a batch of same-query messages at
// stride EncodedLen(nbits), slot k's answer bytes start at
// k*stride+HeaderLen.
const HeaderLen = msgHeaderLen

// errCorrupt reports a malformed wire message.
var errCorrupt = errors.New("answer: corrupt message")

// EncodedLen returns the wire length of a message carrying nbits answer
// bits.
func EncodedLen(nbits int) int {
	return msgHeaderLen + (nbits+7)/8
}

// MarshalBinary encodes the message into its fixed wire layout.
func (m *Message) MarshalBinary() ([]byte, error) {
	return m.AppendBinary(make([]byte, 0, EncodedLen(m.answerLen())))
}

func (m *Message) answerLen() int {
	if m.Answer == nil {
		return 0
	}
	return m.Answer.Len()
}

// AppendBinary appends the wire encoding to dst and returns the extended
// slice — the allocation-free encode path: a caller passing
// buf[:0] with sufficient capacity reuses one buffer across epochs.
func (m *Message) AppendBinary(dst []byte) ([]byte, error) {
	if m.Answer == nil {
		return nil, fmt.Errorf("%w: nil answer", errCorrupt)
	}
	dst = binary.BigEndian.AppendUint64(dst, m.QueryID)
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Answer.Len()))
	return append(dst, m.Answer.Bytes()...), nil
}

// UnmarshalBinary decodes a wire message produced by MarshalBinary. The
// decoded Answer owns a copy of the payload; use UnmarshalBinaryView on
// the hot path to decode without copying.
func (m *Message) UnmarshalBinary(data []byte) error {
	nbits, err := checkWire(data)
	if err != nil {
		return err
	}
	v, err := fromBytes(data[msgHeaderLen:], nbits)
	if err != nil {
		return err
	}
	m.QueryID = binary.BigEndian.Uint64(data[0:8])
	m.Epoch = binary.BigEndian.Uint64(data[8:16])
	m.Answer = v
	return nil
}

// UnmarshalBinaryView decodes like UnmarshalBinary but without copying:
// vec is repointed at the answer bytes inside data (masking trailing
// bits in place) and installed as m.Answer. The caller owns data and
// must keep it unmodified for as long as it uses m — the zero-copy leg
// of the buffer-ownership contract (DESIGN.md §6).
func (m *Message) UnmarshalBinaryView(data []byte, vec *BitVector) error {
	nbits, err := checkWire(data)
	if err != nil {
		return err
	}
	if err := vec.setView(data[msgHeaderLen:], nbits); err != nil {
		return err
	}
	m.QueryID = binary.BigEndian.Uint64(data[0:8])
	m.Epoch = binary.BigEndian.Uint64(data[8:16])
	m.Answer = vec
	return nil
}

// checkWire validates the fixed layout and returns the answer bit count.
func checkWire(data []byte) (int, error) {
	if len(data) < msgHeaderLen {
		return 0, fmt.Errorf("%w: %d bytes", errCorrupt, len(data))
	}
	nbits := int(binary.BigEndian.Uint32(data[16:20]))
	if nbits <= 0 || nbits > 1<<24 {
		return 0, fmt.Errorf("%w: %d answer bits", errCorrupt, nbits)
	}
	if len(data) != EncodedLen(nbits) {
		return 0, fmt.Errorf("%w: %d bytes for %d bits", errCorrupt, len(data), nbits)
	}
	return nbits, nil
}

// Accumulator folds decoded answer vectors into per-bucket "Yes" counts,
// the Ry of Eq. 5, tracked per bucket alongside the response total N.
type Accumulator struct {
	yes []int
	n   int
}

// NewAccumulator returns an accumulator for nbuckets buckets.
func NewAccumulator(nbuckets int) (*Accumulator, error) {
	if nbuckets <= 0 {
		return nil, fmt.Errorf("%w: %d buckets", errSize, nbuckets)
	}
	return &Accumulator{yes: make([]int, nbuckets)}, nil
}

// Add folds one answer vector in: a one-slot AddBatch. It walks set bits
// only — whole zero bytes are skipped and set bits are found with a
// trailing-zeros scan — so the cost tracks the answer's popcount (one
// for a truthful one-hot answer), not its bucket count.
func (a *Accumulator) Add(v *BitVector) error {
	return a.AddBatch(v.bits, len(v.bits), v.nbits, 1)
}

// AddBatch folds count answer vectors laid out at a fixed stride inside
// lane: slot s occupies lane[s*stride : s*stride+ceil(nbits/8)]. Every
// slot must satisfy the zeroed-trailing-bits invariant (setView and
// fromBytes establish it; the aggregator decodes each slot before
// accumulating), which guarantees every scanned bit index is a valid
// bucket — a violation panics rather than silently miscounting.
func (a *Accumulator) AddBatch(lane []byte, stride, nbits, count int) error {
	if count < 0 {
		return fmt.Errorf("%w: batch of %d answers", errSize, count)
	}
	if nbits != len(a.yes) {
		return fmt.Errorf("%w: vector %d bits, accumulator %d buckets", errSize, nbits, len(a.yes))
	}
	if count == 0 {
		return nil
	}
	nbytes := (nbits + 7) / 8
	if stride < nbytes {
		return fmt.Errorf("%w: stride %d below %d answer bytes", errSize, stride, nbytes)
	}
	if need := (count-1)*stride + nbytes; len(lane) < need {
		return fmt.Errorf("%w: %d-byte lane for %d slots of stride %d", errSize, len(lane), count, stride)
	}
	mask := byte(0xff)
	if rem := nbits % 8; rem != 0 {
		mask = byte(1)<<rem - 1
	}
	yes := a.yes
	for s := 0; s < count; s++ {
		slot := lane[s*stride : s*stride+nbytes]
		if slot[nbytes-1]&^mask != 0 {
			panic("answer: BitVector trailing bits past Len() are set")
		}
		for bi, b := range slot {
			for ; b != 0; b &= b - 1 {
				yes[bi*8+bits.TrailingZeros8(b)]++
			}
		}
	}
	a.n += count
	return nil
}

// Yes returns the observed "Yes" count for bucket i.
func (a *Accumulator) Yes(i int) int { return a.yes[i] }

// N returns the number of answers folded in.
func (a *Accumulator) N() int { return a.n }

// YesCounts returns a copy of all per-bucket counts.
func (a *Accumulator) YesCounts() []int {
	out := make([]int, len(a.yes))
	copy(out, a.yes)
	return out
}

// Merge folds another accumulator's counts in: the answers of both.
func (a *Accumulator) Merge(b *Accumulator) error {
	if len(b.yes) != len(a.yes) {
		return fmt.Errorf("%w: %d buckets into %d", errSize, len(b.yes), len(a.yes))
	}
	for i, y := range b.yes {
		a.yes[i] += y
	}
	a.n += b.n
	return nil
}

// Reset empties the accumulator, keeping its buckets.
func (a *Accumulator) Reset() {
	clear(a.yes)
	a.n = 0
}

// AddCounts folds raw per-bucket counts and a response total in — the
// restore half of YesCounts/N, used when a checkpointed window is
// rebuilt after a crash. Counts must be non-negative and no bucket may
// exceed the total (each answer contributes at most one "Yes" per
// bucket).
func (a *Accumulator) AddCounts(yes []int, n int) error {
	if len(yes) != len(a.yes) {
		return fmt.Errorf("%w: %d counts for %d buckets", errSize, len(yes), len(a.yes))
	}
	if n < 0 {
		return fmt.Errorf("%w: %d responses", errSize, n)
	}
	for i, y := range yes {
		if y < 0 || y > n {
			return fmt.Errorf("%w: bucket %d count %d of %d responses", errSize, i, y, n)
		}
		a.yes[i] += y
	}
	a.n += n
	return nil
}
