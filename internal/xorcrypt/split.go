package xorcrypt

import (
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Errors reported by the splitter and joiner.
var (
	ErrShareCount = errors.New("xorcrypt: invalid share count")
	ErrShapes     = errors.New("xorcrypt: mismatched share shapes")
)

// MIDSize is the byte length of a message identifier.
const MIDSize = 16

// MID is the unique message identifier joining a message's shares at the
// aggregator (paper Eq. 12). It is a comparable value type so the
// aggregator can key its join map by MID directly, without a per-share
// string conversion.
type MID [MIDSize]byte

// String renders the identifier in hex.
func (m MID) String() string { return hex.EncodeToString(m[:]) }

// Share is one of the n pieces a message is split into: either the
// encrypted message ME or a key share MKi — by construction the two are
// computationally indistinguishable.
type Share struct {
	MID     MID
	Payload []byte
}

// midBlock is how many MIDs are drawn per generator refill: one bulk
// read every midBlock messages instead of one syscall-backed read per
// message.
const midBlock = 64

// Splitter splits messages for a fixed number of proxies.
//
// A Splitter is not safe for concurrent use: it owns a PRNG stream and
// a MID block buffer. Each client owns its own Splitter.
type Splitter struct {
	n      int
	prng   PRNG
	midSrc io.Reader
	// midPRNG generates MIDs when no midSrc is supplied. It is a
	// separate, independently seeded stream so the public MIDs never
	// reveal bytes of the key-share keystream.
	midPRNG PRNG
	midBuf  [midBlock * MIDSize]byte
	midOff  int // next unread byte; len(midBuf) means exhausted
}

// NewSplitter returns a splitter targeting n ≥ 2 proxies. A nil prng
// defaults to a freshly seeded AES-CTR generator. MIDs are drawn in
// blocks of midBlock: from midSrc when non-nil (deterministic MIDs for
// tests), otherwise from a dedicated freshly seeded AES-CTR generator —
// never from the key-share stream, and never one OS read per message.
func NewSplitter(n int, prng PRNG, midSrc io.Reader) (*Splitter, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2 proxies, got %d", ErrShareCount, n)
	}
	if prng == nil {
		p, err := NewAESPRNG(nil)
		if err != nil {
			return nil, err
		}
		prng = p
	}
	s := &Splitter{n: n, prng: prng, midSrc: midSrc}
	s.midOff = len(s.midBuf)
	if midSrc == nil {
		p, err := NewAESPRNG(nil)
		if err != nil {
			return nil, err
		}
		s.midPRNG = p
	}
	return s, nil
}

// nextMID hands out the next identifier from the block buffer, refilling
// it in bulk when exhausted.
func (s *Splitter) nextMID() (MID, error) {
	if s.midOff == len(s.midBuf) {
		if s.midSrc != nil {
			if _, err := io.ReadFull(s.midSrc, s.midBuf[:]); err != nil {
				return MID{}, fmt.Errorf("xorcrypt: mid generation: %w", err)
			}
		} else if err := s.midPRNG.Fill(s.midBuf[:]); err != nil {
			return MID{}, fmt.Errorf("xorcrypt: mid generation: %w", err)
		}
		s.midOff = 0
	}
	var mid MID
	copy(mid[:], s.midBuf[s.midOff:s.midOff+MIDSize])
	s.midOff += MIDSize
	return mid, nil
}

// SkipMID draws and discards one identifier, advancing the MID stream
// without splitting a message. Callers that suppress a message after
// the participation decision (overload shedding) and callers replaying
// history (crash-recovery fast-forward) use it to keep a deterministic
// midSrc at the same position an unsuppressed, uninterrupted run would
// reach — the stream position stays a function of participation alone.
func (s *Splitter) SkipMID() error {
	_, err := s.nextMID()
	return err
}

// SplitScratch owns the share slice and payload buffers SplitInto
// reuses across messages. The zero value is ready to use; buffers grow
// on first use and are reused afterwards, so a steady-state split
// performs no allocations.
type SplitScratch struct {
	shares []Share
}

// grow shapes the scratch for n shares of size bytes each, reusing
// buffer capacity from earlier messages.
func (sc *SplitScratch) grow(n, size int) []Share {
	if cap(sc.shares) < n {
		sc.shares = make([]Share, n)
	}
	sc.shares = sc.shares[:n]
	for i := range sc.shares {
		p := sc.shares[i].Payload
		if cap(p) < size {
			p = make([]byte, size)
		}
		sc.shares[i].Payload = p[:size]
	}
	return sc.shares
}

// Split produces the n shares of message (Eq. 10–12): n−1 pseudo-random
// key shares and the ciphertext ME = M ⊕ MK2 ⊕ … ⊕ MKn, all tagged with
// a fresh MID. Share i is destined for proxy i. The input is not
// modified. Every call allocates fresh payload buffers the caller owns;
// the hot path uses SplitInto instead.
func (s *Splitter) Split(message []byte) ([]Share, error) {
	var scratch SplitScratch
	return s.SplitInto(message, &scratch)
}

// SplitInto is Split reusing caller-owned scratch: the returned shares
// and their payloads alias scratch's buffers and stay valid only until
// the next SplitInto with the same scratch. Every sink a share is handed
// to must copy or fully consume the payload before returning (the
// buffer-ownership contract of DESIGN.md §6); the splitter itself never
// aliases bytes between the message and the shares or between shares.
func (s *Splitter) SplitInto(message []byte, scratch *SplitScratch) ([]Share, error) {
	if len(message) == 0 {
		return nil, fmt.Errorf("%w: empty message", ErrShapes)
	}
	mid, err := s.nextMID()
	if err != nil {
		return nil, err
	}
	shares := scratch.grow(s.n, len(message))
	cipher := shares[0].Payload
	copy(cipher, message)
	for i := 1; i < s.n; i++ {
		key := shares[i].Payload
		if err := s.prng.Fill(key); err != nil {
			return nil, err
		}
		xorInto(cipher, key)
		shares[i].MID = mid
	}
	shares[0].MID = mid
	return shares, nil
}

// Join recovers the original message by XOR-ing all share payloads. The
// aggregator cannot tell which share is the ciphertext and does not need
// to (paper §3.2.4). All shares must carry the same MID and length.
func Join(shares []Share) ([]byte, error) {
	return JoinInto(nil, shares)
}

// JoinInto is Join writing the plaintext into dst's backing array
// (grown as needed), so a caller looping over messages reuses one
// buffer. It returns the plaintext slice, which aliases dst's storage.
func JoinInto(dst []byte, shares []Share) ([]byte, error) {
	if len(shares) < 2 {
		return nil, fmt.Errorf("%w: got %d shares", ErrShareCount, len(shares))
	}
	mid := shares[0].MID
	for _, sh := range shares[1:] {
		if sh.MID != mid {
			return nil, fmt.Errorf("%w: MID %s vs %s", ErrShapes, sh.MID, mid)
		}
	}
	pp := payloadPool.Get().(*[][]byte)
	payloads := (*pp)[:0]
	for _, sh := range shares {
		payloads = append(payloads, sh.Payload)
	}
	out, err := JoinColumnsInto(dst, payloads)
	for i := range payloads {
		payloads[i] = nil
	}
	*pp = payloads
	payloadPool.Put(pp)
	return out, err
}

// JoinColumnsInto XOR-joins share lanes into dst's backing array and
// returns the plaintext: lanes[i] holds source i's payload region, every
// region the same nonzero length. A region is one message's payload (a
// join group, as the aggregator's joiner produces it) or a whole run of
// same-size messages packed back to back; one XOR pass per lane covers
// every message in it.
func JoinColumnsInto(dst []byte, lanes [][]byte) ([]byte, error) {
	if len(lanes) < 2 {
		return nil, fmt.Errorf("%w: got %d share lanes", ErrShareCount, len(lanes))
	}
	span := len(lanes[0])
	if span == 0 {
		return nil, fmt.Errorf("%w: empty share lane", ErrShapes)
	}
	dst = append(dst[:0], lanes[0]...)
	for _, l := range lanes[1:] {
		if len(l) != span {
			return nil, fmt.Errorf("%w: lane %d vs %d bytes", ErrShapes, len(l), span)
		}
		xorInto(dst, l)
	}
	joinBatchCalls.Inc()
	joinBatchBytes.Add(int64(span))
	return dst, nil
}

// payloadPool backs JoinInto's temporary payload-header slices so the
// share-slice form of join stays allocation-free too.
var payloadPool = sync.Pool{New: func() any {
	p := make([][]byte, 0, 8)
	return &p
}}

// xorInto XORs src into dst in place; both must have equal length. The
// word-at-a-time kernel is crypto/subtle's, which the runtime vectorizes
// — this is the hot inner loop of Table 2.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
