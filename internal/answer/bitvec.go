// Package answer implements the client answer representation of the
// paper's query model (§2.2, §3.1): an n-bit vector with one bit per
// histogram bucket ("1" when the client's value falls in that bucket),
// and the wire message M = ⟨QID, RandomizedAnswer⟩ of Eq. 9 that the
// XOR-based encryption operates on.
package answer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// errSize reports a size mismatch or an out-of-range bit index.
var errSize = errors.New("answer: size mismatch")

// BitVector is a packed vector of n answer bits, bit i corresponding to
// histogram bucket i.
//
// Invariant: bits past nbits in the final byte are always zero. Every
// constructor and mutator maintains it (fromBytes and setView mask, Set
// bounds-checks), and PopCount/Equal rely on it to run word-at-a-time
// over whole bytes.
type BitVector struct {
	bits  []byte
	nbits int
}

// NewBitVector returns an all-zero vector of n bits.
func NewBitVector(n int) (*BitVector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d bits", errSize, n)
	}
	return &BitVector{bits: make([]byte, (n+7)/8), nbits: n}, nil
}

// Len returns the number of answer bits.
func (v *BitVector) Len() int { return v.nbits }

// Set assigns bit i.
func (v *BitVector) Set(i int, b bool) error {
	if i < 0 || i >= v.nbits {
		return fmt.Errorf("%w: bit %d of %d", errSize, i, v.nbits)
	}
	if b {
		v.bits[i/8] |= 1 << (i % 8)
	} else {
		v.bits[i/8] &^= 1 << (i % 8)
	}
	return nil
}

// Get reads bit i.
func (v *BitVector) Get(i int) (bool, error) {
	if i < 0 || i >= v.nbits {
		return false, fmt.Errorf("%w: bit %d of %d", errSize, i, v.nbits)
	}
	return v.bits[i/8]&(1<<(i%8)) != 0, nil
}

// PopCount returns the number of set bits, eight bytes at a time. It
// relies on the zeroed-trailing-bits invariant: whole bytes can be
// counted because no bit past Len() is ever set.
func (v *BitVector) PopCount() int {
	v.assertTrailingZeros()
	n := 0
	b := v.bits
	for len(b) >= 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	for _, x := range b {
		n += bits.OnesCount8(x)
	}
	return n
}

// assertTrailingZeros checks the package invariant that bits past Len()
// are zero; a violation means a constructor or caller broke the masking
// contract, so it panics rather than silently miscounting.
func (v *BitVector) assertTrailingZeros() {
	if rem := v.nbits % 8; rem != 0 && len(v.bits) > 0 {
		if v.bits[len(v.bits)-1]&^(byte(1)<<rem-1) != 0 {
			panic("answer: BitVector trailing bits past Len() are set")
		}
	}
}

// Bytes exposes the packed backing bytes; the caller must not mutate bits
// past Len(). Randomized response perturbs the vector through this view.
func (v *BitVector) Bytes() []byte { return v.bits }

// clone returns a deep copy.
func (v *BitVector) clone() *BitVector {
	bits := make([]byte, len(v.bits))
	copy(bits, v.bits)
	return &BitVector{bits: bits, nbits: v.nbits}
}

// equal reports whether both vectors have identical length and bits.
// The byte-wise comparison is exact because of the zeroed-trailing-bits
// invariant: equal answer bits imply equal packed bytes.
func (v *BitVector) equal(o *BitVector) bool {
	return v.nbits == o.nbits && bytes.Equal(v.bits, o.bits)
}

// Reset clears every bit, keeping the backing buffer.
func (v *BitVector) Reset() {
	clear(v.bits)
}

// FromBits builds a vector from a bool slice.
func FromBits(bits []bool) (*BitVector, error) {
	v, err := NewBitVector(len(bits))
	if err != nil {
		return nil, err
	}
	for i, b := range bits {
		if b {
			v.bits[i/8] |= 1 << (i % 8)
		}
	}
	return v, nil
}

// fromBytes wraps packed bytes as an n-bit vector, copying the input and
// zeroing any trailing bits beyond n so Equal and PopCount stay exact.
func fromBytes(raw []byte, nbits int) (*BitVector, error) {
	if nbits <= 0 || (nbits+7)/8 != len(raw) {
		return nil, fmt.Errorf("%w: %d bytes for %d bits", errSize, len(raw), nbits)
	}
	bits := make([]byte, len(raw))
	copy(bits, raw)
	if rem := nbits % 8; rem != 0 {
		bits[len(bits)-1] &= byte(1)<<rem - 1
	}
	return &BitVector{bits: bits, nbits: nbits}, nil
}

// setView repoints v at raw without copying: the zero-allocation decode
// path. Trailing bits beyond nbits are masked off in place (raw must be
// caller-owned and mutable), restoring the invariant for garbage
// plaintexts. The view stays valid only while raw's bytes do; a caller
// reusing raw as scratch must finish with v before overwriting it.
func (v *BitVector) setView(raw []byte, nbits int) error {
	if nbits <= 0 || (nbits+7)/8 != len(raw) {
		return fmt.Errorf("%w: %d bytes for %d bits", errSize, len(raw), nbits)
	}
	if rem := nbits % 8; rem != 0 {
		raw[len(raw)-1] &= byte(1)<<rem - 1
	}
	v.bits = raw
	v.nbits = nbits
	return nil
}

// OneHot returns a vector of n bits with only bit i set — the shape of a
// truthful numeric answer, which lands in exactly one bucket.
func OneHot(n, i int) (*BitVector, error) {
	v, err := NewBitVector(n)
	if err != nil {
		return nil, err
	}
	if err := v.Set(i, true); err != nil {
		return nil, err
	}
	return v, nil
}

// String renders the vector MSB-last as a 0/1 string, bucket 0 first.
func (v *BitVector) String() string {
	out := make([]byte, v.nbits)
	for i := 0; i < v.nbits; i++ {
		if v.bits[i/8]&(1<<(i%8)) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
