// Package xorcrypt implements PrivApprox's XOR-based encryption
// (paper §3.2.3): a client splits each message M into one encrypted
// share ME = M ⊕ MK and n−1 pseudo-random key shares MK2…MKn with
// MK = MK2 ⊕ … ⊕ MKn, tagging all n shares with a random message
// identifier MID. Any n−1 shares are information-theoretically
// independent of M; the aggregator recovers M by XOR-ing all n shares,
// never needing to know which one was the ciphertext. The key shares
// come from one keystream, AES-128-CTR (newAESPRNG).
package xorcrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// errPRNG reports keystream generator failures.
var errPRNG = errors.New("xorcrypt: prng failure")

// PRNG produces cryptographically strong pseudo-random key shares. The
// paper requires "a cryptographic pseudo-random number generator seeded
// with a cryptographically strong random number".
type PRNG interface {
	// Fill overwrites dst with pseudo-random bytes.
	Fill(dst []byte) error
}

// aesPRNG is an AES-128-CTR keystream: the production generator.
type aesPRNG struct {
	stream cipher.Stream
}

// newAESPRNG seeds an AES-CTR generator. A nil seed draws 32 bytes from
// crypto/rand; otherwise the seed must be at least 16 bytes (first 16
// become the key, next up to 16 the IV) — deterministic seeding is only
// meant for tests and benchmarks.
func newAESPRNG(seed []byte) (PRNG, error) {
	if seed == nil {
		seed = make([]byte, 32)
		if _, err := io.ReadFull(rand.Reader, seed); err != nil {
			return nil, fmt.Errorf("%w: %v", errPRNG, err)
		}
	}
	if len(seed) < aes.BlockSize {
		return nil, fmt.Errorf("%w: seed must be ≥ %d bytes", errPRNG, aes.BlockSize)
	}
	key := seed[:16]
	iv := make([]byte, aes.BlockSize)
	copy(iv, seed[16:])
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errPRNG, err)
	}
	return &aesPRNG{stream: cipher.NewCTR(block, iv)}, nil
}

// Fill writes keystream bytes into dst (XOR of zeros with the stream).
func (p *aesPRNG) Fill(dst []byte) error {
	clear(dst)
	p.stream.XORKeyStream(dst, dst)
	return nil
}
