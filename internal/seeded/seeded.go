// Package seeded is the one constructor for seeded pseudo-random
// streams. Every per-client and per-subscription stream in the product
// (randomized-response coins, message identifiers, the estimator's
// simulation) comes from New, so what a stream costs is decided here:
// a math/rand/v2 PCG holds 16 bytes of state, where a math/rand source
// holds 4.9 KB, and a fleet keeps thousands of these streams alive.
//
// New returns the *math/rand.Rand every caller already takes, so
// callers that build their own streams keep compiling unchanged.
package seeded

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// New returns a deterministic stream for seed: equal seeds give equal
// streams, and distinct seeds give unrelated ones even when they are
// adjacent integers.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source adapts a PCG to math/rand's Source64.
type source struct{ pcg randv2.PCG }

// Seed spreads the 64-bit seed over both PCG state words with the
// SplitMix64 finalizer, so nearby seeds start far apart.
func (s *source) Seed(seed int64) {
	hi := mix(uint64(seed))
	s.pcg.Seed(hi, mix(hi))
}

func (s *source) Uint64() uint64 { return s.pcg.Uint64() }

func (s *source) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
