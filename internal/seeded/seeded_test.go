package seeded

import (
	"testing"
	"unsafe"
)

func TestNewIsDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x != %#x for equal seeds", i, x, y)
		}
	}
}

// TestAdjacentSeedsDiverge: seeds one apart (the fleet derives client
// streams from seed + i·k) must not share a prefix.
func TestAdjacentSeedsDiverge(t *testing.T) {
	seen := make(map[uint64]int64)
	for seed := int64(-3); seed <= 3; seed++ {
		r := New(seed)
		for i := 0; i < 4; i++ {
			w := r.Uint64()
			if prev, ok := seen[w]; ok {
				t.Fatalf("seeds %d and %d drew the same word %#x", prev, seed, w)
			}
			seen[w] = seed
		}
	}
}

// TestReseedRestarts: Seed rewinds the stream to New's start, and every
// math/rand entry point reads the same PCG words.
func TestReseedRestarts(t *testing.T) {
	r := New(7)
	first := r.Uint64()
	r.Int63()
	r.Float64()
	r.Seed(7)
	if got := r.Uint64(); got != first {
		t.Fatalf("after Seed(7): %#x, want %#x", got, first)
	}
	ref := New(7)
	ref.Uint64()
	if got, want := r.Int63(), int64(ref.Uint64()>>1); got != want {
		t.Fatalf("Int63 = %#x, want the top 63 bits of the next word, %#x", got, want)
	}
}

func TestStateIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(source{}); n != 16 {
		t.Fatalf("source state is %d bytes, want 16", n)
	}
}
