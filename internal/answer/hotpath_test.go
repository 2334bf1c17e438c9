package answer

import (
	"bytes"
	"testing"
)

// FuzzMessageRoundTrip checks that the append-encode and both decode
// paths (copying and zero-copy view) agree for arbitrary answers, and
// that corrupt wire bytes are rejected identically by both.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(0), []byte{0x08}, 4)
	f.Add(uint64(9), uint64(42), []byte{0xFF, 0x01}, 9)
	f.Add(uint64(0), uint64(0), []byte{}, 0)
	f.Fuzz(func(t *testing.T, qid, epoch uint64, raw []byte, nbits int) {
		if nbits <= 0 || nbits > 1<<12 || (nbits+7)/8 != len(raw) {
			// Treat raw as wire bytes instead: both decoders must agree
			// on rejection without panicking.
			var a, b Message
			var vec BitVector
			errA := a.UnmarshalBinary(append([]byte(nil), raw...))
			errB := b.UnmarshalBinaryView(append([]byte(nil), raw...), &vec)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("decode paths disagree: copy=%v view=%v", errA, errB)
			}
			return
		}
		vec0, err := fromBytes(raw, nbits)
		if err != nil {
			t.Fatal(err)
		}
		m := Message{QueryID: qid, Epoch: epoch, Answer: vec0}
		wire, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, legacy) {
			t.Fatal("AppendBinary and MarshalBinary disagree")
		}

		var viaCopy Message
		if err := viaCopy.UnmarshalBinary(wire); err != nil {
			t.Fatal(err)
		}
		var viaView Message
		var view BitVector
		wire2 := append([]byte(nil), wire...)
		if err := viaView.UnmarshalBinaryView(wire2, &view); err != nil {
			t.Fatal(err)
		}
		if viaCopy.QueryID != qid || viaCopy.Epoch != epoch || viaView.QueryID != qid || viaView.Epoch != epoch {
			t.Fatal("header fields did not round-trip")
		}
		if !viaCopy.Answer.equal(viaView.Answer) {
			t.Fatalf("copy decode %s != view decode %s", viaCopy.Answer, viaView.Answer)
		}
		if !viaCopy.Answer.equal(vec0) {
			t.Fatalf("round-trip changed answer: %s -> %s", vec0, viaCopy.Answer)
		}
		if viaCopy.Answer.PopCount() != viaView.Answer.PopCount() {
			t.Fatal("popcounts disagree between decode paths")
		}
	})
}

// TestUnmarshalBinaryViewZeroCopy pins that the view decode aliases the
// wire bytes rather than copying them.
func TestUnmarshalBinaryViewZeroCopy(t *testing.T) {
	vec, _ := OneHot(11, 3)
	wire, err := (&Message{QueryID: 1, Epoch: 2, Answer: vec}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	var view BitVector
	if err := m.UnmarshalBinaryView(wire, &view); err != nil {
		t.Fatal(err)
	}
	if &m.Answer.Bytes()[0] != &wire[msgHeaderLen] {
		t.Fatal("view decode copied the payload")
	}
	// Mutating the wire shows through the view (aliasing, by contract).
	wire[msgHeaderLen] ^= 0x01
	if got, _ := m.Answer.Get(0); !got {
		t.Fatal("view does not alias the wire bytes")
	}
}

// TestViewMasksTrailingGarbage: a decrypted-garbage payload with bits
// set past nbits must come out of the view decode with the invariant
// restored, so PopCount/Equal stay exact.
func TestViewMasksTrailingGarbage(t *testing.T) {
	vec, _ := OneHot(9, 0)
	wire, err := (&Message{QueryID: 1, Epoch: 0, Answer: vec}).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)-1] |= 0xF0 // garbage past bit 9
	var m Message
	var view BitVector
	if err := m.UnmarshalBinaryView(wire, &view); err != nil {
		t.Fatal(err)
	}
	if n := m.Answer.PopCount(); n != 1 {
		t.Fatalf("PopCount = %d after masking, want 1", n)
	}
}

// TestAccumulatorWordLevelMatchesBitLevel cross-checks the set-bit-walk
// accumulate against a straightforward per-bit reference.
func TestAccumulatorWordLevelMatchesBitLevel(t *testing.T) {
	const nbits = 77
	patterns := [][]byte{}
	for seed := byte(1); seed <= 20; seed++ {
		raw := make([]byte, (nbits+7)/8)
		x := seed
		for i := range raw {
			x = x*31 + 17
			raw[i] = x
		}
		patterns = append(patterns, raw)
	}
	fast, _ := NewAccumulator(nbits)
	ref := make([]int, nbits)
	for _, raw := range patterns {
		v, err := fromBytes(raw, nbits)
		if err != nil {
			t.Fatal(err)
		}
		if err := fast.Add(v); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nbits; i++ {
			if set, _ := v.Get(i); set {
				ref[i]++
			}
		}
	}
	for i := 0; i < nbits; i++ {
		if fast.Yes(i) != ref[i] {
			t.Fatalf("bucket %d: fast %d, ref %d", i, fast.Yes(i), ref[i])
		}
	}
	if fast.N() != len(patterns) {
		t.Fatalf("N = %d after %d adds", fast.N(), len(patterns))
	}
}

// TestAccumulatorAddZeroAllocs pins the allocation contract of the
// accumulate hot path.
func TestAccumulatorAddZeroAllocs(t *testing.T) {
	vec, _ := OneHot(11, 4)
	acc, _ := NewAccumulator(11)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := acc.Add(vec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Accumulator.Add: %v allocs/op, want 0", allocs)
	}
}

// TestPopCountEqualWordLevel exercises the byte/word kernels across
// sizes that straddle the 8-byte boundary, plus the Reset helper.
func TestPopCountEqualWordLevel(t *testing.T) {
	for _, nbits := range []int{1, 7, 8, 9, 63, 64, 65, 128, 131} {
		v, err := NewBitVector(nbits)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < nbits; i += 3 {
			if err := v.Set(i, true); err != nil {
				t.Fatal(err)
			}
			want++
		}
		if got := v.PopCount(); got != want {
			t.Errorf("nbits=%d: PopCount = %d, want %d", nbits, got, want)
		}
		c := v.clone()
		if !v.equal(c) {
			t.Errorf("nbits=%d: clone not Equal", nbits)
		}
		if nbits > 1 {
			c.Set(1, true)
			v.Set(1, false)
			if v.equal(c) {
				t.Errorf("nbits=%d: Equal missed a differing bit", nbits)
			}
		}
		v.Reset()
		if v.PopCount() != 0 {
			t.Errorf("nbits=%d: PopCount after Reset = %d", nbits, v.PopCount())
		}
		if v.Len() != nbits {
			t.Errorf("nbits=%d: Reset changed Len to %d", nbits, v.Len())
		}
	}
}
