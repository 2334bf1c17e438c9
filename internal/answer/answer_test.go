package answer

import (
	"testing"
	"testing/quick"
)

func TestBitVectorSetGet(t *testing.T) {
	v, err := NewBitVector(11)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 11 {
		t.Fatalf("Len = %d", v.Len())
	}
	if err := v.Set(2, true); err != nil {
		t.Fatal(err)
	}
	if err := v.Set(10, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		got, err := v.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		want := i == 2 || i == 10
		if got != want {
			t.Errorf("bit %d = %v, want %v", i, got, want)
		}
	}
	if v.PopCount() != 2 {
		t.Errorf("PopCount = %d", v.PopCount())
	}
	if err := v.Set(2, false); err != nil {
		t.Fatal(err)
	}
	if v.PopCount() != 1 {
		t.Errorf("PopCount after clear = %d", v.PopCount())
	}
}

func TestBitVectorBounds(t *testing.T) {
	if _, err := NewBitVector(0); err == nil {
		t.Error("expected error for 0 bits")
	}
	v, _ := NewBitVector(8)
	if err := v.Set(8, true); err == nil {
		t.Error("expected error for out-of-range set")
	}
	if _, err := v.Get(-1); err == nil {
		t.Error("expected error for negative get")
	}
}

func TestOneHot(t *testing.T) {
	v, err := OneHot(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.PopCount() != 1 {
		t.Fatalf("PopCount = %d", v.PopCount())
	}
	if got, _ := v.Get(3); !got {
		t.Error("bit 3 not set")
	}
	if _, err := OneHot(4, 9); err == nil {
		t.Error("expected error for index past length")
	}
}

func TestFromBitsAndString(t *testing.T) {
	v, err := FromBits([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.String(); got != "101" {
		t.Errorf("String = %q", got)
	}
	if _, err := FromBits(nil); err == nil {
		t.Error("expected error for empty bits")
	}
}

func TestFromBytesMasksTrailingBits(t *testing.T) {
	raw := []byte{0xFF, 0xFF}
	v, err := FromBytes(raw, 11)
	if err != nil {
		t.Fatal(err)
	}
	if v.PopCount() != 11 {
		t.Errorf("PopCount = %d, want 11", v.PopCount())
	}
	full, _ := FromBits([]bool{true, true, true, true, true, true, true, true, true, true, true})
	if !v.Equal(full) {
		t.Error("masked vector should equal all-ones of 11 bits")
	}
	if _, err := FromBytes(raw, 20); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	v, _ := NewBitVector(8)
	v.Set(1, true)
	c := v.Clone()
	c.Set(2, true)
	if got, _ := v.Get(2); got {
		t.Error("Clone shares backing storage")
	}
	if !v.Equal(v.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	a, _ := NewBitVector(8)
	b, _ := NewBitVector(9)
	if a.Equal(b) {
		t.Error("different lengths should not be equal")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	f := func(qid, epoch uint64, bits []bool) bool {
		if len(bits) == 0 {
			bits = []bool{true}
		}
		if len(bits) > 4096 {
			bits = bits[:4096]
		}
		v, err := FromBits(bits)
		if err != nil {
			return false
		}
		m := Message{QueryID: qid, Epoch: epoch, Answer: v}
		raw, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		if len(raw) != EncodedLen(len(bits)) {
			return false
		}
		var got Message
		if err := got.UnmarshalBinary(raw); err != nil {
			return false
		}
		return got.QueryID == qid && got.Epoch == epoch && got.Answer.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessageUnmarshalRejectsCorrupt(t *testing.T) {
	var m Message
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if err := m.UnmarshalBinary(make([]byte, 19)); err == nil {
		t.Error("expected error for short input")
	}
	// Valid header but truncated payload.
	v, _ := NewBitVector(64)
	good, _ := (&Message{QueryID: 1, Epoch: 2, Answer: v}).MarshalBinary()
	if err := m.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Error("expected error for truncated payload")
	}
	// Absurd bit count.
	bad := append([]byte(nil), good...)
	bad[16], bad[17], bad[18], bad[19] = 0xFF, 0xFF, 0xFF, 0xFF
	if err := m.UnmarshalBinary(bad); err == nil {
		t.Error("expected error for oversized bit count")
	}
}

func TestMarshalNilAnswer(t *testing.T) {
	m := Message{QueryID: 1}
	if _, err := m.MarshalBinary(); err == nil {
		t.Error("expected error for nil answer")
	}
}

func TestEncodedLenUniformPerBucketCount(t *testing.T) {
	// Indistinguishability requires all messages for a given query to
	// have identical length regardless of content.
	a, _ := OneHot(11, 0)
	b, _ := OneHot(11, 10)
	ma, _ := (&Message{QueryID: 9, Epoch: 1, Answer: a}).MarshalBinary()
	mb, _ := (&Message{QueryID: 9, Epoch: 2, Answer: b}).MarshalBinary()
	if len(ma) != len(mb) {
		t.Errorf("lengths differ: %d vs %d", len(ma), len(mb))
	}
}

func TestAccumulator(t *testing.T) {
	acc, err := NewAccumulator(3)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := FromBits([]bool{true, false, true})
	v2, _ := FromBits([]bool{true, true, false})
	if err := acc.Add(v1); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(v2); err != nil {
		t.Fatal(err)
	}
	if acc.N() != 2 || acc.Buckets() != 3 {
		t.Fatalf("N=%d buckets=%d", acc.N(), acc.Buckets())
	}
	want := []int{2, 1, 1}
	for i, w := range want {
		if acc.Yes(i) != w {
			t.Errorf("Yes(%d) = %d, want %d", i, acc.Yes(i), w)
		}
	}
}

func TestAccumulatorErrors(t *testing.T) {
	if _, err := NewAccumulator(0); err == nil {
		t.Error("expected error for 0 buckets")
	}
	acc, _ := NewAccumulator(2)
	v3, _ := NewBitVector(3)
	if err := acc.Add(v3); err == nil {
		t.Error("expected size mismatch on Add")
	}
	if acc.N() != 0 {
		t.Errorf("a rejected Add counted: N=%d", acc.N())
	}
}
