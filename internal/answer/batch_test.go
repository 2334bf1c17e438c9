package answer

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// randVec returns a random nbits-wide vector (trailing bits zeroed by
// construction through fromBytes).
func randVec(t *testing.T, rng *rand.Rand, nbits int) *BitVector {
	t.Helper()
	raw := make([]byte, (nbits+7)/8)
	rng.Read(raw)
	v, err := fromBytes(raw, nbits)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAddBatchMatchesSequentialAdd: folding a packed lane in one AddBatch
// call must produce exactly the counts of per-vector Add calls, for
// byte-aligned and non-byte-aligned widths and strides with slack.
func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nbits := range []int{1, 7, 8, 11, 64, 65} {
		for _, pad := range []int{0, 3, HeaderLen} {
			nbytes := (nbits + 7) / 8
			stride := nbytes + pad
			const count = 9
			lane := make([]byte, count*stride)
			seq, err := NewAccumulator(nbits)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < count; s++ {
				v := randVec(t, rng, nbits)
				copy(lane[s*stride:], v.Bytes())
				if err := seq.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			bat, err := NewAccumulator(nbits)
			if err != nil {
				t.Fatal(err)
			}
			if err := bat.AddBatch(lane, stride, nbits, count); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.YesCounts(), bat.YesCounts()) || seq.N() != bat.N() {
				t.Fatalf("nbits=%d stride=%d: batch %v/%d vs sequential %v/%d",
					nbits, stride, bat.YesCounts(), bat.N(), seq.YesCounts(), seq.N())
			}
		}
	}
}

// TestAddBatchEdges: empty batches are no-ops, one-slot batches equal one
// Add, and malformed lane geometry is rejected without mutation.
func TestAddBatchEdges(t *testing.T) {
	a, err := NewAccumulator(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(nil, 2, 11, 0); err != nil || a.N() != 0 {
		t.Fatalf("empty batch: n=%d err=%v", a.N(), err)
	}
	v, err := OneHot(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddBatch(v.Bytes(), 2, 11, 1); err != nil {
		t.Fatal(err)
	}
	if a.N() != 1 || a.Yes(3) != 1 {
		t.Fatalf("single-slot batch: n=%d yes(3)=%d", a.N(), a.Yes(3))
	}
	for _, tc := range []struct {
		name          string
		lane          []byte
		stride, nbits int
		count         int
	}{
		{"negative count", make([]byte, 4), 2, 11, -1},
		{"nbits mismatch", make([]byte, 4), 2, 12, 2},
		{"stride below width", make([]byte, 4), 1, 11, 2},
		{"short lane", make([]byte, 3), 2, 11, 2},
	} {
		if err := a.AddBatch(tc.lane, tc.stride, tc.nbits, tc.count); !errors.Is(err, errSize) {
			t.Errorf("%s: err=%v", tc.name, err)
		}
	}
	if a.N() != 1 {
		t.Fatalf("rejected batches mutated the accumulator: n=%d", a.N())
	}
}

// TestAddBatchPanicsOnTrailingGarbage: non-lane-aligned widths leave
// slack bits in the final packed byte; a set bit there means the caller
// skipped decoding and must panic rather than miscount a bucket.
func TestAddBatchPanicsOnTrailingGarbage(t *testing.T) {
	a, err := NewAccumulator(11)
	if err != nil {
		t.Fatal(err)
	}
	lane := []byte{0x01, 0x08} // bit 11 set: past Len()
	defer func() {
		if recover() == nil {
			t.Fatal("AddBatch accepted trailing garbage bits")
		}
	}()
	_ = a.AddBatch(lane, 2, 11, 1)
}
