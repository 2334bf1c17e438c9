package codec

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

var errTest = errors.New("test: bad record")

func record(fields ...[]byte) []byte { return bytes.Join(fields, nil) }

func TestFirstFailureSticks(t *testing.T) {
	d := NewReader([]byte{1, 2}, errTest, "record")
	if got := d.U32(); got != 0 {
		t.Fatalf("short U32 = %d, want 0", got)
	}
	first := d.Err()
	if !errors.Is(first, errTest) || !strings.Contains(first.Error(), "short record") {
		t.Fatalf("first failure = %v, want a short record wrapping the sentinel", first)
	}
	// The two bytes are still there, but every later read is a zero value
	// and a later failure does not replace the first.
	if d.U8() != 0 || d.Take(1) != nil || d.Str() != "" || d.Count(1) != 0 {
		t.Fatal("a read after a failure returned data")
	}
	d.Fail("later failure")
	if err := d.Done(); err != first {
		t.Fatalf("Done = %v, want the first failure %v", err, first)
	}
}

func TestTakeRefusesBadLengths(t *testing.T) {
	for _, n := range []int{-1, 4, 1 << 40} {
		d := NewReader([]byte{1, 2, 3}, errTest, "frame")
		if b := d.Take(n); b != nil || !errors.Is(d.Err(), errTest) {
			t.Errorf("Take(%d) = %v, %v; want a refusal", n, b, d.Err())
		}
		if !strings.Contains(d.Err().Error(), "short frame") {
			t.Errorf("Take(%d) failure %q does not name the unit", n, d.Err())
		}
	}
	// A length prefix past the end is the same refusal.
	d := NewReader(AppendBytes(nil, "abc")[:6], errTest, "record")
	if b := d.Bytes(); b != nil || d.Err() == nil {
		t.Fatalf("Bytes past the end = %q, %v", b, d.Err())
	}
}

func TestCountRefusesWhatTheRecordCannotHold(t *testing.T) {
	// Three 4-byte elements follow the count.
	body := record([]byte{0, 0, 0, 3}, make([]byte, 12))
	d := NewReader(body, errTest, "record")
	if n := d.Count(4); n != 3 || d.Err() != nil {
		t.Fatalf("Count(4) = %d, %v; want 3", n, d.Err())
	}
	d = NewReader(body, errTest, "record")
	if n := d.Count(5); n != 0 || !errors.Is(d.Err(), errTest) {
		t.Fatalf("Count(5) = %d, %v; want a refusal", n, d.Err())
	}
	// A count near 2³² never reaches an allocation, whatever the size.
	d = NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0}, errTest, "record")
	if n := d.Count(1); n != 0 || d.Err() == nil {
		t.Fatalf("Count(1) of 2³²-1 = %d, %v; want a refusal", n, d.Err())
	}
	// Size 0 bounds nothing: the caller bounds such a count itself.
	d = NewReader([]byte{0, 0, 0, 9}, errTest, "record")
	if n := d.Count(0); n != 9 || d.Err() != nil {
		t.Fatalf("Count(0) = %d, %v; want 9", n, d.Err())
	}
}

func TestDoneRefusesTrailingBytes(t *testing.T) {
	d := NewReader([]byte{7, 8}, errTest, "record")
	if d.U8() != 7 {
		t.Fatal("U8")
	}
	if err := d.Done(); !errors.Is(err, errTest) || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done with a byte left = %v", err)
	}
	d = NewReader([]byte{7}, errTest, "record")
	d.U8()
	if err := d.Done(); err != nil {
		t.Fatalf("Done at the end = %v", err)
	}
}

func TestViewIsCapLimited(t *testing.T) {
	buf := AppendBytes(AppendBytes(nil, "ab"), "cd")
	d := NewReader(buf, errTest, "record")
	first := d.Bytes()
	if cap(first) != len(first) {
		t.Fatalf("view of %d bytes has capacity %d", len(first), cap(first))
	}
	_ = append(first, 'X', 'X', 'X', 'X', 'X')
	if got := d.Str(); got != "cd" {
		t.Fatalf("next field = %q after an append to the view before it", got)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	buf := []byte{9, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 6}
	buf = AppendBytes(buf, []byte("key"))
	d := NewReader(buf, errTest, "record")
	if d.U8() != 9 || d.U32() != 5 || d.U64() != 6 || d.Str() != "key" || d.Len() != 0 {
		t.Fatal("fields do not read back")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}
