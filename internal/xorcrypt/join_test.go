package xorcrypt

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// TestJoinColumnsGolden pins the one XOR-join kernel to a fixed vector:
// three 21-byte lanes holding a run of three 7-byte messages. The whole
// run, each message's region on its own, and the Share-slice form all
// join to the same bytes.
func TestJoinColumnsGolden(t *testing.T) {
	lane := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	lanes := [][]byte{
		lane("101112131415161718191a1b1c1d1e1f2021222324"),
		lane("0b30557a9fc4e90e33587da2c7ec11365b80a5caef"),
		lane("a5a8bf8291e4ebfecdd0272a390c136675784f52a1"),
	}
	want := lane("be89f8eb1a3514e7e6914093e2fd1c4f0ed9c8bb6a")
	got, err := JoinColumnsInto(nil, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("run joins to %x, want %x", got, want)
	}
	const size = 7
	for k := 0; k < len(want)/size; k++ {
		shares := make([]Share, len(lanes))
		for i, l := range lanes {
			shares[i] = Share{MID: MID{byte(k)}, Payload: l[k*size : (k+1)*size]}
		}
		msg, err := Join(shares)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg, want[k*size:(k+1)*size]) {
			t.Fatalf("message %d joins to %x, want %x", k, msg, want[k*size:(k+1)*size])
		}
	}
}

// TestJoinColumnsIntoValidation: the join demands ≥2 lanes of equal
// nonzero length and writes into dst's capacity.
func TestJoinColumnsIntoValidation(t *testing.T) {
	if _, err := JoinColumnsInto(nil, [][]byte{{1}}); !errors.Is(err, ErrShareCount) {
		t.Fatalf("one lane: %v", err)
	}
	if _, err := JoinColumnsInto(nil, [][]byte{{}, {}}); !errors.Is(err, ErrShapes) {
		t.Fatalf("empty lanes: %v", err)
	}
	if _, err := JoinColumnsInto(nil, [][]byte{{1, 2}, {3}}); !errors.Is(err, ErrShapes) {
		t.Fatalf("ragged lanes: %v", err)
	}
	dst := make([]byte, 0, 16)
	out, err := JoinColumnsInto(dst, [][]byte{{0xf0, 0x0f}, {0x0f, 0xf0}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{0xff, 0xff}) {
		t.Fatalf("join = %x", out)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("join did not reuse dst capacity")
	}
}

// TestJoinPayloadsInto: the payloads of one split message, joined as
// one-message lanes, recover it, and a reused dst is overwritten.
func TestJoinPayloadsInto(t *testing.T) {
	s, _ := NewSplitter(3, nil, nil)
	msg := []byte("payload-level join")
	shares, err := s.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, len(shares))
	for i, sh := range shares {
		payloads[i] = sh.Payload
	}
	var out []byte
	for range 2 {
		if out, err = JoinColumnsInto(out, payloads); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, msg) {
			t.Fatalf("join = %q, want %q", out, msg)
		}
	}
}
