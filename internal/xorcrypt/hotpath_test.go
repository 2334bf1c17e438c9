package xorcrypt

import (
	"bytes"
	"testing"
)

// FuzzSplitJoinRoundTrip drives the scratch-reusing split/join pair with
// arbitrary messages and share counts: every non-empty message must
// survive SplitInto → JoinInto exactly, through reused scratch.
func FuzzSplitJoinRoundTrip(f *testing.F) {
	f.Add([]byte("seed message"), uint8(2))
	f.Add([]byte{0}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 1024), uint8(5))
	f.Fuzz(func(t *testing.T, msg []byte, n uint8) {
		shareN := 2 + int(n%4) // 2..5 proxies
		s, err := NewSplitter(shareN, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var scratch SplitScratch
		var joinBuf []byte
		if len(msg) == 0 {
			if _, err := s.SplitInto(msg, &scratch); err == nil {
				t.Fatal("empty message must be rejected")
			}
			return
		}
		// Two consecutive splits through the same scratch: the second
		// must not corrupt a copy taken of the first (ownership
		// contract), and both must round-trip.
		shares, err := s.SplitInto(msg, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		firstCopy := make([]Share, len(shares))
		for i, sh := range shares {
			firstCopy[i] = Share{MID: sh.MID, Payload: append([]byte(nil), sh.Payload...)}
		}
		shares2, err := s.SplitInto(msg, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		joinBuf, err = JoinInto(joinBuf, firstCopy)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(joinBuf, msg) {
			t.Fatalf("first split did not round-trip: got %x want %x", joinBuf, msg)
		}
		joinBuf, err = JoinInto(joinBuf, shares2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(joinBuf, msg) {
			t.Fatalf("second split did not round-trip: got %x want %x", joinBuf, msg)
		}
		if shares2[0].MID == firstCopy[0].MID {
			t.Fatal("MIDs must be fresh per message")
		}
	})
}

// TestSplitIntoScratchIsReused pins the whole point of the scratch API:
// consecutive splits hand back the same backing buffers, so the
// steady-state hot path performs no allocations.
func TestSplitIntoScratchIsReused(t *testing.T) {
	s, err := NewSplitter(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch SplitScratch
	msg := bytes.Repeat([]byte{0xA5}, 40)
	a, err := s.SplitInto(msg, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]*byte, len(a))
	for i := range a {
		ptrs[i] = &a[i].Payload[0]
	}
	b, err := s.SplitInto(msg, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if &b[i].Payload[0] != ptrs[i] {
			t.Fatalf("share %d: scratch payload not reused", i)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.SplitInto(msg, &scratch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("SplitInto: %v allocs/op, want 0", allocs)
	}
}

// TestScratchReuseNeverAliasesAcrossMessages: after the consumer copies
// message A's shares (per the ownership contract), splitting message B
// through the same scratch must leave A's copies joinable to A — no byte
// of B may leak into them — and A's original (now reused) buffers must
// hold B's shares exactly.
func TestScratchReuseNeverAliasesAcrossMessages(t *testing.T) {
	s, err := NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch SplitScratch
	msgA := bytes.Repeat([]byte{0x11}, 64)
	msgB := bytes.Repeat([]byte{0xEE}, 64)

	sharesA, err := s.SplitInto(msgA, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	copyA := make([]Share, len(sharesA))
	for i, sh := range sharesA {
		copyA[i] = Share{MID: sh.MID, Payload: append([]byte(nil), sh.Payload...)}
	}

	sharesB, err := s.SplitInto(msgB, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := Join(copyA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, msgA) {
		t.Error("message A's copied shares were corrupted by splitting B")
	}
	gotB, err := Join(sharesB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, msgB) {
		t.Error("message B did not round-trip through reused scratch")
	}
}

// TestMIDBlockRefill exhausts several MID blocks and checks freshness
// across refill boundaries.
func TestMIDBlockRefill(t *testing.T) {
	s, err := NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch SplitScratch
	msg := []byte{1, 2, 3}
	seen := make(map[MID]bool)
	for i := 0; i < 3*midBlock+5; i++ {
		shares, err := s.SplitInto(msg, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if seen[shares[0].MID] {
			t.Fatalf("MID repeated at message %d", i)
		}
		seen[shares[0].MID] = true
	}
}

// TestMIDsFromSuppliedSource pins the block-read behaviour for callers
// that inject a deterministic MID source.
func TestMIDsFromSuppliedSource(t *testing.T) {
	src := bytes.NewReader(bytes.Repeat([]byte{7}, 4*midBlock*MIDSize))
	s, err := NewSplitter(2, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := s.SplitInto([]byte{1}, new(SplitScratch))
	if err != nil {
		t.Fatal(err)
	}
	want := MID(bytes.Repeat([]byte{7}, MIDSize))
	if shares[0].MID != want {
		t.Fatalf("MID = %v, want all-7s from the supplied source", shares[0].MID)
	}
}
