package xorcrypt

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestSplitJoinRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		s, err := NewSplitter(n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("QID|randomized-answer-bits")
		shares, err := s.Split(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != n {
			t.Fatalf("n=%d: got %d shares", n, len(shares))
		}
		got, err := Join(shares)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("n=%d: Join = %q, want %q", n, got, msg)
		}
	}
}

func TestSplitJoinProperty(t *testing.T) {
	s, err := NewSplitter(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		if len(msg) == 0 {
			msg = []byte{0}
		}
		shares, err := s.Split(msg)
		if err != nil {
			return false
		}
		got, err := Join(shares)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinOrderIndependent(t *testing.T) {
	s, _ := NewSplitter(4, nil, nil)
	msg := []byte("order independent")
	shares, err := s.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregator XORs shares in arrival order, which is arbitrary.
	perm := []Share{shares[2], shares[0], shares[3], shares[1]}
	got, err := Join(perm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("join must be order independent")
	}
}

func TestPartialSharesRevealNothing(t *testing.T) {
	// XOR of any n−1 shares must differ from the message: the missing
	// key share acts as a one-time pad.
	s, _ := NewSplitter(3, nil, nil)
	msg := bytes.Repeat([]byte{0xAB}, 64)
	shares, err := s.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	for drop := 0; drop < len(shares); drop++ {
		var partial []Share
		for i, sh := range shares {
			if i != drop {
				partial = append(partial, sh)
			}
		}
		got, err := Join(partial)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, msg) {
			t.Errorf("dropping share %d still recovered the message", drop)
		}
	}
}

func TestSharesAreUniformLength(t *testing.T) {
	s, _ := NewSplitter(3, nil, nil)
	msg := make([]byte, 37)
	shares, err := s.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shares {
		if len(sh.Payload) != len(msg) {
			t.Errorf("share %d has %d bytes, want %d", i, len(sh.Payload), len(msg))
		}
		if sh.MID != shares[0].MID {
			t.Errorf("share %d has different MID", i)
		}
	}
}

func TestFreshMIDAndKeysPerSplit(t *testing.T) {
	s, _ := NewSplitter(2, nil, nil)
	msg := []byte("same message twice")
	a, err := s.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].MID == b[0].MID {
		t.Error("MIDs must be fresh per message")
	}
	if bytes.Equal(a[0].Payload, b[0].Payload) {
		t.Error("ciphertexts of identical messages must differ (fresh pad)")
	}
}

// The ciphertext share must look uniformly random even for a degenerate
// all-zero message (indistinguishability from the key shares).
func TestCiphertextLooksUniform(t *testing.T) {
	s, _ := NewSplitter(2, nil, nil)
	const trials = 2000
	msg := make([]byte, 32) // all zeros: ciphertext equals the pad
	ones := 0
	totalBits := 0
	for i := 0; i < trials; i++ {
		shares, err := s.Split(msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range shares[0].Payload {
			for k := 0; k < 8; k++ {
				if b&(1<<k) != 0 {
					ones++
				}
				totalBits++
			}
		}
	}
	frac := float64(ones) / float64(totalBits)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("ciphertext bit bias: %v ones fraction", frac)
	}
}

func TestSplitterValidation(t *testing.T) {
	if _, err := NewSplitter(1, nil, nil); err == nil {
		t.Error("expected error for n < 2")
	}
	s, _ := NewSplitter(2, nil, nil)
	if _, err := s.Split(nil); err == nil {
		t.Error("expected error for empty message")
	}
}

func TestJoinValidation(t *testing.T) {
	if _, err := Join(nil); err == nil {
		t.Error("expected error for no shares")
	}
	var mid1, mid2 MID
	mid2[0] = 1
	mismatchedMID := []Share{
		{MID: mid1, Payload: []byte{1, 2}},
		{MID: mid2, Payload: []byte{3, 4}},
	}
	if _, err := Join(mismatchedMID); err == nil {
		t.Error("expected error for mismatched MIDs")
	}
	mismatchedLen := []Share{
		{MID: mid1, Payload: []byte{1, 2}},
		{MID: mid1, Payload: []byte{3}},
	}
	if _, err := Join(mismatchedLen); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	empty := []Share{{MID: mid1}, {MID: mid1}}
	if _, err := Join(empty); err == nil {
		t.Error("expected error for empty payloads")
	}
}

func TestMIDString(t *testing.T) {
	var mid MID
	mid[0] = 0xAB
	s := mid.String()
	if len(s) != 2*MIDSize || s[:2] != "ab" {
		t.Errorf("String = %q", s)
	}
}

func TestPRNGDeterministicWithSeed(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, 32)
	a, err := NewAESPRNG(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAESPRNG(seed)
	if err != nil {
		t.Fatal(err)
	}
	bufA := make([]byte, 100)
	bufB := make([]byte, 100)
	if err := a.Fill(bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Fill(bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Error("same seed must produce same stream")
	}
	// The stream must advance.
	if err := a.Fill(bufA); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA, bufB) {
		t.Error("stream did not advance")
	}
}

func TestPRNGSeedValidation(t *testing.T) {
	if _, err := NewAESPRNG([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for short AES seed")
	}
}

func TestPRNGStatisticalSanity(t *testing.T) {
	p, err := NewAESPRNG(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	if err := p.Fill(buf); err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, b := range buf {
		for k := 0; k < 8; k++ {
			if b&(1<<k) != 0 {
				ones++
			}
		}
	}
	frac := float64(ones) / float64(len(buf)*8)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("bit bias %v", frac)
	}
}

func TestAESPRNGSpansBlocks(t *testing.T) {
	seed := []byte("a sixteen-byte seed")
	p, err := NewAESPRNG(seed)
	if err != nil {
		t.Fatal(err)
	}
	// Draw sizes that straddle the 16-byte block boundary.
	whole := make([]byte, 100)
	if err := p.Fill(whole); err != nil {
		t.Fatal(err)
	}
	p2, _ := NewAESPRNG(seed)
	pieces := make([]byte, 0, 100)
	for _, sz := range []int{1, 15, 16, 17, 51} {
		chunk := make([]byte, sz)
		if err := p2.Fill(chunk); err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, chunk...)
	}
	if !bytes.Equal(whole, pieces) {
		t.Error("chunked fills must match one big fill")
	}
}
