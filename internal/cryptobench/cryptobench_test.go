package cryptobench

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Small keys keep unit tests fast; the benchmarks use 1024-bit keys as
// in the paper.
const testKeyBits = 256

func testRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestGMRoundTripBits(t *testing.T) {
	key, err := GenerateGMKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []bool{false, true} {
		c, err := key.encryptBit(bit, testRand())
		if err != nil {
			t.Fatal(err)
		}
		got, err := key.decryptBit(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != bit {
			t.Errorf("bit %v decrypted as %v", bit, got)
		}
	}
}

func TestGMRoundTripBitString(t *testing.T) {
	key, err := GenerateGMKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			raw = []byte{0xA5}
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		nbits := len(raw) * 8
		cs, err := key.EncryptBits(raw, nbits, testRand())
		if err != nil {
			return false
		}
		got, err := key.DecryptBits(cs)
		if err != nil {
			return false
		}
		return bytes.Equal(got, raw)
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGMCiphertextsRandomized(t *testing.T) {
	key, err := GenerateGMKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := key.encryptBit(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := key.encryptBit(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Cmp(c2) == 0 {
		t.Error("GM must be probabilistic")
	}
}

func TestGMHomomorphicXOR(t *testing.T) {
	key, err := GenerateGMKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		c1, _ := key.encryptBit(pair[0], testRand())
		c2, _ := key.encryptBit(pair[1], testRand())
		prod := key.homomorphicXOR(c1, c2)
		got, err := key.decryptBit(prod)
		if err != nil {
			t.Fatal(err)
		}
		want := pair[0] != pair[1]
		if got != want {
			t.Errorf("XOR(%v,%v) decrypted as %v", pair[0], pair[1], got)
		}
	}
}

func TestGMValidation(t *testing.T) {
	if _, err := GenerateGMKey(4, testRand()); err == nil {
		t.Error("expected error for tiny key")
	}
	key, _ := GenerateGMKey(testKeyBits, testRand())
	if _, err := key.decryptBit(nil); err == nil {
		t.Error("expected error for nil ciphertext")
	}
	if _, err := key.decryptBit(new(big.Int).Add(key.N, bigOne)); err == nil {
		t.Error("expected error for out-of-range ciphertext")
	}
	if _, err := key.EncryptBits([]byte{1}, 100, testRand()); err == nil {
		t.Error("expected error for bit count past buffer")
	}
}

func TestPaillierRoundTrip(t *testing.T) {
	key, err := GeneratePaillierKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int64{0, 1, 42, 255, 65535} {
		c, err := key.Encrypt(big.NewInt(m), testRand())
		if err != nil {
			t.Fatal(err)
		}
		got, err := key.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Errorf("m=%d decrypted as %v", m, got)
		}
	}
}

func TestPaillierHomomorphicAdd(t *testing.T) {
	key, err := GeneratePaillierKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint16) bool {
		ca, err := key.Encrypt(big.NewInt(int64(a)), testRand())
		if err != nil {
			return false
		}
		cb, err := key.Encrypt(big.NewInt(int64(b)), testRand())
		if err != nil {
			return false
		}
		sum, err := key.Decrypt(key.homomorphicAdd(ca, cb))
		if err != nil {
			return false
		}
		return sum.Int64() == int64(a)+int64(b)
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPaillierValidation(t *testing.T) {
	key, err := GeneratePaillierKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := key.Encrypt(big.NewInt(-1), testRand()); err == nil {
		t.Error("expected error for negative message")
	}
	if _, err := key.Encrypt(key.N, testRand()); err == nil {
		t.Error("expected error for message ≥ N")
	}
	if _, err := key.Decrypt(nil); err == nil {
		t.Error("expected error for nil ciphertext")
	}
	if _, err := GeneratePaillierKey(4, testRand()); err == nil {
		t.Error("expected error for tiny key")
	}
}

func TestPaillierCiphertextsRandomized(t *testing.T) {
	key, err := GeneratePaillierKey(testKeyBits, testRand())
	if err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(7)
	c1, _ := key.Encrypt(m, nil)
	c2, _ := key.Encrypt(m, nil)
	if c1.Cmp(c2) == 0 {
		t.Error("Paillier must be probabilistic")
	}
}

func TestRSARoundTrip(t *testing.T) {
	c, err := NewRSACipher(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("qid|answer-bits-18-bytes")
	ct, err := c.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("Decrypt = %q, want %q", got, msg)
	}
	if c.maxMessageLen() != 128-11 {
		t.Errorf("MaxMessageLen = %d", c.maxMessageLen())
	}
}

func TestRSAValidation(t *testing.T) {
	if _, err := NewRSACipher(128, nil); err == nil {
		t.Error("expected error for short key")
	}
	c, err := NewRSACipher(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encrypt(make([]byte, 1000)); err == nil {
		t.Error("expected error for oversized message")
	}
	if _, err := c.Decrypt([]byte("not a ciphertext")); err == nil {
		t.Error("expected error for bogus ciphertext")
	}
}

func TestDeviceProfiles(t *testing.T) {
	ds := Devices()
	if len(ds) != 3 {
		t.Fatalf("Devices = %d, want 3", len(ds))
	}
	if ds[0].Scale >= ds[1].Scale || ds[1].Scale >= ds[2].Scale {
		t.Error("device scales must be ordered phone < laptop < server")
	}
	// 1000 ns/op on the server host = 1e6 ops/sec at scale 1.
	if got := deviceServer.OpsPerSec(1000); got != 1e6 {
		t.Errorf("OpsPerSec = %v", got)
	}
	if got := deviceServer.OpsPerSec(0); got != 0 {
		t.Errorf("OpsPerSec(0) = %v, want 0", got)
	}
}
