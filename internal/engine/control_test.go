package engine

import (
	"bytes"
	"crypto/ed25519"
	"math"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
)

// testKey derives a deterministic analyst keypair from one seed byte.
func testKey(b byte) (ed25519.PublicKey, ed25519.PrivateKey) {
	seed := bytes.Repeat([]byte{b}, ed25519.SeedSize)
	priv := ed25519.NewKeyFromSeed(seed)
	return priv.Public().(ed25519.PublicKey), priv
}

// testQuery builds a small valid query for one analyst/serial.
func testQuery(t *testing.T, analyst string, serial uint64) *query.Query {
	t.Helper()
	buckets, err := query.UniformRanges(0, 10, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	return &query.Query{
		QID:       query.ID{Analyst: analyst, Serial: serial},
		SQL:       "SELECT dist FROM rides",
		Buckets:   buckets,
		Frequency: time.Second,
		Window:    4 * time.Second,
		Slide:     2 * time.Second,
	}
}

func testSigned(t *testing.T, analyst string, serial uint64, priv ed25519.PrivateKey) *query.Signed {
	t.Helper()
	signed, err := query.Sign(testQuery(t, analyst, serial), priv)
	if err != nil {
		t.Fatal(err)
	}
	return signed
}

func testParams() budget.Params {
	return budget.Params{S: 0.8, RR: rr.Params{P: 0.9, Q: 0.6}}
}

func TestQuerySetRoundTrip(t *testing.T) {
	pub, priv := testKey(1)
	pattern, err := query.NewPatternBucket("^taxi-.*$")
	if err != nil {
		t.Fatal(err)
	}
	q2 := testQuery(t, "bob", 7)
	q2.Buckets = append(q2.Buckets, pattern, query.RangeBucket{Lo: 10, Hi: math.Inf(1)})
	q2.Inverted = true
	signed2, err := query.Sign(q2, priv)
	if err != nil {
		t.Fatal(err)
	}
	qs := &QuerySet{
		Version: 42,
		Entries: []Entry{
			{Signed: testSigned(t, "alice", 1, priv), AnalystKey: pub, Params: testParams(), Rev: 0},
			{Signed: signed2, AnalystKey: pub, Params: budget.Params{S: 0.25, RR: rr.Params{P: 0.5, Q: 0.4}}, Rev: 3},
		},
	}
	payload, err := qs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQuerySet(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != qs.Version || len(got.Entries) != len(qs.Entries) {
		t.Fatalf("decoded %d entries at version %d", len(got.Entries), got.Version)
	}
	for i := range qs.Entries {
		want, have := qs.Entries[i], got.Entries[i]
		if !reflect.DeepEqual(want.Signed.Query.QID, have.Signed.Query.QID) ||
			want.Signed.Query.SQL != have.Signed.Query.SQL ||
			want.Signed.Query.Inverted != have.Signed.Query.Inverted ||
			want.Signed.Query.Frequency != have.Signed.Query.Frequency {
			t.Errorf("entry %d query mismatch: %+v vs %+v", i, want.Signed.Query, have.Signed.Query)
		}
		if !reflect.DeepEqual(want.Signed.Query.Buckets.Labels(), have.Signed.Query.Buckets.Labels()) {
			t.Errorf("entry %d bucket labels mismatch", i)
		}
		if !bytes.Equal(want.Signed.Signature, have.Signed.Signature) {
			t.Errorf("entry %d signature mismatch", i)
		}
		if !bytes.Equal(want.AnalystKey, have.AnalystKey) {
			t.Errorf("entry %d analyst key mismatch", i)
		}
		if want.Params != have.Params || want.Rev != have.Rev {
			t.Errorf("entry %d params/rev mismatch", i)
		}
		// The signature must still verify after the round trip — the
		// signing payload is rebuilt from the decoded fields, so any
		// codec lossiness would surface here.
		if err := have.Signed.Verify(have.AnalystKey); err != nil {
			t.Errorf("entry %d: decoded signature does not verify: %v", i, err)
		}
	}
}

func TestDecodeQuerySetRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"unknown opcode": {0x99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated":      {opQuerySet, 0, 0, 0},
		"entry overflow": append([]byte{opQuerySet, 0, 0, 0, 0, 0, 0, 0, 1}, 0xff, 0xff, 0xff, 0xff),
	}
	for name, payload := range cases {
		if _, err := DecodeQuerySet(payload); err == nil {
			t.Errorf("%s: decode accepted garbage", name)
		}
	}
	// Trailing bytes after a valid snapshot are a framing error.
	qs := &QuerySet{Version: 1}
	payload, err := qs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeQuerySet(append(payload, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// FuzzQuerySetRoundTrip fuzzes the control-plane codec alongside the
// share-pipeline fuzzers: any payload the decoder accepts must
// re-encode and re-decode to the same snapshot, and the decoder must
// never panic on arbitrary bytes.
func FuzzQuerySetRoundTrip(f *testing.F) {
	pub, priv := testKey(9)
	q := &query.Query{
		QID:       query.ID{Analyst: "fuzz", Serial: 3},
		SQL:       "SELECT v FROM t",
		Buckets:   query.Buckets{query.RangeBucket{Lo: 0, Hi: 1}},
		Frequency: time.Second,
		Window:    2 * time.Second,
		Slide:     time.Second,
	}
	signed, err := query.Sign(q, priv)
	if err != nil {
		f.Fatal(err)
	}
	qs := &QuerySet{Version: 7, Entries: []Entry{{
		Signed: signed, AnalystKey: pub,
		Params: budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Rev:    1,
	}}}
	seed, err := qs.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// Seed the shed-threshold wire field: a mid-shed snapshot and one
	// whose out-of-range shed must normalize to 1 on decode.
	for _, shed := range []float64{0.25, 1, 7.5} {
		qs.Entries[0].Shed = shed
		s, err := qs.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
	}
	f.Add([]byte{opQuerySet})
	f.Fuzz(func(t *testing.T, payload []byte) {
		payload = bytes.Clone(payload) // overwritten below
		qs, err := DecodeQuerySet(payload)
		if err != nil {
			return
		}
		re, err := qs.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		// The decoded set owns copies of every field: a follower decodes
		// out of poll memory the next poll reuses.
		for i := range payload {
			payload[i] = 0xFF
		}
		if again, err := qs.MarshalBinary(); err != nil || !bytes.Equal(again, re) {
			t.Fatalf("overwriting the payload changed the decoded set: %x (%v), want %x", again, err, re)
		}
		back, err := DecodeQuerySet(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Version != qs.Version || len(back.Entries) != len(qs.Entries) {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				qs.Version, len(qs.Entries), back.Version, len(back.Entries))
		}
		for i := range qs.Entries {
			a, b := &qs.Entries[i], &back.Entries[i]
			if a.Signed.Query.QID != b.Signed.Query.QID || a.Rev != b.Rev ||
				!bytes.Equal(a.Signed.Signature, b.Signed.Signature) ||
				len(a.Signed.Query.Buckets) != len(b.Signed.Query.Buckets) {
				t.Fatalf("entry %d changed across round trip", i)
			}
			// Decode normalizes Shed into (0, 1], and re-encoding a
			// normalized value must be a fixed point.
			if !(a.Shed > 0) || a.Shed > 1 {
				t.Fatalf("entry %d decoded shed %v outside (0, 1]", i, a.Shed)
			}
			if a.Shed != b.Shed {
				t.Fatalf("entry %d shed changed across round trip: %v vs %v", i, a.Shed, b.Shed)
			}
		}
	})
}
