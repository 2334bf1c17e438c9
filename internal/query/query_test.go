package query

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	mrand "math/rand"
	"testing"
	"time"

	"privapprox/internal/minisql"
)

func taxiBuckets(t *testing.T) Buckets {
	t.Helper()
	bs, err := UniformRanges(0, 10, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func validQuery(t *testing.T) *Query {
	t.Helper()
	return &Query{
		QID:       ID{Analyst: "alice", Serial: 7},
		SQL:       "SELECT distance FROM rides",
		Buckets:   taxiBuckets(t),
		Frequency: time.Second,
		Window:    10 * time.Minute,
		Slide:     time.Minute,
	}
}

func TestRangeBucket(t *testing.T) {
	b := RangeBucket{Lo: 1, Hi: 2}
	cases := map[string]bool{
		"1":    true,
		"1.99": true,
		"2":    false, // half-open
		"0.99": false,
		"abc":  false,
	}
	for in, want := range cases {
		if got := b.Match(in); got != want {
			t.Errorf("Match(%q) = %v, want %v", in, got, want)
		}
	}
	if b.Label() != "[1,2)" {
		t.Errorf("Label = %q", b.Label())
	}
	inf := RangeBucket{Lo: 10, Hi: math.Inf(1)}
	if !inf.Match("1000000") {
		t.Error("overflow bucket should match large values")
	}
	if inf.Label() != "[10,+inf)" {
		t.Errorf("Label = %q", inf.Label())
	}
	neg := RangeBucket{Lo: math.Inf(-1), Hi: 0}
	if neg.Label() != "(-inf,0)" {
		t.Errorf("Label = %q", neg.Label())
	}
}

func TestPatternBucket(t *testing.T) {
	b, err := NewPatternBucket(`^San Francisco$`)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Match("San Francisco") || b.Match("San Jose") {
		t.Error("pattern matching wrong")
	}
	if b.Label() != "^San Francisco$" {
		t.Errorf("Label = %q", b.Label())
	}
	if _, err := NewPatternBucket("("); err == nil {
		t.Error("expected error for bad regexp")
	}
}

func TestUniformRanges(t *testing.T) {
	bs, err := UniformRanges(0, 10, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 11 {
		t.Fatalf("len = %d, want 11", len(bs))
	}
	// The paper's taxi example: 0.5 miles → bucket 0; 9.9 → bucket 9;
	// 10+ → overflow bucket 10.
	if got := bs.Index("0.5"); got != 0 {
		t.Errorf("Index(0.5) = %d", got)
	}
	if got := bs.Index("9.9"); got != 9 {
		t.Errorf("Index(9.9) = %d", got)
	}
	if got := bs.Index("15"); got != 10 {
		t.Errorf("Index(15) = %d", got)
	}
	if got := bs.Index("-1"); got != -1 {
		t.Errorf("Index(-1) = %d, want -1", got)
	}
	if got := len(bs.Labels()); got != 11 {
		t.Errorf("Labels len = %d", got)
	}
	if _, err := UniformRanges(5, 5, 3, false); err == nil {
		t.Error("expected error for empty range")
	}
	if _, err := UniformRanges(0, 1, 0, false); err == nil {
		t.Error("expected error for zero buckets")
	}
}

func TestQueryValidate(t *testing.T) {
	q := validQuery(t)
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	broken := []func(*Query){
		func(q *Query) { q.SQL = "" },
		func(q *Query) { q.Buckets = nil },
		func(q *Query) { q.Frequency = 0 },
		func(q *Query) { q.Window = 0 },
		func(q *Query) { q.Slide = 0 },
		func(q *Query) { q.Slide = q.Window + 1 },
	}
	for i, mutate := range broken {
		q := validQuery(t)
		mutate(q)
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestIDStringAndHash(t *testing.T) {
	id := ID{Analyst: "alice", Serial: 42}
	if id.String() != "alice:42" {
		t.Errorf("String = %q", id.String())
	}
	other := ID{Analyst: "alice", Serial: 43}
	if id.Uint64() == other.Uint64() {
		t.Error("different serials should hash differently")
	}
	if id.Uint64() != (ID{Analyst: "alice", Serial: 42}).Uint64() {
		t.Error("hash must be deterministic")
	}
}

func TestInvertToggles(t *testing.T) {
	q := validQuery(t)
	inv := q.Invert()
	if !inv.Inverted || q.Inverted {
		t.Error("Invert should toggle a copy only")
	}
	if back := inv.Invert(); back.Inverted {
		t.Error("double inversion should restore")
	}
}

func TestEpochOf(t *testing.T) {
	q := validQuery(t)
	origin := time.Unix(1000, 0)
	if got := q.EpochOf(origin, origin); got != 0 {
		t.Errorf("epoch at origin = %d", got)
	}
	if got := q.EpochOf(origin, origin.Add(2500*time.Millisecond)); got != 2 {
		t.Errorf("epoch at +2.5s = %d, want 2", got)
	}
	if got := q.EpochOf(origin, origin.Add(-time.Hour)); got != 0 {
		t.Errorf("epoch before origin = %d, want 0", got)
	}
}

func TestSignVerify(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := Sign(validQuery(t), priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := signed.Verify(pub); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Any field tamper must break the signature.
	signed.Query.SQL = "SELECT speed FROM rides"
	if err := signed.Verify(pub); err == nil {
		t.Error("tampered SQL accepted")
	}
	signed.Query.SQL = "SELECT distance FROM rides"
	signed.Query.Inverted = true
	if err := signed.Verify(pub); err == nil {
		t.Error("tampered inversion flag accepted")
	}
	signed.Query.Inverted = false
	if err := signed.Verify(pub); err != nil {
		t.Error("restored query should verify again")
	}
	// Wrong key.
	otherPub, _, _ := ed25519.GenerateKey(rand.Reader)
	if err := signed.Verify(otherPub); err == nil {
		t.Error("wrong public key accepted")
	}
	if err := signed.Verify(nil); err == nil {
		t.Error("nil public key accepted")
	}
}

// TestVerifiedHoldsItsOwnCopy: a Verified comes only from a successful
// Verify, and what it holds is fixed at that moment — later writes to
// the *Signed's SQL or buckets do not reach it.
func TestVerifiedHoldsItsOwnCopy(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if (Verified{}).Query() != nil {
		t.Fatal("the zero Verified holds a query")
	}
	signed, err := Sign(validQuery(t), priv)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Verify(signed, pub)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	signed.Query.SQL = "SELECT speed FROM rides"
	signed.Query.Buckets[0] = RangeBucket{Lo: 100, Hi: 200}
	signed.Query.Buckets = signed.Query.Buckets[:1]
	want := validQuery(t)
	if got := v.Query(); got.SQL != want.SQL || len(got.Buckets) != len(want.Buckets) || got.Buckets[0] != want.Buckets[0] {
		t.Fatalf("Verified changed with its *Signed: SQL %q, %d buckets, first %v", got.SQL, len(got.Buckets), got.Buckets[0])
	}
	if v.Query() == signed.Query {
		t.Fatal("Verified shares the caller's *Query")
	}

	otherPub, _, _ := ed25519.GenerateKey(rand.Reader)
	fresh, _ := Sign(validQuery(t), priv)
	for name, tc := range map[string]struct {
		s   *Signed
		pub ed25519.PublicKey
	}{
		"tampered":  {signed, pub},
		"wrong key": {fresh, otherPub},
		"nil key":   {fresh, nil},
		"nil query": {&Signed{Signature: fresh.Signature}, pub},
		"nil":       {nil, pub},
	} {
		if v, err := Verify(tc.s, tc.pub); err == nil || v.Query() != nil {
			t.Errorf("%s: Verify = (%v, %v), want the zero Verified and an error", name, v.Query(), err)
		}
	}
}

// TestIDUint64IsFNVOfString pins the wire identifier to FNV-1a over
// String(), byte for byte, at the edges of both fields.
func TestIDUint64IsFNVOfString(t *testing.T) {
	for _, id := range []ID{
		{},
		{Analyst: "", Serial: math.MaxUint64},
		{Analyst: "alice", Serial: 0},
		{Analyst: "alice", Serial: 42},
		{Analyst: "анализ-🙂", Serial: 7},
		{Analyst: "bad\xff\xfeutf8:", Serial: 1 << 63},
	} {
		h := fnv.New64a()
		h.Write([]byte(id.String()))
		if got, want := id.Uint64(), h.Sum64(); got != want {
			t.Errorf("%q: Uint64 = %#x, FNV-1a of String() = %#x", id.String(), got, want)
		}
	}
}

var sinkWire uint64

// TestIDUint64ZeroAllocs: result sorting hashes IDs on every comparison.
func TestIDUint64ZeroAllocs(t *testing.T) {
	id := ID{Analyst: "bench-analyst", Serial: math.MaxUint64}
	if allocs := testing.AllocsPerRun(100, func() { sinkWire = id.Uint64() }); allocs != 0 {
		t.Fatalf("ID.Uint64: %v allocs/op, want 0", allocs)
	}
}

func TestSignRejectsInvalid(t *testing.T) {
	_, priv, _ := ed25519.GenerateKey(rand.Reader)
	q := validQuery(t)
	q.SQL = ""
	if _, err := Sign(q, priv); err == nil {
		t.Error("expected validation error")
	}
	if _, err := Sign(validQuery(t), nil); err == nil {
		t.Error("expected bad-key error")
	}
}

// bucketSets covers every shape Compile tells apart.
func bucketSets(t *testing.T) map[string]Buckets {
	t.Helper()
	pattern := func(p string) Bucket {
		b, err := NewPatternBucket(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	uniform, err := UniformRanges(0, 32, 127, true)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	return map[string]Buckets{
		"taxi":         taxiBuckets(t),
		"uniform128":   uniform,
		"gaps":         {RangeBucket{-5, -1}, RangeBucket{0, 1}, RangeBucket{3, 3}, RangeBucket{3, 7}},
		"open ends":    {RangeBucket{-inf, 0}, RangeBucket{0, inf}},
		"overlapping":  {RangeBucket{0, 5}, RangeBucket{3, 8}, RangeBucket{-inf, inf}},
		"unsorted":     {RangeBucket{5, 10}, RangeBucket{0, 5}, RangeBucket{-3, 0}},
		"inverted":     {RangeBucket{4, 2}, RangeBucket{2, 4}},
		"nan bound":    {RangeBucket{0, math.NaN()}, RangeBucket{math.NaN(), 9}, RangeBucket{1, 2}},
		"patterns":     {pattern("^New"), pattern("^[0-9.]+$"), pattern("^(true|NULL)$")},
		"mixed":        {pattern("^3"), RangeBucket{0, 5}, pattern("e"), RangeBucket{5, 100}, pattern("")},
		"pointer kind": {&RangeBucket{0, 5}, RangeBucket{5, 10}},
		"empty":        {},
	}
}

// IndexValue must pick the bucket Index picks for the value's text, for
// every kind of value and every shape of bucket set.
func TestIndexValueMatchesIndex(t *testing.T) {
	values := []minisql.Value{
		minisql.Null(), minisql.Bool(true), minisql.Bool(false),
		minisql.Number(math.NaN()), minisql.Number(math.Inf(1)), minisql.Number(math.Inf(-1)),
		minisql.Number(0), minisql.Number(math.Copysign(0, -1)), minisql.Number(1e300), minisql.Number(-1e-300),
		minisql.Number(3), minisql.Number(5), minisql.Number(31.999999999999996), minisql.Number(32), minisql.Number(0.1 + 0.2),
		minisql.Text(""), minisql.Text("3.5"), minisql.Text(" 3.5"), minisql.Text("3.5 "), minisql.Text("+4"), minisql.Text("1e1"),
		minisql.Text("0x1p2"), minisql.Text("1_0"), minisql.Text("1e999"), minisql.Text("inf"), minisql.Text("NaN"), minisql.Text("NULL"),
		minisql.Text("true"), minisql.Text("New York"), minisql.Text("3 miles"),
	}
	rng := mrand.New(mrand.NewSource(7))
	for i := 0; i < 2000; i++ {
		values = append(values, minisql.Number((rng.Float64()-0.1)*40), minisql.Number(float64(rng.Intn(41)-4)))
	}
	for name, bs := range bucketSets(t) {
		z := bs.Compile()
		for _, v := range values {
			if got, want := z.IndexValue(v), bs.Index(v.String()); got != want {
				t.Errorf("%s: IndexValue(%v %q) = %d, Index(%q) = %d", name, v.Kind, v.String(), got, v.String(), want)
			}
		}
	}
}

// Index itself still agrees with asking every bucket in turn.
func TestIndexMatchesFirstMatch(t *testing.T) {
	for name, bs := range bucketSets(t) {
		for _, s := range []string{"", "3", " 3", "5", "-0", "1e999", "NaN", "+Inf", "New York", "NULL", "32", "31.9"} {
			want := -1
			for i, b := range bs {
				if b.Match(s) {
					want = i
					break
				}
			}
			if got := bs.Index(s); got != want {
				t.Errorf("%s: Index(%q) = %d, first Match is %d", name, s, got, want)
			}
		}
	}
}

func TestCompileChoosesBinarySearchOnlyWhenSound(t *testing.T) {
	want := map[string]bool{
		"taxi": true, "uniform128": true, "gaps": true, "open ends": true, "empty": true,
		"overlapping": false, "unsorted": false, "inverted": false, "nan bound": false,
		"patterns": false, "mixed": false, "pointer kind": false,
	}
	for name, bs := range bucketSets(t) {
		if z := bs.Compile(); z.sorted != want[name] {
			t.Errorf("%s: sorted=%v, want %v", name, z.sorted, want[name])
		}
	}
}

func TestIndexValueZeroAllocs(t *testing.T) {
	sets := bucketSets(t)
	for _, name := range []string{"taxi", "uniform128", "unsorted"} {
		z := sets[name].Compile()
		v := minisql.Number(4.25)
		if allocs := testing.AllocsPerRun(100, func() { z.IndexValue(v) }); allocs != 0 {
			t.Errorf("%s: %v allocs per IndexValue, want 0", name, allocs)
		}
	}
	z := sets["patterns"].Compile()
	v := minisql.Text("New York")
	if allocs := testing.AllocsPerRun(100, func() { z.IndexValue(v) }); allocs != 0 {
		t.Errorf("text into patterns: %v allocs per IndexValue, want 0", allocs)
	}
}

func BenchmarkIndex128(b *testing.B) {
	bs, err := UniformRanges(0, 32, 127, true)
	if err != nil {
		b.Fatal(err)
	}
	values := make([]string, 64)
	rng := mrand.New(mrand.NewSource(1))
	for i := range values {
		values[i] = minisql.Number(rng.ExpFloat64() * 3).String()
	}
	for i := 0; i < b.N; i++ {
		bs.Index(values[i%len(values)])
	}
}

func BenchmarkIndexValue128(b *testing.B) {
	bs, err := UniformRanges(0, 32, 127, true)
	if err != nil {
		b.Fatal(err)
	}
	z := bs.Compile()
	values := make([]minisql.Value, 64)
	rng := mrand.New(mrand.NewSource(1))
	for i := range values {
		values[i] = minisql.Number(rng.ExpFloat64() * 3)
	}
	for i := 0; i < b.N; i++ {
		z.IndexValue(values[i%len(values)])
	}
}

// The labels are part of what an analyst signs, so their bytes are
// fixed: this table and the signature below were produced by the
// fmt.Sprintf("[%g,%g)") rendering the package started with.
func TestRangeBucketLabelGolden(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		b    RangeBucket
		want string
	}{
		{RangeBucket{0, 1}, "[0,1)"},
		{RangeBucket{0.1, 0.2}, "[0.1,0.2)"},
		{RangeBucket{1e6, 2e6}, "[1e+06,2e+06)"},
		{RangeBucket{999999, 1000000}, "[999999,1e+06)"},
		{RangeBucket{1e21, 1e22}, "[1e+21,1e+22)"},
		{RangeBucket{1e-5, 1e-4}, "[1e-05,0.0001)"},
		{RangeBucket{math.Copysign(0, -1), 0}, "[-0,0)"},
		{RangeBucket{-1.5, inf}, "[-1.5,+inf)"},
		{RangeBucket{-inf, 2.5}, "(-inf,2.5)"},
		{RangeBucket{-inf, inf}, "[-Inf,+inf)"},
		{RangeBucket{inf, inf}, "[+Inf,+inf)"},
		{RangeBucket{inf, 3}, "[+Inf,3)"},
		{RangeBucket{3, -inf}, "[3,-Inf)"},
		{RangeBucket{math.NaN(), 1}, "[NaN,1)"},
		{RangeBucket{0.25196850393700787, 0.5039370078740157}, "[0.25196850393700787,0.5039370078740157)"},
		{RangeBucket{-math.MaxFloat64, math.MaxFloat64}, "[-1.7976931348623157e+308,1.7976931348623157e+308)"},
		{RangeBucket{math.SmallestNonzeroFloat64, 1}, "[5e-324,1)"},
	} {
		if got := c.b.Label(); got != c.want {
			t.Errorf("Label(%v, %v) = %q, want %q", c.b.Lo, c.b.Hi, got, c.want)
		}
	}
	// And against the old rendering itself, over arbitrary bit patterns.
	rng := mrand.New(mrand.NewSource(19))
	for i := 0; i < 20000; i++ {
		b := RangeBucket{math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())}
		if got, want := b.Label(), fmt.Sprintf("[%g,%g)", b.Lo, b.Hi); got != want {
			t.Fatalf("Label = %q, %%g renders %q", got, want)
		}
	}
}

// A signature made before the labels left fmt still verifies, and
// signing again yields the same bytes (ed25519 is deterministic): the
// payload is unchanged for range, infinite-ended and pattern buckets.
func TestExistingSignatureStillVerifies(t *testing.T) {
	const golden = "bf388bb928a5460a3d69831a4fe0f66a5d915ec0dd17e3ae55b700d2ca670e54" +
		"f5286aa676bf9dd775de31a988beae1ba18df8411b81e2521e15a1551a8d3e08"
	key := ed25519.NewKeyFromSeed([]byte("privapprox-golden-signing-seed!!"))
	bs, err := UniformRanges(0, 32, 127, true)
	if err != nil {
		t.Fatal(err)
	}
	night, err := NewPatternBucket("^night")
	if err != nil {
		t.Fatal(err)
	}
	bs = append(bs, RangeBucket{Lo: math.Inf(-1), Hi: 0}, night)
	q := &Query{
		QID: ID{Analyst: "golden", Serial: 19}, SQL: "SELECT distance FROM rides", Buckets: bs,
		Frequency: time.Second, Window: 8 * time.Second, Slide: time.Second, Inverted: true,
	}
	sig, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Signed{Query: q, Signature: sig}).Verify(key.Public().(ed25519.PublicKey)); err != nil {
		t.Fatalf("signature from before the change: %v", err)
	}
	again, err := Sign(q, key)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(again.Signature) != golden {
		t.Errorf("signing again gave %x", again.Signature)
	}
}
