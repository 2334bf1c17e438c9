package client

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"sync"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// captureSink records submitted shares.
type captureSink struct {
	mu     sync.Mutex
	shares []xorcrypt.Share
	fail   bool
}

func (s *captureSink) Submit(share xorcrypt.Share) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("sink down")
	}
	s.shares = append(s.shares, share)
	return nil
}

func (s *captureSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shares)
}

func testQuery(t *testing.T) *query.Query {
	t.Helper()
	buckets, err := query.UniformRanges(0, 10, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	return &query.Query{
		QID:       query.ID{Analyst: "a", Serial: 1},
		SQL:       "SELECT distance FROM rides",
		Buckets:   buckets,
		Frequency: time.Second,
		Window:    10 * time.Second,
		Slide:     time.Second,
	}
}

func testDB(t *testing.T, distances ...float64) *minisql.DB {
	t.Helper()
	db := minisql.NewDB()
	if err := db.CreateTable("rides", []string{"distance"}); err != nil {
		t.Fatal(err)
	}
	for _, d := range distances {
		if err := db.Insert("rides", []minisql.Value{minisql.Number(d)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func testClient(t *testing.T, db *minisql.DB, params budget.Params) (*Client, []*captureSink) {
	t.Helper()
	sinks := []*captureSink{{}, {}}
	c, err := New(Config{
		ID:    "client-1",
		DB:    db,
		Sinks: []ShareSink{sinks[0], sinks[1]},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	signed := &query.Signed{Query: testQuery(t)}
	if err := c.Subscribe(signed, params); err != nil {
		t.Fatal(err)
	}
	return c, sinks
}

func truthfulParams() budget.Params {
	// p=1 disables randomization so tests can assert the exact vector.
	return budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
}

func TestNewValidation(t *testing.T) {
	db := testDB(t)
	if _, err := New(Config{DB: db, Sinks: []ShareSink{&captureSink{}, &captureSink{}}}); err == nil {
		t.Error("expected error for missing ID")
	}
	if _, err := New(Config{ID: "x", Sinks: []ShareSink{&captureSink{}, &captureSink{}}}); err == nil {
		t.Error("expected error for missing DB")
	}
	if _, err := New(Config{ID: "x", DB: db, Sinks: []ShareSink{&captureSink{}}}); err == nil {
		t.Error("expected error for a single proxy")
	}
	if _, err := New(Config{ID: "x", DB: db, Sinks: []ShareSink{&captureSink{}, &captureSink{}}, Reducer: Count + 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown reducer: %v, want ErrBadConfig", err)
	}
}

func TestAnswerWithoutSubscription(t *testing.T) {
	db := testDB(t, 1)
	c, err := New(Config{ID: "c", DB: db, Sinks: []ShareSink{&captureSink{}, &captureSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnswerOnce(0); !errors.Is(err, ErrNotSubscribed) {
		t.Errorf("AnswerOnce = %v", err)
	}
	if c.Query() != nil {
		t.Error("Query should be nil before Subscribe")
	}
}

func TestSubscribeVerifiesSignature(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 1)
	c, err := New(Config{ID: "c", DB: db, AnalystKey: pub,
		Sinks: []ShareSink{&captureSink{}, &captureSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	signed, err := query.Sign(testQuery(t), priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(signed, truthfulParams()); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	// Tampered query must be rejected.
	signed.Query.SQL = "SELECT distance FROM rides WHERE distance > 5"
	if err := c.Subscribe(signed, truthfulParams()); err == nil {
		t.Error("tampered query accepted")
	}
}

// TestSubscribeVerifiedRefusesZero: only a query that went through
// query.Verify subscribes.
func TestSubscribeVerifiedRefusesZero(t *testing.T) {
	c, err := New(Config{ID: "c", DB: testDB(t, 1), Sinks: []ShareSink{&captureSink{}, &captureSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubscribeVerified(query.Verified{}, truthfulParams()); !errors.Is(err, query.ErrInvalidQuery) {
		t.Fatalf("zero Verified: %v, want ErrInvalidQuery", err)
	}
	if c.Subscriptions() != 0 {
		t.Fatal("zero Verified subscribed")
	}
}

// TestMutatingSignedAfterVerifyChangesNoAnswer: once verified, rewriting
// the *Signed's SQL or buckets — before or after a client subscribes —
// changes none of its answers.
func TestMutatingSignedAfterVerifyChangesNoAnswer(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	answers := func(signed *query.Signed, mutate bool) [][]byte {
		v, err := query.Verify(signed, pub)
		if err != nil {
			t.Fatal(err)
		}
		sinks := []*copySink{{}, {}}
		c, err := New(Config{ID: "c", DB: testDB(t, 4.2), Seed: 3, Sinks: []ShareSink{sinks[0], sinks[1]}})
		if err != nil {
			t.Fatal(err)
		}
		if mutate {
			signed.Query.SQL = "SELECT distance FROM rides WHERE distance > 100"
		}
		if err := c.SubscribeVerified(v, params); err != nil {
			t.Fatal(err)
		}
		if mutate {
			signed.Query.Buckets[4] = query.RangeBucket{Lo: 100, Hi: 200}
		}
		for e := uint64(0); e < 6; e++ {
			if _, err := c.AnswerOnce(e); err != nil {
				t.Fatal(err)
			}
		}
		return joinedAnswers(t, sinks[0], sinks[1])
	}
	sign := func() *query.Signed {
		signed, err := query.Sign(testQuery(t), priv)
		if err != nil {
			t.Fatal(err)
		}
		return signed
	}
	want := answers(sign(), false)
	got := answers(sign(), true)
	if len(got) != len(want) || len(want) != 6 {
		t.Fatalf("%d answers after mutation, %d before; want 6", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("answer %d changed when the *Signed was rewritten after Verify", i)
		}
	}
}

func TestSubscribeRejectsBadInputs(t *testing.T) {
	db := testDB(t, 1)
	c, _ := New(Config{ID: "c", DB: db, Sinks: []ShareSink{&captureSink{}, &captureSink{}}})
	q := testQuery(t)
	q.SQL = "INSERT INTO rides VALUES (1)"
	if err := c.Subscribe(&query.Signed{Query: q}, truthfulParams()); err == nil {
		t.Error("non-SELECT accepted")
	}
	q2 := testQuery(t)
	q2.SQL = "SELECT FROM"
	if err := c.Subscribe(&query.Signed{Query: q2}, truthfulParams()); err == nil {
		t.Error("unparseable SQL accepted")
	}
	if err := c.Subscribe(&query.Signed{Query: testQuery(t)}, budget.Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestAnswerOnceProducesDecodableOneHot(t *testing.T) {
	db := testDB(t, 3.5) // bucket [3,4) → index 3
	c, sinks := testClient(t, db, truthfulParams())
	ok, err := c.AnswerOnce(5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("s=1 client must participate")
	}
	if sinks[0].count() != 1 || sinks[1].count() != 1 {
		t.Fatalf("shares: %d + %d", sinks[0].count(), sinks[1].count())
	}
	plain, err := xorcrypt.Join([]xorcrypt.Share{sinks[0].shares[0], sinks[1].shares[0]})
	if err != nil {
		t.Fatal(err)
	}
	var msg answer.Message
	if err := msg.UnmarshalBinary(plain); err != nil {
		t.Fatal(err)
	}
	if msg.Epoch != 5 {
		t.Errorf("epoch = %d", msg.Epoch)
	}
	if msg.QueryID != testQuery(t).QID.Uint64() {
		t.Error("wire query ID mismatch")
	}
	if msg.Answer.PopCount() != 1 {
		t.Fatalf("truthful answer should be one-hot, got %s", msg.Answer)
	}
	if set, _ := msg.Answer.Get(3); !set {
		t.Errorf("expected bucket 3, vector %s", msg.Answer)
	}
}

func TestAnswerUsesLastRowByDefault(t *testing.T) {
	db := testDB(t, 1.0, 9.5) // last row → bucket 9
	c, sinks := testClient(t, db, truthfulParams())
	if _, err := c.AnswerOnce(0); err != nil {
		t.Fatal(err)
	}
	plain, _ := xorcrypt.Join([]xorcrypt.Share{sinks[0].shares[0], sinks[1].shares[0]})
	var msg answer.Message
	if err := msg.UnmarshalBinary(plain); err != nil {
		t.Fatal(err)
	}
	if set, _ := msg.Answer.Get(9); !set {
		t.Errorf("expected bucket 9, vector %s", msg.Answer)
	}
}

func TestAnswerEmptyDBStillSendsZeroVector(t *testing.T) {
	db := testDB(t) // no rows
	c, sinks := testClient(t, db, truthfulParams())
	ok, err := c.AnswerOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("participation must not depend on data presence")
	}
	plain, _ := xorcrypt.Join([]xorcrypt.Share{sinks[0].shares[0], sinks[1].shares[0]})
	var msg answer.Message
	if err := msg.UnmarshalBinary(plain); err != nil {
		t.Fatal(err)
	}
	if msg.Answer.PopCount() != 0 {
		t.Errorf("no-data answer should be all-zero, got %s", msg.Answer)
	}
}

func TestSamplingControlsParticipation(t *testing.T) {
	db := testDB(t, 1)
	params := budget.Params{S: 0.3, RR: rr.Params{P: 1, Q: 0.5}}
	c, _ := testClient(t, db, params)
	const epochs = 5000
	participated := 0
	for e := uint64(0); e < epochs; e++ {
		ok, err := c.AnswerOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			participated++
		}
	}
	rate := float64(participated) / epochs
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("participation rate = %v, want ≈0.3", rate)
	}
	st := c.Stats()
	if st.EpochsSeen != epochs || st.Participated != int64(participated) || st.AnswersSent != int64(participated) {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesSent == 0 {
		t.Error("BytesSent not counted")
	}
}

func TestSinkFailurePropagates(t *testing.T) {
	db := testDB(t, 1)
	failing := &captureSink{fail: true}
	c, err := New(Config{ID: "c", DB: db, Sinks: []ShareSink{&captureSink{}, failing}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(&query.Signed{Query: testQuery(t)}, truthfulParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnswerOnce(0); err == nil {
		t.Error("expected sink failure to surface")
	}
}

func TestReducers(t *testing.T) {
	rows := &minisql.Rows{Rows: [][]minisql.Value{
		{minisql.Number(2)}, {minisql.Number(4)}, {minisql.Number(6)},
	}}
	if v, ok := ReduceLast(rows); !ok || v != "6" {
		t.Errorf("ReduceLast = %q, %v", v, ok)
	}
	if v, ok := ReduceSum(rows); !ok || v != "12" {
		t.Errorf("ReduceSum = %q, %v", v, ok)
	}
	if v, ok := ReduceMean(rows); !ok || v != "4" {
		t.Errorf("ReduceMean = %q, %v", v, ok)
	}
	if v, ok := ReduceCount(rows); !ok || v != "3" {
		t.Errorf("ReduceCount = %q, %v", v, ok)
	}
	empty := &minisql.Rows{}
	if _, ok := ReduceLast(empty); ok {
		t.Error("ReduceLast on empty should report no value")
	}
	if _, ok := ReduceSum(empty); ok {
		t.Error("ReduceSum on empty should report no value")
	}
	if v, ok := ReduceCount(empty); !ok || v != "0" {
		t.Errorf("ReduceCount empty = %q, %v", v, ok)
	}
	// Non-numeric rows are skipped by mean.
	mixed := &minisql.Rows{Rows: [][]minisql.Value{{minisql.Text("x")}}}
	if _, ok := ReduceMean(mixed); ok {
		t.Error("ReduceMean with no numeric rows should report no value")
	}
}

// copySink deep-copies submitted share payloads (the client reuses its
// split scratch across epochs, so retaining the slices would alias).
type copySink struct {
	payloads [][]byte
}

func (s *copySink) Submit(share xorcrypt.Share) error {
	s.payloads = append(s.payloads, append([]byte(nil), share.Payload...))
	return nil
}

// joinedAnswers XOR-joins the two sinks' share streams pairwise,
// recovering the plaintext answer message of each participating epoch.
func joinedAnswers(t *testing.T, a, b *copySink) [][]byte {
	t.Helper()
	if len(a.payloads) != len(b.payloads) {
		t.Fatalf("share streams diverge: %d vs %d", len(a.payloads), len(b.payloads))
	}
	out := make([][]byte, len(a.payloads))
	for i := range a.payloads {
		if len(a.payloads[i]) != len(b.payloads[i]) {
			t.Fatalf("share %d length mismatch", i)
		}
		j := make([]byte, len(a.payloads[i]))
		for k := range j {
			j[k] = a.payloads[i][k] ^ b.payloads[i][k]
		}
		out[i] = j
	}
	return out
}

// TestFastForwardReproducesCoinStream: a client restarted at epoch k and
// fast-forwarded must produce, for epochs k.., exactly the randomized
// answers the uninterrupted client produces — including across epochs
// the sampling decision skips (which consume no randomness).
func TestFastForwardReproducesCoinStream(t *testing.T) {
	// s < 1 exercises non-participating epochs; p < 1 makes the
	// randomizer actually consume coins.
	params := budget.Params{S: 0.7, RR: rr.Params{P: 0.9, Q: 0.6}}
	const epochs, resumeAt = 8, 3

	build := func() (*Client, []*copySink) {
		sinks := []*copySink{{}, {}}
		c, err := New(Config{
			ID:    "client-ff",
			DB:    testDB(t, 4.2),
			Sinks: []ShareSink{sinks[0], sinks[1]},
			Seed:  7,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		signed, err := query.Sign(testQuery(t), priv)
		if err != nil {
			t.Fatal(err)
		}
		v, err := query.Verify(signed, priv.Public().(ed25519.PublicKey))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SubscribeVerified(v, params); err != nil {
			t.Fatal(err)
		}
		return c, sinks
	}

	// Uninterrupted run over all epochs.
	full, fullSinks := build()
	participated := make([]bool, epochs)
	for e := uint64(0); e < epochs; e++ {
		ok, err := full.AnswerOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		participated[e] = ok
	}
	fullJoined := joinedAnswers(t, fullSinks[0], fullSinks[1])

	// How many answers belong to the epochs before the resume point?
	skipAnswers := 0
	anySkipped := false
	for e := 0; e < resumeAt; e++ {
		if participated[e] {
			skipAnswers++
		} else {
			anySkipped = true
		}
	}
	for e := resumeAt; e < epochs; e++ {
		if !participated[e] {
			anySkipped = true
		}
	}
	if !anySkipped {
		t.Fatal("test never exercised a skipped epoch; lower S")
	}

	// Restarted run: subscribe fresh, fast-forward, answer the rest.
	resumed, resumedSinks := build()
	resumed.FastForward(0, resumeAt)
	for e := uint64(resumeAt); e < epochs; e++ {
		ok, err := resumed.AnswerOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		if ok != participated[e] {
			t.Fatalf("epoch %d participation diverged after fast-forward", e)
		}
	}
	resumedJoined := joinedAnswers(t, resumedSinks[0], resumedSinks[1])

	want := fullJoined[skipAnswers:]
	if len(resumedJoined) != len(want) {
		t.Fatalf("resumed run sent %d answers, want %d", len(resumedJoined), len(want))
	}
	for i := range want {
		if !bytes.Equal(resumedJoined[i], want[i]) {
			t.Fatalf("answer %d after fast-forward differs from uninterrupted run", i)
		}
	}

	// Without the fast-forward the coin streams must diverge somewhere —
	// otherwise this test proves nothing.
	cold, coldSinks := build()
	for e := uint64(resumeAt); e < epochs; e++ {
		if _, err := cold.AnswerOnce(e); err != nil {
			t.Fatal(err)
		}
	}
	coldJoined := joinedAnswers(t, coldSinks[0], coldSinks[1])
	same := len(coldJoined) == len(want)
	if same {
		for i := range want {
			if !bytes.Equal(coldJoined[i], want[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("skipping FastForward changed nothing; the test workload is degenerate")
	}
}

// TestShedPreservesCoinStream is the client-side determinism property
// of load shedding: a shed-suppressed epoch must consume exactly the
// randomness a full answer would, so on every epoch the shedding client
// *does* answer, its transmitted plaintext is identical to an unshed
// twin's. (Shares are compared post-join — the XOR keystream is not
// seed-derived, only the plaintext is.)
func TestShedPreservesCoinStream(t *testing.T) {
	params := budget.Params{S: 0.8, RR: rr.Params{P: 0.75, Q: 0.5}}
	id := testQuery(t).QID
	build := func() (*Client, []*copySink) {
		sinks := []*copySink{{}, {}}
		c, err := New(Config{
			ID:    "client-1",
			DB:    testDB(t, 3.5),
			Sinks: []ShareSink{sinks[0], sinks[1]},
			Seed:  7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(&query.Signed{Query: testQuery(t)}, params); err != nil {
			t.Fatal(err)
		}
		return c, sinks
	}
	shedder, shedSinks := build()
	plain, plainSinks := build()
	if !shedder.SetShed(id, 0.4) {
		t.Fatal("SetShed on active query returned false")
	}
	if shedder.SetShed(query.ID{Analyst: "ghost", Serial: 1}, 0.4) {
		t.Fatal("SetShed on unknown query returned true")
	}
	shedder.SetShed(id, 1)

	const epochs = 40
	shedFrom, shedTo := uint64(10), uint64(25)
	for e := uint64(0); e < epochs; e++ {
		if e == shedFrom {
			shedder.SetShed(id, 0.4)
		}
		if e == shedTo {
			shedder.SetShed(id, 1)
		}
		if _, err := shedder.AnswerOnce(e); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.AnswerOnce(e); err != nil {
			t.Fatal(err)
		}
	}

	shedStats, plainStats := shedder.Stats(), plain.Stats()
	if shedStats.Shedded == 0 {
		t.Fatal("shed window suppressed nothing — test is vacuous")
	}
	if shedStats.AnswersSent+shedStats.Shedded != plainStats.AnswersSent {
		t.Fatalf("shedder sent %d + shed %d, plain sent %d — base participation diverged",
			shedStats.AnswersSent, shedStats.Shedded, plainStats.AnswersSent)
	}

	decodeByEpoch := func(joined [][]byte) map[uint64][]byte {
		out := make(map[uint64][]byte, len(joined))
		for _, raw := range joined {
			var msg answer.Message
			if err := msg.UnmarshalBinary(raw); err != nil {
				t.Fatalf("joined plaintext undecodable: %v", err)
			}
			out[msg.Epoch] = raw
		}
		return out
	}
	shedAnswers := decodeByEpoch(joinedAnswers(t, shedSinks[0], shedSinks[1]))
	plainAnswers := decodeByEpoch(joinedAnswers(t, plainSinks[0], plainSinks[1]))
	if len(shedAnswers) >= len(plainAnswers) {
		t.Fatalf("shed run answered %d epochs, unshed %d — shedding removed nothing",
			len(shedAnswers), len(plainAnswers))
	}
	for e, raw := range shedAnswers {
		want, ok := plainAnswers[e]
		if !ok {
			t.Fatalf("epoch %d: shed run answered but unshed run did not — shed set not nested", e)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("epoch %d: shed run's answer differs from unshed twin — rz stream shifted", e)
		}
	}
}

// The answer path — scan, fold, typed bucketize — must transmit the
// bucket the materialising composition it replaced selects:
// QueryPrepared, then the Reduce* adapter, then Buckets.Index on the
// rendered value. Every reduction, over the TestReducers fixtures and
// the kinds a column can hold.
func TestAnswerPathMatchesMaterialisedComposition(t *testing.T) {
	fixtures := map[string][]minisql.Value{
		"numbers":   {minisql.Number(2), minisql.Number(4), minisql.Number(6)},
		"empty":     {},
		"text":      {minisql.Text("x")},
		"mixed":     {minisql.Number(1.5), minisql.Text("x"), minisql.Text("2.5"), minisql.Null(), minisql.Bool(true)},
		"null last": {minisql.Number(3), minisql.Null()},
		"spaced":    {minisql.Text(" 3.5")},
		"overflow":  {minisql.Number(7), minisql.Number(9)},
	}
	adapters := map[Reducer]func(*minisql.Rows) (string, bool){
		Last: ReduceLast, Sum: ReduceSum, Mean: ReduceMean, Count: ReduceCount,
	}
	q := testQuery(t)
	sel, err := minisql.Parse(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	for name, values := range fixtures {
		db := testDB(t)
		for _, v := range values {
			if err := db.Insert("rides", []minisql.Value{v}); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := db.QueryPrepared(sel.(*minisql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		for kind, adapter := range adapters {
			want := -1
			if value, ok := adapter(rows); ok {
				want = q.Buckets.Index(value)
			}

			sinks := []*captureSink{{}, {}}
			c, err := New(Config{ID: "client-1", DB: db, Sinks: []ShareSink{sinks[0], sinks[1]}, Seed: 7, Reducer: kind})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Subscribe(&query.Signed{Query: q}, truthfulParams()); err != nil {
				t.Fatal(err)
			}
			// Twice: the second epoch runs on the plan the first one bound.
			for epoch := uint64(0); epoch < 2; epoch++ {
				if _, err := c.AnswerOnce(epoch); err != nil {
					t.Fatal(err)
				}
				plain, err := xorcrypt.Join([]xorcrypt.Share{sinks[0].shares[epoch], sinks[1].shares[epoch]})
				if err != nil {
					t.Fatal(err)
				}
				var msg answer.Message
				if err := msg.UnmarshalBinary(plain); err != nil {
					t.Fatal(err)
				}
				got := -1
				for i := 0; i < msg.Answer.Len(); i++ {
					if set, _ := msg.Answer.Get(i); set {
						if got >= 0 {
							t.Fatalf("%s/%d: answer %s is not one-hot", name, kind, msg.Answer)
						}
						got = i
					}
				}
				if got != want {
					t.Errorf("%s, reducer %d, epoch %d: answered bucket %d, the materialised composition selects %d", name, kind, epoch, got, want)
				}
			}
		}
	}
}

// The table may appear after the subscription: the plan binds on the
// first epoch that finds it, and an epoch before that fails as the
// interpreter did.
func TestSubscribeBeforeTableExists(t *testing.T) {
	db := minisql.NewDB()
	c, sinks := testClient(t, db, truthfulParams())
	if _, err := c.AnswerOnce(0); !errors.Is(err, minisql.ErrNoTable) {
		t.Fatalf("before CREATE: %v, want ErrNoTable", err)
	}
	if err := db.CreateTable("rides", []string{"distance"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("rides", []minisql.Value{minisql.Number(3.5)}); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.AnswerOnce(1); err != nil || !ok {
		t.Fatalf("after CREATE: ok=%v err=%v", ok, err)
	}
	if sinks[0].count() != 1 {
		t.Errorf("shares sent: %d, want 1", sinks[0].count())
	}
}
