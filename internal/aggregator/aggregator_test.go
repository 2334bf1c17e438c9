package aggregator

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

var testOrigin = time.Unix(1_700_000_000, 0)

func testQuery(t *testing.T, nbuckets int) *query.Query {
	t.Helper()
	buckets, err := query.UniformRanges(0, float64(nbuckets), nbuckets, false)
	if err != nil {
		t.Fatal(err)
	}
	// Frequency equals the window: every client answers once per window,
	// so the answer-slot population equals the client population.
	return &query.Query{
		QID:       query.ID{Analyst: "a", Serial: 1},
		SQL:       "SELECT v FROM t",
		Buckets:   buckets,
		Frequency: 4 * time.Second,
		Window:    4 * time.Second,
		Slide:     4 * time.Second,
	}
}

func testConfig(t *testing.T, nbuckets int, params budget.Params, population int) Config {
	t.Helper()
	return Config{
		Query:      testQuery(t, nbuckets),
		Params:     params,
		Population: population,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       11,
	}
}

// submitMessage splits and submits one answer message end to end.
func submitMessage(t *testing.T, a *Aggregator, sp *xorcrypt.Splitter, qid, epoch uint64, bucket int, nbuckets int) []Result {
	t.Helper()
	var vec *answer.BitVector
	var err error
	if bucket >= 0 {
		vec, err = answer.OneHot(nbuckets, bucket)
	} else {
		vec, err = answer.NewBitVector(nbuckets)
	}
	if err != nil {
		t.Fatal(err)
	}
	msg := answer.Message{QueryID: qid, Epoch: epoch, Answer: vec}
	raw, err := msg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sp.Split(raw)
	if err != nil {
		t.Fatal(err)
	}
	var fired []Result
	for src, sh := range shares {
		res, err := submitOne(a, sh, src)
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, res...)
	}
	return fired
}

// submitOne submits a one-share batch: the per-share form of the one
// submit tail (join state ages once per call, so one share per call is
// exactly share-by-share submission).
func submitOne(a *Aggregator, sh xorcrypt.Share, src int) ([]Result, error) {
	return a.SubmitShareBatch([]xorcrypt.Share{sh}, src, time.Time{})
}

func TestNewValidation(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for nil query")
	}
	cfg := testConfig(t, 4, params, 0)
	if _, err := New(cfg); err == nil {
		t.Error("expected error for zero population")
	}
	cfg = testConfig(t, 4, params, 10)
	cfg.Proxies = 1
	if _, err := New(cfg); err == nil {
		t.Error("expected error for one proxy")
	}
	cfg = testConfig(t, 4, budget.Params{}, 10)
	if _, err := New(cfg); err == nil {
		t.Error("expected error for bad params")
	}
	cfg = testConfig(t, 4, params, 10)
	cfg.Confidence = 2
	if _, err := New(cfg); err == nil {
		t.Error("expected error for bad confidence")
	}
}

func TestExactRecoveryWithoutNoise(t *testing.T) {
	// s=1, p=1: the pipeline must recover exact counts with zero margin.
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	const nbuckets = 4
	const population = 30
	cfg := testConfig(t, nbuckets, params, population)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	qid := cfg.Query.QID.Uint64()
	// 30 clients in epoch 0: buckets 0,1,2 get 10 each.
	for i := 0; i < population; i++ {
		fired := submitMessage(t, a, sp, qid, 0, i%3, nbuckets)
		if len(fired) != 0 {
			t.Fatal("window fired early")
		}
	}
	results, err := a.AdvanceTo(testOrigin.Add(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("fired %d windows, want 1", len(results))
	}
	res := results[0]
	if res.Responses != population {
		t.Errorf("Responses = %d", res.Responses)
	}
	for i := 0; i < 3; i++ {
		b := res.Buckets[i]
		if math.Abs(b.Estimate.Estimate-10) > 1e-9 {
			t.Errorf("bucket %d estimate = %v, want 10", i, b.Estimate.Estimate)
		}
		if b.Estimate.Margin > 1e-9 {
			t.Errorf("bucket %d margin = %v, want 0 (full sample, no noise)", i, b.Estimate.Margin)
		}
		if b.ObservedYes != 10 {
			t.Errorf("bucket %d observed = %d", i, b.ObservedYes)
		}
	}
	if res.Buckets[3].Estimate.Estimate != 0 {
		t.Errorf("empty bucket estimate = %v", res.Buckets[3].Estimate.Estimate)
	}
	if a.Decoded() != population {
		t.Errorf("Decoded = %d", a.Decoded())
	}
}

func TestRandomizedRecoveryWithinMargin(t *testing.T) {
	// Realistic parameters: the estimate should land near the truth and
	// the interval should usually cover it.
	params := budget.Params{S: 1, RR: rr.Params{P: 0.6, Q: 0.6}}
	const nbuckets = 2
	const population = 4000
	cfg := testConfig(t, nbuckets, params, population)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rz, err := rr.NewRandomizer(params.RR, rng)
	if err != nil {
		t.Fatal(err)
	}
	qid := cfg.Query.QID.Uint64()
	const trueYes = 2400 // 60% in bucket 0
	for i := 0; i < population; i++ {
		truth0 := i < trueYes
		vec, _ := answer.NewBitVector(nbuckets)
		vec.Set(0, rz.Respond(truth0))
		vec.Set(1, rz.Respond(!truth0))
		msg := answer.Message{QueryID: qid, Epoch: 0, Answer: vec}
		raw, _ := msg.MarshalBinary()
		shares, _ := sp.Split(raw)
		for src, sh := range shares {
			if _, err := submitOne(a, sh, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	results, err := a.AdvanceTo(testOrigin.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("fired %d windows", len(results))
	}
	b0 := results[0].Buckets[0]
	loss := math.Abs(b0.Estimate.Estimate-trueYes) / trueYes
	if loss > 0.08 {
		t.Errorf("bucket 0 estimate %v too far from %v (loss %v)", b0.Estimate.Estimate, trueYes, loss)
	}
	if b0.Estimate.Margin <= 0 {
		t.Error("expected a positive margin under randomization")
	}
	if !b0.Estimate.Contains(trueYes) {
		t.Logf("interval [%v,%v] misses truth %v — allowed occasionally", b0.Estimate.Lo(), b0.Estimate.Hi(), trueYes)
	}
}

func TestSamplingScalesToPopulation(t *testing.T) {
	// Half the population answers (s=0.5): estimates scale by U/U'.
	params := budget.Params{S: 0.5, RR: rr.Params{P: 1, Q: 0.5}}
	const nbuckets = 2
	const population = 1000
	cfg := testConfig(t, nbuckets, params, population)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	qid := cfg.Query.QID.Uint64()
	const respondents = 500
	for i := 0; i < respondents; i++ {
		submitMessage(t, a, sp, qid, 0, i%2, nbuckets)
	}
	results, err := a.AdvanceTo(testOrigin.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	b0 := results[0].Buckets[0]
	if math.Abs(b0.Estimate.Estimate-500) > 1e-6 {
		t.Errorf("scaled estimate = %v, want 500", b0.Estimate.Estimate)
	}
	if b0.Estimate.Margin <= 0 {
		t.Error("sampling margin should be positive at s=0.5")
	}
}

func TestMalformedAndForeignMessagesCounted(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	// Garbage payload that joins but does not decode.
	shares, _ := sp.Split([]byte("not a message"))
	for src, sh := range shares {
		if _, err := submitOne(a, sh, src); err != nil {
			t.Fatal(err)
		}
	}
	if a.Malformed() != 1 {
		t.Errorf("Malformed = %d, want 1", a.Malformed())
	}
	// A valid message for a different query is rejected too — and
	// counted under its own demux counter, not lumped into Malformed.
	submitMessage(t, a, sp, 999999, 0, 1, 4)
	if a.Malformed() != 1 {
		t.Errorf("Malformed = %d, want 1", a.Malformed())
	}
	st := a.Stats()
	if st.UnknownQuery != 1 {
		t.Errorf("Stats.UnknownQuery = %d, want 1", st.UnknownQuery)
	}
	// Right query, wrong answer length: the message decodes but cannot
	// belong to the query's bucket layout.
	submitMessage(t, a, sp, cfg.Query.QID.Uint64(), 0, 1, 7)
	st = a.Stats()
	if st.LengthMismatch != 1 {
		t.Errorf("Stats.LengthMismatch = %d, want 1", st.LengthMismatch)
	}
	if got := st.Dropped(); got != 3 {
		t.Errorf("Stats.Dropped() = %d, want 3", got)
	}
	if a.Decoded() != 0 {
		t.Errorf("Decoded = %d, want 0", a.Decoded())
	}
}

func TestDuplicateSharesRejected(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	vec, _ := answer.OneHot(4, 0)
	raw, _ := (&answer.Message{QueryID: cfg.Query.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	shares, _ := sp.Split(raw)
	for src, sh := range shares {
		if _, err := submitOne(a, sh, src); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying a share of the completed message is rejected silently.
	if _, err := submitOne(a, shares[0], 0); err != nil {
		t.Fatal(err)
	}
	if a.Duplicates() != 1 {
		t.Errorf("Duplicates = %d, want 1", a.Duplicates())
	}
}

func TestPendingJoinsSweep(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	vec, _ := answer.OneHot(4, 0)
	raw, _ := (&answer.Message{QueryID: cfg.Query.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	shares, _ := sp.Split(raw)
	// Only one share arrives: a partial join.
	if _, err := submitOne(a, shares[0], 0); err != nil {
		t.Fatal(err)
	}
	if a.PendingJoins() != 1 {
		t.Fatalf("PendingJoins = %d", a.PendingJoins())
	}
	// A partial group waits one to two retain horizons: the first
	// advance starts the joiner's clock, the second — a horizon further
	// on — ages the group, the third expires it.
	for _, ahead := range []time.Duration{0, time.Hour, 2 * time.Hour} {
		if _, err := a.AdvanceTo(time.Now().Add(ahead)); err != nil {
			t.Fatal(err)
		}
	}
	if a.PendingJoins() != 0 {
		t.Errorf("stale join not swept: %d", a.PendingJoins())
	}
	if got := a.Stats().Swept; got != 1 {
		t.Errorf("Stats.Swept = %d, want 1", got)
	}
}

func TestSlidingWindowsOverlap(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 2, params, 100)
	cfg.Query.Window = 4 * time.Second
	cfg.Query.Slide = 2 * time.Second
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	qid := cfg.Query.QID.Uint64()
	// One answer at epoch 1 (event time origin+1s) lands in two windows.
	submitMessage(t, a, sp, qid, 1, 0, 2)
	results, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("answer appeared in %d windows, want 2", len(results))
	}
	for _, r := range results {
		if r.Responses != 1 {
			t.Errorf("window %v responses = %d", r.Window, r.Responses)
		}
	}
}

func TestInvertedQueryEstimatesNoCount(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 2, params, 10)
	cfg.Query = cfg.Query.Invert()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	qid := cfg.Query.QID.Uint64()
	// 10 clients, 3 with bucket-0 "Yes" → 7 truthful "No".
	for i := 0; i < 10; i++ {
		bucket := -1
		if i < 3 {
			bucket = 0
		}
		submitMessage(t, a, sp, qid, 0, bucket, 2)
	}
	results, err := a.AdvanceTo(testOrigin.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	b0 := results[0].Buckets[0]
	if !results[0].Inverted {
		t.Error("result should be marked inverted")
	}
	if math.Abs(b0.Estimate.Estimate-7) > 1e-9 {
		t.Errorf("inverted estimate = %v, want 7", b0.Estimate.Estimate)
	}
}

func TestEmptyWindowHasInfiniteMargin(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 2, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	// A single-answer window cannot estimate variance: its margin is
	// infinite, and RelativeWidth skips it.
	submitMessage(t, a, sp, cfg.Query.QID.Uint64(), 10, 0, 2)
	results, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("windows = %d", len(results))
	}
	if !math.IsInf(results[0].Buckets[0].Estimate.Margin, 1) {
		t.Errorf("single-answer margin = %v, want +Inf", results[0].Buckets[0].Estimate.Margin)
	}
	empty := Result{Buckets: []BucketEstimate{{}}}
	if !math.IsInf(RelativeWidth(empty), 1) {
		t.Error("RelativeWidth of empty result should be +Inf")
	}
	// With several answers split across buckets the width is finite.
	a2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		submitMessage(t, a2, sp, cfg.Query.QID.Uint64(), 0, i%2, 2)
	}
	results2, err := a2.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if w := RelativeWidth(results2[0]); math.IsInf(w, 1) || w < 0 {
		t.Errorf("RelativeWidth = %v", w)
	}
}
