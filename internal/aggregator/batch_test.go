package aggregator

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// storedAnswers builds an in-memory AnswerSource of n one-hot messages
// per epoch across the given epochs.
func storedAnswers(t *testing.T, cfg Config, perEpoch int, epochs int, bucketOf func(i int) int) AnswerSource {
	t.Helper()
	type rec struct {
		ts      time.Time
		payload []byte
	}
	var recs []rec
	nb := len(cfg.Query.Buckets)
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			var vec *answer.BitVector
			var err error
			if b := bucketOf(i); b >= 0 {
				vec, err = answer.OneHot(nb, b)
			} else {
				vec, err = answer.NewBitVector(nb)
			}
			if err != nil {
				t.Fatal(err)
			}
			msg := answer.Message{QueryID: cfg.Query.QID.Uint64(), Epoch: uint64(e), Answer: vec}
			raw, err := msg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec{ts: cfg.Origin.Add(time.Duration(e) * cfg.Query.Frequency), payload: raw})
		}
	}
	return func(fn func(ts time.Time, payload []byte) error) error {
		for _, r := range recs {
			if err := fn(r.ts, r.payload); err != nil {
				return err
			}
		}
		return nil
	}
}

func batchConfig(t *testing.T, population int) Config {
	t.Helper()
	return Config{
		Query:      testQuery(t, 4),
		Params:     budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}},
		Population: population,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       13,
	}
}

func TestBatchAnalyzeFullScanExact(t *testing.T) {
	cfg := batchConfig(t, 100)
	src := storedAnswers(t, cfg, 100, 3, func(i int) int { return i % 4 })
	res, err := BatchAnalyze(cfg, src, testOrigin, testOrigin.Add(time.Hour), 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 300 || res.Kept != 300 {
		t.Fatalf("scanned=%d kept=%d", res.Scanned, res.Kept)
	}
	for i, b := range res.Buckets {
		if math.Abs(b.Estimate.Estimate-75) > 1e-9 {
			t.Errorf("bucket %d = %v, want 75", i, b.Estimate.Estimate)
		}
		if b.Estimate.Margin > 1e-9 {
			t.Errorf("bucket %d margin = %v, want 0 at full scan without noise", i, b.Estimate.Margin)
		}
	}
}

func TestBatchAnalyzeTimeRangeFilters(t *testing.T) {
	cfg := batchConfig(t, 50)
	src := storedAnswers(t, cfg, 50, 4, func(i int) int { return 0 })
	// Only epochs 0 and 1 fall in [origin, origin+2×freq).
	to := testOrigin.Add(2 * cfg.Query.Frequency)
	res, err := BatchAnalyze(cfg, src, testOrigin, to, 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 100 {
		t.Errorf("scanned = %d, want 100", res.Scanned)
	}
	// 2 epochs × 50 clients, all bucket 0.
	if math.Abs(res.Buckets[0].Estimate.Estimate-100) > 1e-9 {
		t.Errorf("bucket 0 = %v, want 100", res.Buckets[0].Estimate.Estimate)
	}
}

func TestBatchAnalyzeSecondSamplingUnbiasedAndWider(t *testing.T) {
	cfg := batchConfig(t, 200)
	src := storedAnswers(t, cfg, 200, 2, func(i int) int { return i % 2 })
	full, err := BatchAnalyze(cfg, src, testOrigin, testOrigin.Add(time.Hour), 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := BatchAnalyze(cfg, src, testOrigin, testOrigin.Add(time.Hour), 0.4,
		rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kept >= sub.Scanned {
		t.Fatalf("second sampling kept %d of %d", sub.Kept, sub.Scanned)
	}
	// Estimate within 20% of the full-scan value, with a wider interval.
	f, s := full.Buckets[0].Estimate, sub.Buckets[0].Estimate
	if math.Abs(s.Estimate-f.Estimate)/f.Estimate > 0.2 {
		t.Errorf("subsampled estimate %v vs full %v", s.Estimate, f.Estimate)
	}
	if s.Margin <= f.Margin {
		t.Errorf("subsampled margin %v not wider than full %v", s.Margin, f.Margin)
	}
}

func TestBatchAnalyzeSkipsForeignAndCorrupt(t *testing.T) {
	cfg := batchConfig(t, 10)
	good := storedAnswers(t, cfg, 10, 1, func(i int) int { return 0 })
	src := func(fn func(ts time.Time, payload []byte) error) error {
		if err := fn(cfg.Origin, []byte("garbage")); err != nil {
			return err
		}
		foreign := answer.Message{QueryID: 999, Epoch: 0}
		foreign.Answer, _ = answer.NewBitVector(4)
		raw, _ := foreign.MarshalBinary()
		if err := fn(cfg.Origin, raw); err != nil {
			return err
		}
		return good(fn)
	}
	res, err := BatchAnalyze(cfg, src, testOrigin, testOrigin.Add(time.Hour), 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 10 {
		t.Errorf("kept = %d, want 10 (garbage and foreign skipped)", res.Kept)
	}
	if res.Scanned != 12 {
		t.Errorf("scanned = %d, want 12", res.Scanned)
	}
}

func TestBatchAnalyzeValidation(t *testing.T) {
	cfg := batchConfig(t, 10)
	src := storedAnswers(t, cfg, 1, 1, func(i int) int { return 0 })
	if _, err := BatchAnalyze(cfg, src, testOrigin, testOrigin.Add(time.Hour), 0, nil); err == nil {
		t.Error("expected error for zero sampling")
	}
	if _, err := BatchAnalyze(cfg, src, testOrigin, testOrigin.Add(time.Hour), 1.5, nil); err == nil {
		t.Error("expected error for sampling > 1")
	}
	bad := cfg
	bad.Population = 0
	if _, err := BatchAnalyze(bad, src, testOrigin, testOrigin.Add(time.Hour), 1, nil); err == nil {
		t.Error("expected config validation to propagate")
	}
}

func TestBatchAnalyzeRandomizedRecovers(t *testing.T) {
	// Store randomized answers and verify the batch estimator reverses
	// the noise: 60% of 4000 stored answers truthfully in bucket 0.
	cfg := batchConfig(t, 4000)
	cfg.Params = budget.Params{S: 1, RR: rr.Params{P: 0.6, Q: 0.6}}
	rng := rand.New(rand.NewSource(8))
	rz, err := rr.NewRandomizer(cfg.Params.RR, rng)
	if err != nil {
		t.Fatal(err)
	}
	nb := len(cfg.Query.Buckets)
	src := func(fn func(ts time.Time, payload []byte) error) error {
		for i := 0; i < 4000; i++ {
			vec, err := answer.NewBitVector(nb)
			if err != nil {
				return err
			}
			truth0 := i < 2400
			vec.Set(0, rz.Respond(truth0))
			vec.Set(1, rz.Respond(!truth0))
			msg := answer.Message{QueryID: cfg.Query.QID.Uint64(), Epoch: 0, Answer: vec}
			raw, err := msg.MarshalBinary()
			if err != nil {
				return err
			}
			if err := fn(cfg.Origin, raw); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := BatchAnalyze(cfg, src, testOrigin, testOrigin.Add(time.Hour), 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Buckets[0].Estimate.Estimate
	if math.Abs(got-2400)/2400 > 0.08 {
		t.Errorf("batch RR recovery = %v, want ≈2400", got)
	}
}

// TestEpochTime pins the event-time convention stored answers and
// windows share: epoch e is Origin + e×Frequency, so an epoch-3 answer
// fills exactly the window that starts there.
func TestEpochTime(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	a, err := New(testConfig(t, 4, params, 10))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := a.states.Load().single.q
	submitMessage(t, a, sp, q.QID.Uint64(), 3, 1, 4)
	res, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := testOrigin.Add(3 * q.Frequency)
	if len(res) != 1 || !res[0].Window.Start.Equal(want) || res[0].Responses != 1 {
		t.Fatalf("epoch 3 fired %+v, want one answer in the window at %v", res, want)
	}
}

func TestEstimateYesForWindow(t *testing.T) {
	params := rr.Params{P: 0.5, Q: 0.5}
	nat, err := EstimateYesForWindow(params, false, 60, 100)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := EstimateYesForWindow(params, true, 60, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nat+inv-100) > 1e-9 {
		t.Errorf("native %v + inverted %v should sum to n", nat, inv)
	}
}
