package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/pubsub"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
	"privapprox/internal/xorcrypt"
)

// Failure injection: the threat model (§2.2) allows malicious clients
// and flaky proxies; these tests check the aggregator degrades
// gracefully instead of corrupting results.

// TestMaliciousGarbageSharesDoNotPoisonResults injects clients that
// send undecodable payloads alongside honest clients, and one record
// whose key is not a MID ahead of a second honest epoch: the drain polls
// that record with the honest shares behind it and must submit every
// one of them.
func TestMaliciousGarbageSharesDoNotPoisonResults(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	const honest = 50
	sys, err := New(taxiSystemConfig(t, honest, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys, 21, 20)

	// Honest epoch.
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// A malicious "client" floods both proxies with garbage shares.
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		shares, err := splitter.Split([]byte("!!not-a-valid-answer-message!!"))
		if err != nil {
			t.Fatal(err)
		}
		for j, sh := range shares {
			if err := sys.Fleet().Proxy(j).SubmitBatch([]xorcrypt.Share{sh}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A record with a 3-byte key carries no share; the second honest
	// epoch lands behind it in the same partition and the same poll.
	px := sys.Fleet().Proxy(0)
	noShare := pubsub.Columns{Count: 1, KeyLen: 3, ValLen: 8, Keys: []byte("mid"), Vals: []byte("no share")}
	if err := px.Broker().PublishColumns(px.Topic(), noShare, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no window fired")
	}
	// Windows span 4 epochs; two ran, so responses = 2 × honest.
	if results[0].Responses != 2*honest {
		t.Errorf("responses = %d, want %d (garbage excluded)", results[0].Responses, 2*honest)
	}
	st := sys.Aggregator().Stats()
	if st.Decoded != 2*honest {
		t.Errorf("decoded = %d, want %d", st.Decoded, 2*honest)
	}
	if st.Malformed != 21 {
		t.Errorf("malformed = %d, want 21 (20 garbage messages, 1 keyless record)", st.Malformed)
	}
}

// TestReplayedSharesRejected replays a full honest message.
func TestReplayedSharesRejected(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	q, err := workload.TaxiQuery("analyst", 1, time.Second, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := taxiSystemConfig(t, 10, params)
	cfg.Query = q
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys, 3, 3)

	// Craft one honest-looking message and submit it twice via the
	// proxies (a replay attack on the answer stream).
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := answer.OneHot(len(q.Buckets), 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := splitter.Split(raw)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ { // original + two replays
		for j, sh := range shares {
			if err := sys.Fleet().Proxy(j).SubmitBatch([]xorcrypt.Share{sh}); err != nil {
				t.Fatal(err)
			}
		}
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("windows = %d", len(results))
	}
	if results[0].Responses != 1 {
		t.Errorf("responses = %d, want 1 (replays rejected)", results[0].Responses)
	}
	if sys.Aggregator().Stats().Duplicates == 0 {
		t.Error("duplicate counter not incremented")
	}
}

// TestProxyShareLossLeavesPartialJoins drops one proxy's share stream
// entirely: messages never complete, the sweep reclaims them, and
// results simply have fewer responses.
func TestProxyShareLossLeavesPartialJoins(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	q, err := workload.TaxiQuery("analyst", 1, time.Second, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := taxiSystemConfig(t, 10, params)
	cfg.Query = q
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys, 5, 0)

	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := answer.OneHot(len(q.Buckets), 0)
	raw, _ := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	// 5 messages lose their key share (only proxy 0 receives data).
	for i := 0; i < 5; i++ {
		shares, err := splitter.Split(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Fleet().Proxy(0).SubmitBatch([]xorcrypt.Share{shares[0]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Aggregator().PendingJoins(); got != 5 {
		t.Fatalf("pending joins = %d, want 5", got)
	}
	// The first advance starts the joiner's clock; two more, each more
	// than a retain horizon on, reclaim memory.
	for _, ahead := range []time.Duration{0, 48 * time.Hour, 96 * time.Hour} {
		if _, err := sys.Aggregator().AdvanceTo(time.Now().Add(ahead)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Aggregator().PendingJoins(); got != 0 {
		t.Errorf("pending joins after sweep = %d", got)
	}
	if sys.Aggregator().Stats().Decoded != 0 {
		t.Errorf("decoded = %d, want 0 — incomplete joins never decode", sys.Aggregator().Stats().Decoded)
	}
}

// TestBiasedClientsShiftOnlyTheirMass models result-distortion clients
// (§2.2 threat model): k dishonest clients always report the last
// bucket. The aggregator cannot detect this (by design — answers are
// anonymous), but honest buckets remain accurate.
func TestBiasedClientsShiftOnlyTheirMass(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	q, err := workload.TaxiQuery("analyst", 1, time.Second, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const honest, biased = 90, 10
	exactHonest := make([]int, len(q.Buckets))
	sys, err := New(Config{
		Clients: honest,
		Query:   q,
		Params:  &params,
		Seed:    5,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			if err := workload.PopulateTaxi(db, rng, 1, time.Unix(0, 0), time.Minute); err != nil {
				return err
			}
			rows, err := db.Query("SELECT distance FROM rides")
			if err != nil {
				return err
			}
			if idx := q.Buckets.Index(rows.Rows[0][0].String()); idx >= 0 {
				exactHonest[idx]++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys, 10, 10)
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// Biased clients inject well-formed answers for the last bucket.
	splitter, _ := xorcrypt.NewSplitter(2, nil, nil)
	last := len(q.Buckets) - 1
	for i := 0; i < biased; i++ {
		vec, _ := answer.OneHot(len(q.Buckets), last)
		raw, _ := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
		shares, _ := splitter.Split(raw)
		for j, sh := range shares {
			if err := sys.Fleet().Proxy(j).SubmitBatch([]xorcrypt.Share{sh}); err != nil {
				t.Fatal(err)
			}
		}
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Responses != honest+biased {
		t.Fatalf("responses = %d", res.Responses)
	}
	// The scale-up factor is (honest+biased slots)/(honest+biased
	// answers) = 1 here since population counts only honest clients...
	// responses exceed slots, so effPopulation = responses and counts
	// are raw. Bucket 0's count must match the honest ground truth.
	if math.Abs(res.Buckets[0].Estimate.Estimate-float64(exactHonest[0])) > 1e-9 {
		t.Errorf("bucket 0 = %v, want %v", res.Buckets[0].Estimate.Estimate, exactHonest[0])
	}
	// The attacked bucket gained exactly the biased mass.
	wantLast := float64(exactHonest[last] + biased)
	if math.Abs(res.Buckets[last].Estimate.Estimate-wantLast) > 1e-9 {
		t.Errorf("bucket %d = %v, want %v", last, res.Buckets[last].Estimate.Estimate, wantLast)
	}
}

// TestLateAnswersAreDropped delivers an answer for a long-closed epoch.
func TestLateAnswersAreDropped(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	q, err := workload.TaxiQuery("analyst", 1, time.Second, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := taxiSystemConfig(t, 5, params)
	cfg.Query = q
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys, 1, 1)
	// Run epochs 0..4, then advance the watermark well past them.
	for e := 0; e < 5; e++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	dropBefore := sys.Aggregator().Stats().Decoded
	// A straggler answer for epoch 0 arrives now.
	splitter, _ := xorcrypt.NewSplitter(2, nil, nil)
	vec, _ := answer.OneHot(len(q.Buckets), 0)
	raw, _ := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	shares, _ := splitter.Split(raw)
	for j, sh := range shares {
		if err := sys.Fleet().Proxy(j).SubmitBatch([]xorcrypt.Share{sh}); err != nil {
			t.Fatal(err)
		}
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// The late answer decodes but must not resurrect the closed window.
	if sys.Aggregator().Stats().Decoded != dropBefore+1 {
		t.Errorf("decoded = %d", sys.Aggregator().Stats().Decoded)
	}
	for _, res := range results {
		if res.Window.Start.Before(EpochStart(sys, 1)) && res.Responses > 5 {
			t.Errorf("late answer leaked into closed window %v", res.Window)
		}
	}
}

// EpochStart exposes the event-time origin arithmetic for tests.
func EpochStart(s *System, epoch uint64) time.Time {
	return s.cfg.Origin.Add(time.Duration(epoch) * s.cfg.Query.Frequency)
}
