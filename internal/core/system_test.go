package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/role"
	"privapprox/internal/rr"
	"privapprox/internal/telemetry"
	"privapprox/internal/workload"
)

func taxiSystemConfig(t *testing.T, clients int, params budget.Params) Config {
	t.Helper()
	q, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Clients: clients,
		Proxies: 2,
		Query:   q,
		Params:  &params,
		Seed:    42,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
		},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for zero clients")
	}
	q, _ := workload.TaxiQuery("a", 1, time.Second, time.Second, time.Second)
	if _, err := New(Config{Clients: 5, Query: q, Proxies: 1}); err == nil {
		t.Error("expected error for one proxy")
	}
}

func TestEndToEndExactWithoutNoise(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	const clients = 60
	sys, err := New(taxiSystemConfig(t, clients, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)

	if sys.Params().S != 1 {
		t.Fatalf("params = %+v", sys.Params())
	}
	// Run 4 epochs (one full window) and flush.
	var all []aggregator.Result
	for e := 0; e < 4; e++ {
		res, participants, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if participants != clients {
			t.Fatalf("epoch %d: %d participants, want all %d", e, participants, clients)
		}
		all = append(all, res...)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, final...)
	if len(all) == 0 {
		t.Fatal("no windows fired")
	}
	// With s=1, p=1 each window's total answers = clients × epochs in
	// window, and per-bucket estimates are integers summing to that.
	res := all[0]
	if res.Responses != clients*4 {
		t.Errorf("responses = %d, want %d", res.Responses, clients*4)
	}
	total := 0.0
	for _, b := range res.Buckets {
		total += b.Estimate.Estimate
		if b.Estimate.Margin > 1e-9 {
			t.Errorf("bucket %q margin = %v, want 0", b.Label, b.Estimate.Margin)
		}
	}
	if math.Abs(total-float64(clients*4)) > 1e-6 {
		t.Errorf("bucket totals = %v, want %d", total, clients*4)
	}
	if sys.Aggregator().Stats().Malformed != 0 {
		t.Errorf("malformed = %d", sys.Aggregator().Stats().Malformed)
	}
}

func TestEndToEndWithNoiseRecoversDistribution(t *testing.T) {
	params := budget.Params{S: 0.9, RR: rr.Params{P: 0.9, Q: 0.6}}
	const clients = 2000
	sys, err := New(taxiSystemConfig(t, clients, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	var fired []aggregator.Result
	for e := 0; e < 4; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, res...)
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no windows fired")
	}
	windowsConserved(t, sys, append(fired, results...))
	res := results[0]
	// The taxi workload puts ~33.6% of rides in bucket [0,1). The
	// estimate (normalized) should land near that.
	total := 0.0
	for _, b := range res.Buckets {
		total += b.Estimate.Estimate
	}
	if total <= 0 {
		t.Fatal("degenerate totals")
	}
	frac := res.Buckets[0].Estimate.Estimate / total
	if math.Abs(frac-workload.TaxiFirstBucketFraction) > 0.08 {
		t.Errorf("bucket-0 fraction = %v, want ≈%v", frac, workload.TaxiFirstBucketFraction)
	}
}

func TestBudgetDrivenInitializer(t *testing.T) {
	q, err := workload.TaxiQuery("analyst", 2, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{
		Clients: 100,
		Query:   q,
		Budget:  &budget.Budget{EpsilonZK: 1.5, Q: 0.6},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	ezk, err := sys.Params().EpsilonZK()
	if err != nil {
		t.Fatal(err)
	}
	if ezk > 1.5+1e-9 {
		t.Errorf("derived ε_zk = %v exceeds budget", ezk)
	}
}

func TestHistoricalStoreAndBatchAnalytics(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := taxiSystemConfig(t, 40, params)
	cfg.StoreDir = t.TempDir()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	for e := 0; e < 3; e++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	// Batch-analyze the stored responses over all time.
	aggCfg := aggregator.Config{
		Query:      cfg.Query,
		Params:     params,
		Population: 40,
		Proxies:    2,
		Origin:     time.Unix(1_700_000_000, 0),
		Seed:       3,
	}
	src := func(fn func(ts time.Time, payload []byte) error) error {
		_, err := sys.Store().Scan(time.Unix(0, 0), time.Unix(1<<40, 0), fn)
		return err
	}
	res, err := aggregator.BatchAnalyze(aggCfg, src, time.Unix(0, 0), time.Unix(1<<40, 0), 1.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 120 || res.Kept != 120 {
		t.Errorf("scanned=%d kept=%d, want 120/120", res.Scanned, res.Kept)
	}
	total := 0.0
	for _, b := range res.Buckets {
		total += b.Estimate.Estimate
	}
	// 120 stored answers over 3 epochs × 40 clients = 120 answer slots:
	// a fully sampled range, so the totals are exact.
	if math.Abs(total-120) > 1e-6 {
		t.Errorf("batch totals = %v, want 120", total)
	}
	// Second-round sampling keeps fewer and widens intervals.
	res2, err := aggregator.BatchAnalyze(aggCfg, src, time.Unix(0, 0), time.Unix(1<<40, 0), 0.5, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Kept >= res2.Scanned {
		t.Errorf("second sampling kept everything: %d of %d", res2.Kept, res2.Scanned)
	}
}

func TestFeedbackRaisesSamplingUnderError(t *testing.T) {
	params := budget.Params{S: 0.2, RR: rr.Params{P: 0.5, Q: 0.6}}
	sys, err := New(taxiSystemConfig(t, 200, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if err := sys.EnableFeedback(0.02, 0.05, 0.95); err != nil {
		t.Fatal(err)
	}
	// Run a window, then feed its (noisy, high-error) result back.
	for e := 0; e < 4; e++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	before := sys.Params().S
	after, err := sys.Feedback(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.S <= before {
		t.Errorf("s did not rise under high error: %v -> %v", before, after.S)
	}
	// Clients keep answering under the new parameters.
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}

func TestFeedbackWithoutEnableErrors(t *testing.T) {
	params := budget.Params{S: 0.5, RR: rr.Params{P: 0.5, Q: 0.6}}
	sys, err := New(taxiSystemConfig(t, 10, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if _, err := sys.Feedback(aggregator.Result{}); err == nil {
		t.Error("expected error without EnableFeedback")
	}
}

func TestSignedQueryReachesClients(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	sys, err := New(taxiSystemConfig(t, 3, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	for _, c := range sys.Clients() {
		if c.Query() == nil {
			t.Fatal("client missing query")
		}
		if c.Query().QID != (query.ID{Analyst: "analyst", Serial: 1}) {
			t.Errorf("client query QID = %v", c.Query().QID)
		}
	}
	if sys.Fleet().Size() != 2 {
		t.Errorf("fleet size = %d", sys.Fleet().Size())
	}
	if sys.Epoch() != 0 {
		t.Errorf("initial epoch = %d", sys.Epoch())
	}
}

// TestBoundedPartitionFreesAsDrainCommits: the system owns its drain
// loop, so it commits what it drained, and the commit is what frees room
// under a partition bound and releases the records. With every partition
// bounded to two epochs of shares, fifty fully drained epochs publish
// without one refusal (nothing used to commit, so the bound filled for
// good at the third epoch), and the share backlog after each drain is
// zero — not the log length since start. (The control topic's
// announcements are never committed: nothing reads them as shares.)
func TestBoundedPartitionFreesAsDrainCommits(t *testing.T) {
	const clients, epochs = 8, 50
	sys, err := New(taxiSystemConfig(t, clients, budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if err := sys.Fleet().SetCapacity(2 * clients); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if pending, err := sys.PendingShares(); err != nil || pending != 0 {
			t.Fatalf("epoch %d: share backlog after a full drain = %d (%v), want 0", e, pending, err)
		}
	}
	st := sys.Fleet().TotalStats()
	if st.Rejected != 0 {
		t.Errorf("Rejected = %d, want 0", st.Rejected)
	}
	// Four of the records are control announcements: the empty query set
	// and the registration, on each proxy's control topic.
	if want := int64(2*clients*epochs + 4); st.MessagesIn != want || sys.Aggregator().Stats().Decoded != clients*epochs {
		t.Errorf("published %d records, decoded %d answers; want %d and %d", st.MessagesIn, sys.Aggregator().Stats().Decoded, want, clients*epochs)
	}
	// The bounded drain commits too: its depth is what it left behind.
	if _, err := sys.AnswerEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, drained, err := sys.DrainUpTo(clients); err != nil || drained != clients {
		t.Fatalf("DrainUpTo(%d) drained %d: %v", clients, drained, err)
	}
	if got, err := sys.PendingShares(); err != nil || got != clients {
		t.Errorf("share backlog after draining %d of %d shares = %d (%v)", clients, 2*clients, got, err)
	}
}

// TestDrainDepthCountsSharesOnly: the depth a bounded drain records for
// the overload controller is the share backlog it left behind. The
// control topic's announcements sit uncommitted at every proxy for the
// system's lifetime and are not work the drain owes.
func TestDrainDepthCountsSharesOnly(t *testing.T) {
	const clients = 8
	sys, err := New(taxiSystemConfig(t, clients, budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if _, err := sys.AnswerEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, drained, err := sys.DrainUpTo(clients); err != nil || drained != clients {
		t.Fatalf("DrainUpTo(%d) drained %d: %v", clients, drained, err)
	}
	if backlog := sys.Fleet().TotalStats().TotalBacklog; backlog <= clients {
		t.Fatalf("broker backlog = %d: expected the undrained shares plus the control announcements", backlog)
	}
	spans := sys.Tracer().Spans(nil)
	if len(spans) != 1 {
		t.Fatalf("got %d epoch spans, want 1", len(spans))
	}
	if got := spans[0].Stages[telemetry.StageDrain].MaxDepth; got != clients {
		t.Errorf("drain depth = %d, want the %d shares left undrained", got, clients)
	}
}

// TestFeedbackReachesCards: once Feedback has moved a query's sampling
// fraction, the next window is estimated under it, and its result card
// reports the new fraction and the ε_zk that goes with it.
func TestFeedbackReachesCards(t *testing.T) {
	params := budget.Params{S: 0.2, RR: rr.Params{P: 0.5, Q: 0.6}}
	sys, err := New(taxiSystemConfig(t, 200, params))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if err := sys.EnableFeedback(0.02, 0.05, 0.95); err != nil {
		t.Fatal(err)
	}
	// The query's 4-epoch tumbling window [0s, 4s) fires once epoch 8's
	// answers push the watermark past its end.
	var fired []aggregator.Result
	for e := 0; e < 9 && len(fired) == 0; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		fired = res
	}
	if len(fired) == 0 {
		t.Fatal("no window fired")
	}
	next, err := sys.Feedback(fired[0])
	if err != nil {
		t.Fatal(err)
	}
	if next.S == params.S {
		t.Fatalf("feedback left s at %v; test is vacuous", next.S)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(final) == 0 {
		t.Fatal("flush fired no window")
	}
	cards := sys.Lineage().Cards(nil)
	last := cards[len(cards)-1]
	if last.WindowStart != final[len(final)-1].Window.Start.UnixNano() {
		t.Fatalf("newest card is for window %d, want the flushed %v", last.WindowStart, final[len(final)-1].Window.Start)
	}
	wantEps, err := next.EpsilonZK()
	if err != nil {
		t.Fatal(err)
	}
	if float64(last.Fraction) != next.S || float64(last.EpsilonZK) != wantEps {
		t.Errorf("card after feedback reports s=%v ε_zk=%v, want s=%v ε_zk=%v",
			float64(last.Fraction), float64(last.EpsilonZK), next.S, wantEps)
	}
}

// conserved fails t unless sys's share ledger balances (System.Conserve)
// once it has drained what its proxies still hold. injected[i] counts
// the share records a test published at proxy i past the clients, which
// the ledger counts with the answers. Deferred after Close's defer, it
// runs at the test's teardown.
func conserved(t *testing.T, sys *System, injected ...int64) {
	t.Helper()
	if _, err := sys.Flush(); err != nil {
		t.Error(err)
		return
	}
	answered, dropped, published, err := sys.ledger()
	if err != nil {
		t.Error(err)
		return
	}
	for i, n := range injected {
		dropped[i] -= n
	}
	if err := role.Conserve(answered, dropped, published, sys.drainer.Consumers(), sys.agg); err != nil {
		t.Error(err)
	}
}

// windowsConserved checks the sliding-window form of the ledger over
// every window a run fired (fired, its last Flush included): each decoded
// answer reached each window that covers it exactly once. role.Balance
// counts share units and cannot see a segment folded into its pane twice
// or never. A query's windows are whole multiples of its slide, so
// k = Window/Slide windows cover every event time, and per query
//
//	(decoded − late)·k ≤ Σ Responses ≤ decoded·k − late
//
// for a late answer misses at least the window whose fire made it late
// and at most all k of its windows; with no late answer Σ Responses is
// decoded·k exactly.
func windowsConserved(t *testing.T, sys *System, fired []aggregator.Result) {
	t.Helper()
	got := sampleMap(sys.TelemetrySnapshot())
	responses := make(map[query.ID]int64)
	for _, res := range fired {
		responses[res.Query] += int64(res.Responses)
	}
	for _, id := range sys.Registry().Active() {
		e, _ := sys.Registry().Entry(id)
		q := e.Signed.Query
		if q.Window%q.Slide != 0 {
			t.Fatalf("query %s: window %v is not a multiple of its slide %v", id, q.Window, q.Slide)
		}
		k := int64(q.Window / q.Slide)
		decoded := int64(got["privapprox_query_decoded_total{query="+id.String()+"}"])
		late := int64(got["privapprox_query_late_total{query="+id.String()+"}"])
		if n := responses[id]; n < (decoded-late)*k || n > decoded*k-late {
			t.Errorf("query %s: Σ window responses %d, want %d decoded × %d windows each, less %d late", id, n, decoded, k, late)
		}
	}
}
