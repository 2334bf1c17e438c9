package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
)

// multiQueryConfig is the shared fleet both the multi-query run and
// every solo reference run are built from — identical population, data,
// seed, and parameters; only the query set differs.
func multiQueryConfig(t *testing.T, clients int) Config {
	t.Helper()
	return Config{
		Clients: clients,
		Proxies: 3,
		Seed:    1234,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
		},
	}
}

// testQueries builds Q taxi queries with distinct serials and varied
// window geometries (different analysts every third query).
func testQueries(t *testing.T, n int) []*query.Query {
	t.Helper()
	analysts := []string{"alice", "bob", "carol"}
	out := make([]*query.Query, n)
	for i := range out {
		q, err := workload.TaxiQuery(analysts[i%len(analysts)], uint64(i+1),
			time.Second, time.Duration(2+i%3)*time.Second, time.Duration(2+i%3)*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// runMulti runs all queries concurrently over one shared fleet and
// returns the fired results grouped per query.
func runMulti(t *testing.T, cfg Config, params budget.Params, queries []*query.Query, epochs int) map[query.ID][]aggregator.Result {
	t.Helper()
	cfg.Params = &params
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	for _, q := range queries {
		if err := sys.Register(q); err != nil {
			t.Fatalf("register %s: %v", q.QID, err)
		}
	}
	var all []aggregator.Result
	for e := 0; e < epochs; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res...)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, final...)
	windowsConserved(t, sys, all)
	st := sys.Aggregator().Stats()
	if st.UnknownQuery != 0 || st.LengthMismatch != 0 || st.Malformed != 0 {
		t.Fatalf("multi-query run dropped messages: %+v", st)
	}
	return aggregator.ByQuery(all)
}

// runSolo runs one query alone, as the system's Config.Query, with the
// same seed and fleet shape.
func runSolo(t *testing.T, cfg Config, params budget.Params, q *query.Query, epochs int) []aggregator.Result {
	t.Helper()
	cfg.Query = q
	cfg.Params = &params
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	var all []aggregator.Result
	for e := 0; e < epochs; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res...)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, final...)
	windowsConserved(t, sys, all)
	return all
}

// TestMultiQueryMatchesSolo is the multi-query determinism gate: Q
// concurrent queries over one shared fleet must produce, for every
// query, results byte-identical to that query running alone in a
// system of its own under the same seed — per-query sampling,
// randomization, windowing, and estimation are fully independent even
// though clients, proxies, transport, and the aggregator's join are all
// shared.
func TestMultiQueryMatchesSolo(t *testing.T) {
	const (
		clients = 24
		epochs  = 7
	)
	params := budget.Params{S: 0.8, RR: rr.Params{P: 0.9, Q: 0.6}}
	queries := testQueries(t, 3)

	got := runMulti(t, multiQueryConfig(t, clients), params, queries, epochs)

	for _, q := range queries {
		want := runSolo(t, multiQueryConfig(t, clients), params, q, epochs)
		if len(want) == 0 {
			t.Fatalf("solo run of %s produced no windows", q.QID)
		}
		if !reflect.DeepEqual(got[q.QID], want) {
			t.Errorf("query %s: multi-query results differ from solo run\nmulti: %+v\nsolo:  %+v",
				q.QID, got[q.QID], want)
		}
	}
}

// TestMultiQueryRegisterAndStopMidRun exercises control-plane dynamics:
// a query registered mid-run starts producing from the next epoch, a
// stopped query flushes its windows and goes quiet, and the stopped
// query's in-flight shares surface in the demux statistics instead of
// vanishing.
func TestMultiQueryRegisterAndStopMidRun(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	queries := testQueries(t, 2)

	cfg := multiQueryConfig(t, 6)
	cfg.Params = &params
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)

	if err := sys.Register(queries[0]); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-run registration: picked up by every client at the next epoch.
	if err := sys.Register(queries[1]); err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.Clients() {
		if got := c.Subscriptions(); got != 2 {
			t.Fatalf("client %d has %d subscriptions, want 2", i, got)
		}
	}
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	// Mid-run stop: q0's windows flush now, clients drop it.
	flushed, err := sys.StopQuery(queries[0].QID)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range flushed {
		if res.Query != queries[0].QID {
			t.Fatalf("flushed window belongs to %s", res.Query)
		}
	}
	for i, c := range sys.Clients() {
		if got := c.Subscriptions(); got != 1 {
			t.Fatalf("client %d has %d subscriptions after stop, want 1", i, got)
		}
	}
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	// Only q1 remains registered.
	order := sys.Aggregator().QueryOrder()
	if n := sys.Aggregator().Stats().Queries; n != 1 || order(queries[0].QID) != math.MaxInt || order(queries[1].QID) == math.MaxInt {
		t.Fatalf("aggregator holds %d queries, want only %s", n, queries[1].QID)
	}
	// Double stop errors cleanly.
	if _, err := sys.StopQuery(queries[0].QID); err == nil {
		t.Fatal("second StopQuery succeeded")
	}
	// The stopped query's decoded answers stay visible after removal —
	// counters never move backwards across RemoveQuery.
	decodedBefore := sys.Aggregator().Stats().Decoded
	if decodedBefore == 0 {
		t.Fatal("no decoded answers recorded")
	}

	// Stopping the last query leaves an idle fleet; epochs must keep
	// running (zero participants), not error on unsubscribed clients.
	if _, err := sys.StopQuery(queries[1].QID); err != nil {
		t.Fatal(err)
	}
	res, participants, err := sys.RunEpoch()
	if err != nil {
		t.Fatalf("idle-fleet epoch: %v", err)
	}
	if participants != 0 || len(res) != 0 {
		t.Fatalf("idle-fleet epoch produced %d participants, %d results", participants, len(res))
	}
	if got := sys.Aggregator().Stats().Decoded; got != decodedBefore {
		t.Errorf("Decoded moved %d → %d across removals", decodedBefore, got)
	}
}

// TestMultiQueryIdleFleetStart pins that a system may start with no
// queries at all and run epochs until the first registration.
func TestMultiQueryIdleFleetStart(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := multiQueryConfig(t, 4)
	cfg.Params = &params
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if _, participants, err := sys.RunEpoch(); err != nil || participants != 0 {
		t.Fatalf("idle epoch: participants=%d err=%v", participants, err)
	}
	q := testQueries(t, 1)[0]
	if err := sys.Register(q); err != nil {
		t.Fatal(err)
	}
	if _, participants, err := sys.RunEpoch(); err != nil || participants != 4 {
		t.Fatalf("first active epoch: participants=%d err=%v", participants, err)
	}
}

// TestMultiQueryPerQueryFeedback pins per-query budget isolation: a
// high-error result for one query raises that query's sampling fraction
// and redistributes it through the control plane without touching the
// other query's parameters.
func TestMultiQueryPerQueryFeedback(t *testing.T) {
	params := budget.Params{S: 0.2, RR: rr.Params{P: 0.5, Q: 0.6}}
	queries := testQueries(t, 2)

	cfg := multiQueryConfig(t, 50)
	cfg.Params = &params
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	for _, q := range queries {
		if err := sys.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.EnableFeedback(0.02, 0.05, 0.95); err != nil {
		t.Fatal(err)
	}
	var results []aggregator.Result
	for e := 0; e < 5; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res...)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, final...)
	byQ := aggregator.ByQuery(results)
	if len(byQ[queries[0].QID]) == 0 {
		t.Fatal("no results for the first query")
	}
	after, err := sys.Feedback(byQ[queries[0].QID][0])
	if err != nil {
		t.Fatal(err)
	}
	if after.S <= params.S {
		t.Errorf("s did not rise under high error: %v -> %v", params.S, after.S)
	}
	// The other query's registered parameters are untouched.
	other, ok := sys.Registry().Entry(queries[1].QID)
	if !ok {
		t.Fatal("second query missing from registry")
	}
	if other.Params.S != params.S {
		t.Errorf("feedback for query 0 moved query 1's s to %v", other.Params.S)
	}
	// Clients keep answering under the redistributed parameters.
	if _, _, err := sys.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiQueryAdvanceTo: AdvanceTo works without a Config.Query. The
// watermark moves by the shortest active frequency, so it closes the
// fast query's window and never runs ahead of the slow query's epochs;
// on an idle fleet it is a no-op.
func TestMultiQueryAdvanceTo(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	origin := time.Unix(5000, 0)
	cfg := multiQueryConfig(t, 4)
	cfg.Params = &params
	cfg.Origin = origin
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	if res, err := sys.AdvanceTo(10); err != nil || len(res) != 0 {
		t.Fatalf("idle fleet: results=%v err=%v", res, err)
	}

	fast, err := workload.TaxiQuery("alice", 1, time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := workload.TaxiQuery("bob", 2, 2*time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*query.Query{fast, slow} {
		if err := sys.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs 0-3: fast answers at 0s..3s, slow at 0s..6s. Each query's
	// watermark trails its newest answer by its slide, so nothing fires.
	for e := 0; e < 4; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Fatalf("epoch %d fired %+v before any watermark passed a window end", e, res)
		}
	}
	// Epoch 4 at the shortest frequency is 4s: fast's watermark reaches
	// 2s and closes [0s,2s); slow has already seen 6s and does not move.
	res, err := sys.AdvanceTo(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Query != fast.QID ||
		!res[0].Window.Start.Equal(origin) || res[0].Responses != 8 {
		t.Fatalf("AdvanceTo(4) = %+v, want the fast query's [0s,2s) window with 8 responses", res)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	perQuery := aggregator.ByQuery(final)
	if len(perQuery[fast.QID]) != 1 || len(perQuery[slow.QID]) != 2 {
		t.Fatalf("Flush = %+v, want fast's [2s,4s) and both of slow's windows still open", final)
	}
}
