package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/core"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/role"
)

// TestMultiProcessSmoke spawns the real networked deployment on
// loopback — two proxy processes, a submit step announcing the query
// set over the control topics, two client processes that pick the
// queries up dynamically, one aggregator process that builds its demux
// state from the same announcements — and asserts the aggregator's
// results and result cards are byte-identical to an in-process
// core.System multi-query run under the same seed conventions. This is
// the Fig. 3 deployment shape driven end to end through the query
// control plane.
func TestMultiProcessSmoke(t *testing.T) {
	runSmokeTest(t, 1, false)
}

// TestMultiProcessSmokeBounded is the same deployment behind
// -partition-cap: each proxy holds one partition bounded to exactly the
// shares of the first client process, and the aggregator runs while the
// clients publish. The second client process can only publish into the
// room the aggregator's commits have freed — without them the bound
// fills for good and its first flush is refused.
func TestMultiProcessSmokeBounded(t *testing.T) {
	runSmokeTest(t, 1, true)
}

// TestMultiProcessMultiQuerySmoke is the same deployment with two
// concurrent queries sharing the fleet — the networked half of the
// multi-query determinism gate (the in-process half, multi vs solo, is
// TestMultiQueryMatchesSolo in internal/core) and of the lineage gate
// (the in-process half, cards across Workers, is TestLineageGate).
func TestMultiProcessMultiQuerySmoke(t *testing.T) {
	runSmokeTest(t, 2, false)
}

func runSmokeTest(t *testing.T, numQueries int, bounded bool) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	const (
		clients = 6
		epochs  = 4
		seed    = 42
	)
	queriesFlag := fmt.Sprintf("-queries=%d", numQueries)
	partFlags := []string{"-partitions=4"}
	perProcess := int64(clients / 2 * epochs * numQueries) // shares one client process sends each proxy
	if bounded {
		partFlags = []string{"-partitions=1", fmt.Sprintf("-partition-cap=%d", perProcess)}
	}
	d := deploy(t, buildNode(t), partFlags)

	// Announce the query set (s=1: everyone participates, so the
	// decoded count is exact).
	d.run("submit", queriesFlag, "-s=1")

	aggArgs := []string{"-seed=42", fmt.Sprintf("-clients=%d", clients),
		fmt.Sprintf("-epochs=%d", epochs), "-conns=2", "-idle=5s", "-print-cards"}
	var agg *proc
	if bounded {
		// The aggregator drains while the clients publish.
		agg = d.start("aggregator", aggArgs...)
	}
	answered, dropped := d.clients(numQueries, epochs, func(offset int) {
		if bounded && offset > 0 {
			// Both bounds are full. Wait for the aggregator to commit the
			// first process's shares; only that makes room for the second's.
			for i, p := range d.proxy {
				awaitCommitted(t, p.addr, proxy.TopicFor(i), perProcess)
			}
		}
	})
	if !bounded {
		agg = d.start("aggregator", aggArgs...)
	}
	got := agg.wait(t)

	// The count line is exact at s=1: no sampling, no loss, no dupes,
	// and every decoded message demuxed to a known query.
	wantCounts := fmt.Sprintf("decoded=%d malformed=0 duplicates=0 unknown=0 mismatched=0",
		clients*epochs*numQueries)
	if !strings.Contains(got, wantCounts) {
		t.Errorf("aggregator output missing %q:\n%s", wantCounts, got)
	}
	// The share ledger over the processes' own counts, through the
	// arithmetic core.System's teardown checks: per proxy, the answers
	// sent less the shares dropped were fetched, and every fetched share
	// is in a join.
	st, fetched, pending := aggregatorLedger(t, got, len(d.proxy))
	if err := role.Balance(answered, dropped, fetched, st, pending); err != nil {
		t.Errorf("share ledger: %v\n%s", err, got)
	}

	// Reference: the same population in-process through core.System,
	// same seed conventions (core.Config: client i seed+i+2, aggregator
	// seed+1), same queries, params, and origin — the networked
	// pipeline must reproduce it byte for byte through the shared
	// result formatter, and card for card.
	want := inProcessReference(t, clients, epochs, seed, numQueries)
	if want == "" {
		t.Fatal("in-process reference produced no windows")
	}
	if !strings.Contains(got, want) {
		t.Errorf("networked results differ from in-process pipeline.\nwant:\n%s\ngot:\n%s", want, got)
	}
	wantCards := strings.Join(inProcessCards(t, clients, epochs, seed, numQueries, 1), "\n")
	if gotCards := strings.Join(cardsBlock(t, got), "\n"); gotCards != wantCards {
		t.Errorf("networked cards differ from in-process pipeline.\nwant:\n%s\ngot:\n%s", wantCards, gotCards)
	}
}

// TestMultiProcessSmokeQueryAddedMidRun: the aggregator follows the
// control topic from its start to its end. It starts on a one-query
// announcement, client process 0 answers that query, a restarted submit
// announces a second, and client process 3 answers both. Every answer
// decodes — the second query's too, none counted unknown — the share
// ledger balances over the processes' printed counts, and the second
// query fires windows. The aggregator's stop target covers six clients
// in both queries, more than were run, so it stops on -idle.
func TestMultiProcessSmokeQueryAddedMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	const epochs = 4
	d := deploy(t, buildNode(t), []string{"-partitions=4"})
	d.run("submit", "-queries=1", "-s=1")
	agg := d.start("aggregator", "-seed=42", "-clients=6", fmt.Sprintf("-epochs=%d", epochs), "-conns=2", "-idle=2s")
	agg.await(t, "aggregating 1 queries", 10*time.Second)
	answered, dropped := d.client(0, 1, epochs)
	d.run("submit", "-queries=2", "-s=1")
	answers, perProxy := d.client(3, 2, epochs)
	answered += answers
	for i, n := range perProxy {
		dropped[i] += n
	}
	got := agg.wait(t)

	if want := "decoded=36 malformed=0 duplicates=0 unknown=0 mismatched=0"; !strings.Contains(got, want) {
		t.Errorf("aggregator output missing %q:\n%s", want, got)
	}
	st, fetched, pending := aggregatorLedger(t, got, len(d.proxy))
	if err := role.Balance(answered, dropped, fetched, st, pending); err != nil {
		t.Errorf("share ledger: %v\n%s", err, got)
	}
	if !strings.Contains(got, "query "+nodeAnalyst+":2 window ") {
		t.Errorf("the query announced mid-run fired no window:\n%s", got)
	}
}

// TestSubmitRestartReachesClients restarts the submit role against the
// same proxies: the second submitter resumes from the newest snapshot
// on the control topic, so its re-registration of the query (s=0.5
// over s=1) is announced at version 2, and a client — whose applier
// takes only snapshots newer than the newest it has seen — picks that
// version up.
func TestSubmitRestartReachesClients(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	d := deploy(t, buildNode(t), []string{"-partitions=1"})
	first := d.run("submit", "-s=1")
	second := d.run("submit", "-s=0.5")
	client := d.run("client", "-seed=42", "-n=1", "-epochs=1")
	if !strings.Contains(client, "picked up 1 queries at version 2") {
		t.Errorf("client missed the restarted submitter's announcement:\n%s", client)
	}
	if !strings.Contains(first, "announced 1 queries at version 1") {
		t.Errorf("first submit:\n%s", first)
	}
	for _, want := range []string{"resumed from announcement version 1 (1 queries)", "announced 1 queries at version 2"} {
		if !strings.Contains(second, want) {
			t.Errorf("restarted submit missing %q:\n%s", want, second)
		}
	}
}

// awaitCommitted blocks until the aggregator group has committed offset
// want on partition 0 of a proxy's share topic.
func awaitCommitted(t *testing.T, addr, topic string, want int64) {
	t.Helper()
	cli, err := pubsub.DialOptions(addr, pubsub.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := cli.CommittedOffset("aggregator", topic, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregator committed %d of %d shares on %s: a bounded partition would stay full", got, want, topic)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inProcessSystem runs the single-process multi-query deployment the
// networked runs are compared with, under the node's seed conventions,
// and returns it with every fired window.
func inProcessSystem(t *testing.T, clients, epochs int, seed int64, numQueries, workers int) (*core.System, []aggregator.Result) {
	t.Helper()
	params := sharedParams(1, 0.9, 0.6)
	sys, err := core.New(core.Config{
		Clients:    clients,
		Proxies:    2,
		Partitions: 4,
		Params:     &params,
		Origin:     defaultOrigin,
		Seed:       seed,
		Workers:    workers,
		Populate: func(i int, db *minisql.DB) error {
			return populateClient(i, db)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	queries, err := nodeQueries(numQueries)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := sys.Register(q); err != nil {
			t.Fatal(err)
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
	res, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return sys, append(all, res...)
}

// inProcessReference renders every window the in-process deployment
// fires through the node's formatter.
func inProcessReference(t *testing.T, clients, epochs int, seed int64, numQueries int) string {
	t.Helper()
	_, results := inProcessSystem(t, clients, epochs, seed, numQueries, 0)
	return formatResults(results)
}
