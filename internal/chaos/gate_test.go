package chaos_test

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/chaos"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/role"
	"privapprox/internal/rr"
	"privapprox/internal/wal"
	"privapprox/internal/workload"
)

// TestChaosGate is the make-chaos gate: the full multi-proxy TCP
// pipeline runs once fault-free, then once per seeded fault schedule —
// injected connection resets, dropped acks, duplicated deliveries, and
// a proxy stop/restart mid-run — and every faulted run must produce
// results byte-identical to the fault-free run. The producer sessions'
// broker-side dedup plus the client-side retry policy are what make
// that hold; the gate also asserts the brokers actually deduplicated
// replays (Stats.Duplicates > 0), so the schedules are known to have
// exercised the machinery rather than passing vacuously.
//
// The trim-then-redeliver schedule adds the aggregator to the fault
// window: it drains and commits after every delivery, so the broker has
// released the batch's records by the time the injected duplicate or the
// producer's retry of a dropped ack brings the same (producer, sequence)
// back. The session-dedup slots outlive the records they guard, so the
// redelivery is still absorbed and the results stay byte-identical.
func TestChaosGate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gate is a long test")
	}
	baseline := runPipeline(t, "baseline", chaos.Plan{}, false, false)
	if baseline.decoded == 0 || baseline.results == "" {
		t.Fatalf("fault-free run produced no results (decoded=%d)", baseline.decoded)
	}

	schedules := []struct {
		name string
		plan chaos.Plan
		kill bool
		trim bool
	}{
		{"resets-a", chaos.Plan{Seed: 101, Reset: 0.4}, false, false},
		{"resets-b", chaos.Plan{Seed: 102, Reset: 0.4}, false, false},
		{"ackdrops-a", chaos.Plan{Seed: 201, AckDrop: 0.4}, false, false},
		{"ackdrops-b", chaos.Plan{Seed: 202, AckDrop: 0.4}, false, false},
		{"duplicates-a", chaos.Plan{Seed: 301, Duplicate: 0.45}, false, false},
		{"duplicates-b", chaos.Plan{Seed: 302, Duplicate: 0.45}, false, false},
		{"mixed-a", chaos.Plan{Seed: 401, Reset: 0.15, AckDrop: 0.15, Duplicate: 0.15, Delay: 0.15}, false, false},
		{"mixed-b", chaos.Plan{Seed: 402, Reset: 0.15, AckDrop: 0.15, Duplicate: 0.15, Delay: 0.15}, false, false},
		{"proxy-restart", chaos.Plan{Seed: 501, AckDrop: 0.2, Duplicate: 0.2}, true, false},
		{"trim-then-redeliver", chaos.Plan{Seed: 601, AckDrop: 0.3, Duplicate: 0.3}, false, true},
	}
	var totalDuplicates int64
	for _, sc := range schedules {
		out := runPipeline(t, sc.name, sc.plan, sc.kill, sc.trim)
		if sc.trim && (out.duplicates == 0 || out.released == 0) {
			t.Errorf("%s: %d redeliveries deduplicated, %d partitions released; the schedule must put a redelivery behind a trim",
				sc.name, out.duplicates, out.released)
		}
		if out.injected == 0 {
			t.Errorf("%s: schedule injected no faults; raise probabilities or change the seed", sc.name)
		}
		if out.decoded != baseline.decoded {
			t.Errorf("%s: decoded %d answers, fault-free run decoded %d", sc.name, out.decoded, baseline.decoded)
		}
		if out.results != baseline.results {
			t.Errorf("%s: results diverged from fault-free run\n--- fault-free ---\n%s--- %s ---\n%s",
				sc.name, baseline.results, sc.name, out.results)
		}
		totalDuplicates += out.duplicates
		t.Logf("%s: faults=%d broker-dedup=%d decoded=%d", sc.name, out.injected, out.duplicates, out.decoded)
	}
	if totalDuplicates == 0 {
		t.Errorf("no schedule drove the brokers to dedup a replay; the gate did not exercise idempotence")
	}
}

const (
	gateSeed    = int64(1)
	gateClients = 6
	gateEpochs  = 4
	gateQueries = 2
	gateParts   = 2
)

var gateOrigin = time.Unix(1_700_000_000, 0)

type runOutput struct {
	results    string
	decoded    int64
	duplicates int64 // broker-side dedup count across proxies at the end
	injected   int64 // chaos faults fired across proxies
	released   int   // partitions whose memory floor a commit has moved past offset 0
}

// deliveryHook runs after every publish that reached the broker — below
// the fault injector, so an injected duplicate and the retry of a
// dropped ack both arrive after it has run.
type deliveryHook struct {
	pubsub.Transport
	delivered func()
}

func (d deliveryHook) PublishColumns(topic string, cols pubsub.Columns, pid, seq uint64) error {
	err := d.Transport.PublishColumns(topic, cols, pid, seq)
	if err == nil {
		d.delivered()
	}
	return err
}

// proxyProc is one in-process "proxy process": a durable broker served
// over TCP, stoppable and restartable on the same address and journal
// directory — the in-process analog of the crash harness's SIGKILLed
// node (whose WAL-durability half is covered by the crash gate; here
// the stop is graceful so byte-identity is about delivery, not fsync).
type proxyProc struct {
	index  int
	dir    string
	addr   string
	broker *pubsub.Broker
	srv    *pubsub.Server
	// in is what the brokers this process ran before its restart took
	// in (MessagesIn), which the reopened broker's counter does not see.
	in int64
}

func startProxy(t *testing.T, index int, dir, addr string) *proxyProc {
	t.Helper()
	b, err := pubsub.OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatalf("open broker %d: %v", index, err)
	}
	if err := b.CreateTopic(proxy.TopicFor(index), gateParts); err != nil && !errors.Is(err, pubsub.ErrTopicExists) {
		t.Fatalf("create topic: %v", err)
	}
	if err := b.CreateTopic(proxy.TopicControl, 1); err != nil && !errors.Is(err, pubsub.ErrTopicExists) {
		t.Fatalf("create control topic: %v", err)
	}
	srv, err := pubsub.Serve(b, addr)
	if err != nil {
		t.Fatalf("serve proxy %d: %v", index, err)
	}
	return &proxyProc{index: index, dir: dir, addr: srv.Addr(), broker: b, srv: srv}
}

func (p *proxyProc) stop(t *testing.T) {
	t.Helper()
	if err := p.srv.Close(); err != nil {
		t.Fatalf("close proxy %d server: %v", p.index, err)
	}
	p.in += p.broker.Stats().MessagesIn
	p.broker.Close()
}

func (p *proxyProc) restart(t *testing.T) {
	t.Helper()
	np := startProxy(t, p.index, p.dir, p.addr)
	p.broker, p.srv = np.broker, np.srv
}

// published returns the share records the proxy took in over its life:
// MessagesIn, less the control topic's announcements.
func (p *proxyProc) published(t *testing.T) int64 {
	t.Helper()
	end, err := p.broker.EndOffset(proxy.TopicControl, 0)
	if err != nil {
		t.Fatalf("proxy %d control topic: %v", p.index, err)
	}
	return p.in + p.broker.Stats().MessagesIn - end
}

func gateAnalystKey() (string, ed25519.PrivateKey) {
	const analyst = "chaos-analyst"
	var seed [ed25519.SeedSize]byte
	copy(seed[:], analyst)
	return analyst, ed25519.NewKeyFromSeed(seed[:])
}

// runPipeline drives one full run — announce, answer epochs through
// chaos-wrapped transports, drain, flush — and returns the canonical
// result text plus the fault and dedup counters. With trim set the
// aggregator drains and commits after every delivered batch instead of
// waiting for the last epoch.
func runPipeline(t *testing.T, name string, plan chaos.Plan, kill, trim bool) runOutput {
	t.Helper()
	dir := t.TempDir()

	procs := make([]*proxyProc, 2)
	addrs := make([]string, len(procs))
	for i := range procs {
		procs[i] = startProxy(t, i, filepath.Join(dir, fmt.Sprintf("proxy-%d", i)), "127.0.0.1:0")
		addrs[i] = procs[i].addr
	}
	defer func() {
		for _, p := range procs {
			p.srv.Close()
			p.broker.Close()
		}
	}()

	// Client-side transports: a pooled TCP client per proxy, wrapped in
	// the fault injector. Each proxy gets its own derived schedule seed
	// so the two fault streams are independent of call interleaving.
	var tcps []*pubsub.Client
	defer func() {
		for _, c := range tcps {
			c.Close()
		}
	}()
	transports := make([]pubsub.Transport, len(procs))
	injectors := make([]*chaos.Transport, len(procs))
	drainAndCommit := func() {} // set once the aggregator side exists
	for i, addr := range addrs {
		cli, err := pubsub.DialOptions(addr, pubsub.Options{Conns: 2, Seed: gateSeed + int64(i)})
		if err != nil {
			t.Fatalf("%s: dial proxy %d: %v", name, i, err)
		}
		tcps = append(tcps, cli)
		var inner pubsub.Transport = cli
		if trim {
			inner = deliveryHook{Transport: cli, delivered: func() { drainAndCommit() }}
		}
		p := plan
		p.Seed = plan.Seed + int64(i)*7919
		ct, err := chaos.Wrap(inner, p)
		if err != nil {
			t.Fatalf("%s: wrap transport: %v", name, err)
		}
		injectors[i] = ct
		transports[i] = ct
	}
	fleet, err := proxy.AttachFleet(transports)
	if err != nil {
		t.Fatalf("%s: attach fleet: %v", name, err)
	}
	// Generous attempts: the gate's fault probabilities make several
	// consecutive injected failures on one batch plausible, and a lost
	// batch would (correctly) break byte-identity.
	fleet.SetRetryPolicy(pubsub.RetryPolicy{
		Attempts:   12,
		Backoff:    time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       gateSeed,
	})

	// Announce the query set through every proxy's control topic.
	analyst, priv := gateAnalystKey()
	reg := engine.NewRegistry()
	if err := reg.Trust(analyst, priv.Public().(ed25519.PublicKey)); err != nil {
		t.Fatalf("%s: trust: %v", name, err)
	}
	if err := reg.AttachSink(fleet); err != nil {
		t.Fatalf("%s: attach sink: %v", name, err)
	}
	params := budget.Params{S: 0.9, RR: rr.Params{P: 0.9, Q: 0.6}}
	for i := range gateQueries {
		q, err := workload.TaxiQuery(analyst, uint64(i+1), time.Second, 4*time.Second, 4*time.Second)
		if err != nil {
			t.Fatalf("%s: build query: %v", name, err)
		}
		signed, err := query.Sign(q, priv)
		if err != nil {
			t.Fatalf("%s: sign: %v", name, err)
		}
		if err := reg.Register(signed, params); err != nil {
			t.Fatalf("%s: register: %v", name, err)
		}
	}

	// Clients: one batcher per proxy, epoch flushes as single frames.
	batchers := make([]*client.Batcher, fleet.Size())
	sinks := make([]client.ShareSink, fleet.Size())
	for i := range batchers {
		batchers[i] = client.NewBatcher(fleet.Proxy(i), 0)
		sinks[i] = batchers[i]
	}
	clients := make([]*client.Client, gateClients)
	subs := make([]engine.Subscriber, gateClients)
	for j := range clients {
		db := minisql.NewDB()
		rng := rand.New(rand.NewSource(int64(j) + 1))
		if err := workload.PopulateTaxi(db, rng, 3, time.Unix(0, 0), time.Minute); err != nil {
			t.Fatalf("%s: populate: %v", name, err)
		}
		c, err := client.New(client.Config{
			ID:    fmt.Sprintf("client-%06d", j),
			DB:    db,
			Sinks: sinks,
			Seed:  gateSeed + int64(j) + 2,
		})
		if err != nil {
			t.Fatalf("%s: client: %v", name, err)
		}
		clients[j] = c
		subs[j] = c
	}
	cc, err := fleet.Proxy(0).ControlConsumer("chaos-clients")
	if err != nil {
		t.Fatalf("%s: control consumer: %v", name, err)
	}
	follower := engine.NewFollower(cc, engine.NewApplier(subs...))
	if err := follower.WaitActive(gateQueries, 10*time.Second); err != nil {
		t.Fatalf("%s: wait for announcements: %v", name, err)
	}

	// Aggregator side: clean (fault-free) transports to the same
	// proxies and the aggregator role the node runs, which learns the
	// queries from proxy 0's control topic and drains in rounds: each
	// round polls both proxies and submits their shares in one call.
	var aggTcps []*pubsub.Client
	defer func() {
		for _, c := range aggTcps {
			c.Close()
		}
	}()
	aggTransports := make([]pubsub.Transport, len(procs))
	for i, addr := range addrs {
		cli, err := pubsub.DialOptions(addr, pubsub.Options{Conns: 2})
		if err != nil {
			t.Fatalf("%s: dial aggregator transport %d: %v", name, i, err)
		}
		aggTcps = append(aggTcps, cli)
		aggTransports[i] = cli
	}
	aggFleet, err := proxy.AttachFleet(aggTransports)
	if err != nil {
		t.Fatalf("%s: attach aggregator fleet: %v", name, err)
	}
	agg, err := aggregator.NewMulti(aggregator.Config{
		Population: gateClients,
		Proxies:    fleet.Size(),
		Origin:     gateOrigin,
		Seed:       gateSeed + 1,
	})
	if err != nil {
		t.Fatalf("%s: aggregator: %v", name, err)
	}
	consumers, err := aggFleet.Consumers("chaos-aggregator")
	if err != nil {
		t.Fatalf("%s: consumers: %v", name, err)
	}
	control, err := aggFleet.Proxy(0).ControlConsumer("chaos-aggregator-control")
	if err != nil {
		t.Fatalf("%s: aggregator control consumer: %v", name, err)
	}
	drain := role.NewDrain(agg, consumers, control)
	var results []aggregator.Result
	drainAndCommit = func() {
		fired, err := drain.Dry()
		results = append(results, fired...)
		if err != nil {
			t.Fatalf("%s: drain: %v", name, err)
		}
		if err := drain.Commit(); err != nil {
			t.Fatalf("%s: commit: %v", name, err)
		}
	}

	for e := uint64(0); e < gateEpochs; e++ {
		if _, err := follower.Sync(); err != nil {
			t.Fatalf("%s: epoch %d sync: %v", name, e, err)
		}
		for _, c := range clients {
			if _, err := c.AnswerOnce(e); err != nil {
				t.Fatalf("%s: epoch %d answer: %v", name, e, err)
			}
		}
		for i, b := range batchers {
			if err := b.Flush(); err != nil {
				t.Fatalf("%s: epoch %d flush proxy %d: %v", name, e, i, err)
			}
		}
		if kill && e == 1 {
			// Stop and restart proxy 1 on the same address and journal
			// between epochs: the journal replay must restore both the
			// share stream and the producer-session dedup state, and the
			// clients' next flush must redial and carry on.
			procs[1].stop(t)
			procs[1].restart(t)
		}
	}
	var sent int64
	for _, c := range clients {
		sent += c.Stats().AnswersSent
	}

	deadline := time.Now().Add(30 * time.Second)
	for agg.Stats().Decoded < sent {
		if !time.Now().Before(deadline) {
			t.Fatalf("%s: decoded %d of %d sent answers before deadline", name, agg.Stats().Decoded, sent)
		}
		fired, _, err := drain.Round(4096, 50*time.Millisecond)
		results = append(results, fired...)
		if err != nil {
			t.Fatalf("%s: drain round: %v", name, err)
		}
	}
	final, err := agg.Flush()
	if err != nil {
		t.Fatalf("%s: flush: %v", name, err)
	}
	results = append(results, final...)
	dropped, published := make([]int64, len(procs)), make([]int64, len(procs))
	for i, p := range procs {
		dropped[i], published[i] = batchers[i].Dropped(), p.published(t)
	}
	if err := role.Conserve(sent, dropped, published, consumers, agg); err != nil {
		t.Errorf("%s: %v", name, err)
	}

	out := runOutput{results: canonicalResults(results), decoded: agg.Stats().Decoded}
	for i, p := range procs {
		out.duplicates += p.broker.Stats().Duplicates
		for part := 0; part < gateParts; part++ {
			// A group that never committed starts at the memory floor; a
			// fetch of offset 0 would read it back from the WAL.
			if floor, err := p.broker.CommittedOffset("never-committed", proxy.TopicFor(i), part); err != nil {
				t.Fatalf("%s: proxy %d partition %d: %v", name, i, part, err)
			} else if floor > 0 {
				out.released++
			}
		}
	}
	for _, inj := range injectors {
		out.injected += inj.Stats().Injected()
	}
	return out
}

// canonicalResults renders fired windows in a stable order so two runs
// compare byte for byte regardless of drain batching.
func canonicalResults(results []aggregator.Result) string {
	lines := make([]string, 0, len(results))
	for _, res := range results {
		var b strings.Builder
		fmt.Fprintf(&b, "query %s window [%s → %s): %d answers\n",
			res.Query, res.Window.Start.Format(time.RFC3339), res.Window.End.Format(time.RFC3339), res.Responses)
		for _, bk := range res.Buckets {
			fmt.Fprintf(&b, "  %-12s %10.4f ± %.4f\n", bk.Label, bk.Estimate.Estimate, bk.Estimate.Margin)
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}
