package role

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
	"privapprox/internal/xorcrypt"
)

// rig is one in-process deployment built from the roles alone: two
// proxies, a client process answering through them and an aggregator
// draining them, both following the query announcements reg makes on
// proxy 0's control topic. newRig's clients answer on one worker, so two
// such rigs publish the same records in the same partition order. At the
// test's teardown the rig drains what is left and checks its share
// ledger (Conserve); injected[i] counts the records a test published at
// proxy i past the clients.
type rig struct {
	reg      *engine.Registry
	key      ed25519.PrivateKey
	fleet    *proxy.Fleet
	clients  *Clients
	drain    *Drain
	agg      *aggregator.Aggregator
	injected [2]int64
}

// rigParams are the parameters of the rig's aggregator and first query.
var rigParams = budget.Params{S: 0.8, RR: rr.Params{P: 0.9, Q: 0.6}}

func newRig(t *testing.T, clients int) *rig {
	t.Helper()
	return newRigWith(t, clients, 1, 0)
}

// newRigWith is newRig with clientWorkers answering clients and batch
// as the client role's Batcher limit.
func newRigWith(t *testing.T, clients, clientWorkers, batch int) *rig {
	t.Helper()
	q, err := workload.TaxiQuery("role", 1, time.Second, 4*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := proxy.NewFleet(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	// The query reaches the clients and the aggregator the way it does in
	// every wiring: a signed announcement on the control topic, applied at
	// the next epoch and at the next drain step that reads shares.
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	signed, err := query.Sign(q, key)
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry()
	if err := reg.Trust("role", key.Public().(ed25519.PublicKey)); err != nil {
		t.Fatal(err)
	}
	if err := reg.AttachSink(fleet); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(signed, rigParams); err != nil {
		t.Fatal(err)
	}
	control, err := fleet.Proxy(0).ControlConsumer("clients")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewClients(fleet, control, 9, 0, clients, batch, clientWorkers, func(i int, cfg *client.Config) error {
		cfg.DB = minisql.NewDB()
		cfg.MIDSource = rand.New(rand.NewSource(int64(i) + 100))
		return workload.PopulateTaxi(cfg.DB, rand.New(rand.NewSource(int64(i))), 2, time.Unix(0, 0), time.Minute)
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{reg: reg, key: key, fleet: fleet, clients: cs}
	r.startAggregator(t)
	return r
}

// startAggregator gives the rig a fresh aggregator and drain over new
// consumers of its fleet, and checks the share ledger at the test's
// teardown.
func (r *rig) startAggregator(t *testing.T) {
	t.Helper()
	var err error
	r.agg, err = aggregator.NewMulti(aggregator.Config{
		Params: rigParams, Population: len(r.clients.Clients()), Proxies: 2,
		Origin: time.Unix(0, 0), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	consumers, err := r.fleet.Consumers("aggregator")
	if err != nil {
		t.Fatal(err)
	}
	control, err := r.fleet.Proxy(0).ControlConsumer("aggregator-control")
	if err != nil {
		t.Fatal(err)
	}
	r.drain = NewDrain(r.agg, consumers, control)
	t.Cleanup(func() { r.conserved(t) })
}

// restart is the rig after its aggregator crashed: the same fleet,
// registry and clients with a fresh aggregator and drain, whose teardown
// checks the share ledger over both lives — the clients' answers and
// the brokers' records, against the restored consumers and aggregator.
func (r *rig) restart(t *testing.T) *rig {
	t.Helper()
	b := &rig{reg: r.reg, key: r.key, fleet: r.fleet, clients: r.clients, injected: r.injected}
	b.startAggregator(t)
	return b
}

// conserved drains the rig dry and fails t unless its share ledger
// balances.
func (r *rig) conserved(t *testing.T) {
	t.Helper()
	if _, _, err := r.drain.UpTo(math.MaxInt); err != nil {
		t.Error(err)
		return
	}
	answered := client.SumStats(r.clients.Clients()).AnswersSent
	var dropped, published [2]int64
	for i, b := range r.clients.Batchers() {
		dropped[i] = b.Dropped() - r.injected[i]
		px := r.fleet.Proxy(i)
		published[i] = px.Stats().MessagesIn
		for _, topic := range []string{proxy.TopicControl, proxy.TopicLineage} {
			end, err := px.Broker().EndOffset(topic, 0)
			if err != nil {
				t.Fatal(err)
			}
			published[i] -= end
		}
	}
	if err := Conserve(answered, dropped[:], published[:], r.drain.Consumers(), r.agg); err != nil {
		t.Error(err)
	}
}

// TestRoleDrainMatchesProxyByProxy: a drain round submits every proxy's
// polled shares in one call, and the windows it fires — sliding ones, so
// windows fire inside the drains — and its accounting are byte-identical
// to a reference aggregator's that reads the same records through its own
// consumer group and submits each round's polls one proxy after the
// other. The clients answer on three workers through 50-share batches,
// and proxy 1 receives every other call's shares in reverse order, so
// those siblings sit at different positions of a round and join through
// the aggregator's join groups while the rest pair where they sit.
func TestRoleDrainMatchesProxyByProxy(t *testing.T) {
	r := newRigWith(t, 120, 3, 50)
	rewire(r, 1, 50, &reverseSink{ColumnSink: r.fleet.Proxy(1)})
	ref, err := aggregator.NewMulti(aggregator.Config{
		Params: rigParams, Population: len(r.clients.Clients()), Proxies: 2,
		Origin: time.Unix(0, 0), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	consumers, err := r.fleet.Consumers("reference")
	if err != nil {
		t.Fatal(err)
	}
	control, err := r.fleet.Proxy(0).ControlConsumer("reference-control")
	if err != nil {
		t.Fatal(err)
	}
	// The reference follows the control topic through a drain of its own
	// that never drains.
	follower := NewDrain(ref, consumers, control)
	var shares []xorcrypt.Share
	aligned, positions := 0, 0
	for e := uint64(0); e < 10; e++ {
		if _, _, err := r.clients.Epoch(e, nil); err != nil {
			t.Fatal(err)
		}
		got, _, err := r.drain.UpTo(math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		var want []aggregator.Result
		for read := 1; read > 0; {
			if _, err := follower.sync(); err != nil {
				t.Fatal(err)
			}
			read = 0
			var mids [2][]xorcrypt.MID
			for src, c := range consumers {
				runs, err := c.PollRuns(pollMax, 0)
				if err != nil {
					t.Fatal(err)
				}
				shares = shares[:0]
				for _, run := range runs {
					shares, _ = proxy.AppendShares(shares, run)
					read += run.Count
				}
				for _, sh := range shares {
					mids[src] = append(mids[src], sh.MID)
				}
				fired, err := ref.SubmitShareBatch(shares, src, time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, fired...)
			}
			for i := range min(len(mids[0]), len(mids[1])) {
				positions++
				if mids[0][i] == mids[1][i] {
					aligned++
				}
			}
		}
		aggregator.SortResults(want, ref.QueryOrder())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: the paired drain fired\n%+v\nproxy by proxy\n%+v", e, got, want)
		}
	}
	t.Logf("%d of %d positions aligned", aligned, positions)
	if aligned == 0 || aligned >= positions {
		t.Errorf("%d of %d positions aligned: the drain did not see both paired and unpaired siblings", aligned, positions)
	}
	if got, want := r.agg.Stats(), ref.Stats(); got != want || r.agg.PendingJoins() != ref.PendingJoins() {
		t.Errorf("the paired drain counts %+v with %d pending, proxy by proxy %+v with %d", got, r.agg.PendingJoins(), want, ref.PendingJoins())
	}
	gotFinal, err := r.agg.Flush()
	if err != nil {
		t.Fatal(err)
	}
	wantFinal, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFinal) == 0 || !reflect.DeepEqual(gotFinal, wantFinal) {
		t.Errorf("flushed %d windows, proxy by proxy %d, or they differ", len(gotFinal), len(wantFinal))
	}
}

// stallSink passes every call on after a millisecond.
type stallSink struct{ client.ColumnSink }

func (s stallSink) SubmitColumns(mids, payloads []byte, count, size int) error {
	time.Sleep(time.Millisecond)
	return s.ColumnSink.SubmitColumns(mids, payloads, count, size)
}

// reverseSink passes every other call on with its shares in reverse
// order. Its batcher sends one frame at a time, so it needs no lock.
type reverseSink struct {
	client.ColumnSink
	calls      int
	mids, vals []byte
}

func (s *reverseSink) SubmitColumns(mids, payloads []byte, count, size int) error {
	if s.calls++; s.calls%2 == 0 {
		s.mids, s.vals = s.mids[:0], s.vals[:0]
		for i := count - 1; i >= 0; i-- {
			s.mids = append(s.mids, mids[i*xorcrypt.MIDSize:(i+1)*xorcrypt.MIDSize]...)
			s.vals = append(s.vals, payloads[i*size:(i+1)*size]...)
		}
		mids, payloads = s.mids, s.vals
	}
	return s.ColumnSink.SubmitColumns(mids, payloads, count, size)
}

// TestDrainDeliversEverything: every share published to either proxy
// reaches the aggregator exactly once. A bounded drain splits its budget
// evenly over the proxies (so what it reads can join), UpTo(math.MaxInt)
// takes the rest, and a round after that finds nothing.
func TestDrainDeliversEverything(t *testing.T) {
	r := newRig(t, 50)
	_, n, err := r.clients.Epoch(0, nil)
	if err != nil || n == 0 {
		t.Fatalf("epoch 0: %d participants, %v", n, err)
	}
	if _, drained, err := r.drain.UpTo(n); err != nil || drained != n {
		t.Fatalf("UpTo(%d) drained %d: %v", n, drained, err)
	}
	var lags []int64
	for _, c := range r.drain.Consumers() {
		lag, err := c.Lag()
		if err != nil {
			t.Fatal(err)
		}
		lags = append(lags, lag)
	}
	if lags[0]+lags[1] != int64(n) || lags[0]-lags[1] > 1 || lags[1]-lags[0] > 1 {
		t.Errorf("after draining %d of %d records, proxy backlogs %v: not split evenly", n, 2*n, lags)
	}
	if _, _, err := r.drain.UpTo(math.MaxInt); err != nil {
		t.Fatal(err)
	}
	if got := r.agg.Stats().Decoded; got != int64(n) || r.agg.PendingJoins() != 0 {
		t.Errorf("decoded %d answers with %d joins pending, want %d and 0", got, r.agg.PendingJoins(), n)
	}
	if _, read, err := r.drain.Round(pollMax, 0); err != nil || read != 0 {
		t.Errorf("a round after UpTo(math.MaxInt) read %d records: %v", read, err)
	}
}

// TestDrainSkipsRecordsWithoutAMID: one round polls two epochs of
// answers, and one proxy's poll holds a record whose key is not a MID —
// a 3-byte key — at its head, in its middle or at its tail while the
// other proxy's poll is good. The round reads everything, every good message
// decodes exactly as it does without the record, the record is counted
// Malformed, every consumer position ends at its partition's end — so no
// position moved past a record the round neither submitted nor counted —
// and the share ledger balances (the rig's teardown, role.Balance).
func TestDrainSkipsRecordsWithoutAMID(t *testing.T) {
	noShare := pubsub.Columns{Count: 1, KeyLen: 3, ValLen: 8, Keys: []byte("mid"), Vals: []byte("no share")}
	run := func(t *testing.T, bad int, at string) aggregator.Stats {
		r := newRig(t, 40)
		published := 0
		inject := func(where string) {
			if where != at {
				return
			}
			px := r.fleet.Proxy(bad)
			if err := px.Broker().PublishColumns(px.Topic(), noShare, 0, 0); err != nil {
				t.Fatal(err)
			}
			r.injected[bad]++
			published++
		}
		inject("head")
		for e := uint64(0); e < 2; e++ {
			before := client.SumStats(r.clients.Clients()).AnswersSent
			if _, n, err := r.clients.Epoch(e, nil); err != nil || n == 0 {
				t.Fatalf("epoch %d: %d participants, %v", e, n, err)
			}
			published += 2 * int(client.SumStats(r.clients.Clients()).AnswersSent-before)
			if e == 0 {
				inject("middle")
			}
		}
		inject("tail")
		if _, n, err := r.drain.Round(pollMax, 0); err != nil || n != published {
			t.Fatalf("the round read %d of %d records: %v", n, published, err)
		}
		for i, c := range r.drain.Consumers() {
			for topic, parts := range c.Positions() {
				for part, off := range parts {
					end, err := r.fleet.Proxy(i).Broker().EndOffset(topic, part)
					if err != nil {
						t.Fatal(err)
					}
					if off != end {
						t.Errorf("proxy %d %s/%d: position %d, end %d", i, topic, part, off, end)
					}
				}
			}
		}
		if n := r.agg.PendingJoins(); n != 0 {
			t.Errorf("%d joins left pending", n)
		}
		return r.agg.Stats()
	}
	want := run(t, 0, "nowhere")
	want.Malformed++
	for bad := range 2 {
		for _, at := range []string{"head", "middle", "tail"} {
			t.Run(fmt.Sprintf("proxy%d/%s", bad, at), func(t *testing.T) {
				if got := run(t, bad, at); got != want {
					t.Errorf("with a keyless record\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestClientsSource: the client role's telemetry source reports its
// clients' answer counters summed and its shared batchers' dropped and
// pending shares summed over the proxies. Proxy 1's batcher runs
// degraded and its sink refuses epoch 1, so it drops that epoch's
// shares; a share left in proxy 0's batcher is pending until flushed.
func TestClientsSource(t *testing.T) {
	r := newRig(t, 40)
	sink := &refusingSink{ColumnSink: r.fleet.Proxy(1)}
	rewire(r, 1, 0, sink)
	r.clients.batchers[1].SetDegraded(true)
	var dropped int64
	for e := uint64(0); e < 3; e++ {
		sink.refuse = e == 1
		before := client.SumStats(r.clients.Clients()).AnswersSent
		if _, n, err := r.clients.Epoch(e, nil); err != nil || n == 0 {
			t.Fatalf("epoch %d: %d participants, %v", e, n, err)
		}
		if e == 1 {
			dropped = client.SumStats(r.clients.Clients()).AnswersSent - before
		}
	}
	// A share whose sibling never comes: it waits in the batcher, then
	// in the aggregator's joiner (the ledger counts it pending).
	orphan := xorcrypt.Share{MID: xorcrypt.MID{0xee}, Payload: make([]byte, 8)}
	if err := r.clients.batchers[0].Submit(orphan); err != nil {
		t.Fatal(err)
	}
	st := client.SumStats(r.clients.Clients())
	want := map[string]float64{
		"privapprox_client_participated_total": float64(st.Participated),
		"privapprox_client_answers_sent_total": float64(st.AnswersSent),
		"privapprox_client_shedded_total":      float64(st.Shedded),
		"privapprox_batcher_dropped_total":     float64(dropped),
		"privapprox_batcher_pending":           1,
	}
	got := map[string]float64{}
	for _, s := range r.clients.AppendSamples(nil) {
		got[s.Name] = s.Value
	}
	if dropped == 0 || st.AnswersSent == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("client role samples\n got %v\nwant %v", got, want)
	}
	if err := r.clients.batchers[0].Flush(); err != nil {
		t.Fatal(err)
	}
	r.injected[0]++
}

// refusingSink is a sink that refuses every frame while refuse is set.
type refusingSink struct {
	client.ColumnSink
	refuse bool
}

func (s *refusingSink) SubmitColumns(mids, payloads []byte, count, size int) error {
	if s.refuse {
		return errors.New("sink refused the frame")
	}
	return s.ColumnSink.SubmitColumns(mids, payloads, count, size)
}

// hookedTransport is a broker whose fetches first run hook, with the
// fetch's 1-based count.
type hookedTransport struct {
	pubsub.Transport
	fetches atomic.Int64
	hook    func(n int64)
}

func (h *hookedTransport) FetchWait(topic string, partition int, offset int64, max int, wait time.Duration, runs []pubsub.Run, mem []byte) ([]pubsub.Run, []byte, error) {
	if h.hook != nil {
		h.hook(h.fetches.Add(1))
	}
	return h.Transport.FetchWait(topic, partition, offset, max, wait, runs, mem)
}

// hookDrain rebuilds the rig's drain over hooked transports: proxy i's
// share consumer over shares[i], the control consumer over control.
func (r *rig) hookDrain(t *testing.T, control *hookedTransport, shares ...*hookedTransport) {
	t.Helper()
	consumers := make([]*pubsub.Consumer, len(shares))
	for i, h := range shares {
		h.Transport = r.fleet.Proxy(i).Broker()
		var err error
		if consumers[i], err = pubsub.NewConsumer(h, "hooked", r.fleet.Proxy(i).Topic()); err != nil {
			t.Fatal(err)
		}
	}
	control.Transport = r.fleet.Proxy(0).Broker()
	cc, err := pubsub.NewConsumer(control, "hooked-control", proxy.TopicControl)
	if err != nil {
		t.Fatal(err)
	}
	r.drain = NewDrain(r.agg, consumers, cc)
}

// registerSecond announces a second query, beside the rig's first.
func (r *rig) registerSecond() error { return r.register(2, 4*time.Second) }

// register announces query serial of the rig's analyst, sliding by one
// epoch over a window of window.
func (r *rig) register(serial uint64, window time.Duration) error {
	q, err := workload.TaxiQuery("role", serial, time.Second, window, time.Second)
	if err != nil {
		return err
	}
	signed, err := query.Sign(q, r.key)
	if err != nil {
		return err
	}
	return r.reg.Register(signed, budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}})
}

// TestDrainSyncsBetweenPollAndSubmit: a drain round applies the control
// topic after its polls and before its submit. Proxy 0's first share
// fetch registers a second query and runs a client epoch that answers
// both queries before it serves the records, so the new query's answers
// are polled by a round whose sync has not run yet; every one of them
// must decode, none counted unknown. The first fetch of each consumer is
// logged: the control consumer's must come after both share consumers'.
func TestDrainSyncsBetweenPollAndSubmit(t *testing.T) {
	const clients = 30
	// The subtest keeps the name it had when the drain took a worker
	// count: one goroutine polling every proxy is the drain's only shape.
	t.Run("workers=1", func(t *testing.T) {
		r := newRig(t, clients)
		var control hookedTransport
		var shares [2]hookedTransport
		var sent int64 // the epoch's answers, one half of each at each proxy
		var firsts []string
		first := func(name string, then func()) func(int64) {
			return func(n int64) {
				if n == 1 {
					firsts = append(firsts, name)
					then()
				}
			}
		}
		shares[0].hook = first("proxy 0", func() {
			if err := r.registerSecond(); err != nil {
				t.Fatal(err)
			}
			if _, n, err := r.clients.Epoch(0, nil); err != nil || n != clients {
				t.Fatalf("epoch 0: %d participants, %v", n, err)
			}
			sent = client.SumStats(r.clients.Clients()).AnswersSent
		})
		shares[1].hook = first("proxy 1", func() {})
		control.hook = first("control", func() {})
		r.hookDrain(t, &control, &shares[0], &shares[1])
		if _, _, err := r.drain.UpTo(math.MaxInt); err != nil {
			t.Fatal(err)
		}
		if want := []string{"proxy 0", "proxy 1", "control"}; !slices.Equal(firsts, want) {
			t.Errorf("first fetches %q, want %q", firsts, want)
		}
		if st := r.agg.Stats(); st.Decoded != sent || st.UnknownQuery != 0 || st.Queries != 2 {
			t.Errorf("%d answers decoded and %d of unknown queries over %d queries, want %d, 0 and 2", st.Decoded, st.UnknownQuery, st.Queries, sent)
		}
	})
}

// TestDrainSubmitsPastARefusedSnapshot: a snapshot whose signature was
// tampered with, announced between two drains, is refused by the step
// that syncs it — after the step has polled its shares, which it still
// submits before it returns the refusal. The next drain finds nothing
// new on the control topic and completes the joins, so every polled
// share is decoded and the share ledger balances.
func TestDrainSubmitsPastARefusedSnapshot(t *testing.T) {
	r := newRig(t, 40)
	var answers int64
	for e := uint64(0); e < 2; e++ {
		_, n, err := r.clients.Epoch(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		answers += int64(n)
		if e == 0 {
			if _, _, err := r.drain.UpTo(math.MaxInt); err != nil {
				t.Fatal(err)
			}
		}
	}
	applied := r.drain.Follower().Applier().Applied()
	snap := engine.QuerySet{Version: applied.Version + 1, Entries: slices.Clone(applied.Entries)}
	e := &snap.Entries[0]
	sig := slices.Clone(e.Signed.Signature)
	sig[0] ^= 1
	e.Signed = &query.Signed{Query: e.Signed.Query, Signature: sig}
	payload, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fleet.Announce(payload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.drain.UpTo(math.MaxInt); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("a drain past a tampered snapshot: %v, want its refusal", err)
	}
	if _, _, err := r.drain.UpTo(math.MaxInt); err != nil {
		t.Fatalf("the drain after the refusal: %v", err)
	}
	if st := r.agg.Stats(); st.Decoded != answers || r.agg.PendingJoins() != 0 {
		t.Errorf("%d of %d answers decoded, %d joins pending", st.Decoded, answers, r.agg.PendingJoins())
	}
}

// TestControlPlaneStepZeroAllocs pins what following the control topic
// adds to every epoch and every drain step that reads shares: the
// client role's sync that finds no new announcement, plus the
// active-query count that decides whether the epoch answers at all, and
// the aggregator role's Sync that finds none — in process and over
// loopback TCP, as privapprox-node follows proxy 0. None may allocate.
// An idle epoch is exactly the first. Each is warmed past the four empty
// polls after which a consumer releases its fetch arena, and past the
// TCP fetch that then reads an empty reply into a new one. A -race
// build's sync.Pool drops pooled TCP round-trip state, so it skips the
// TCP case.
func TestControlPlaneStepZeroAllocs(t *testing.T) {
	r := newRig(t, 4)
	if _, n, err := r.clients.Epoch(0, nil); err != nil || n == 0 {
		t.Fatalf("epoch 0: %d participants, %v", n, err)
	}
	srv, err := pubsub.Serve(r.fleet.Proxy(0).Broker(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	control, err := pubsub.NewConsumer(cli, "aggregator-tcp", proxy.TopicControl)
	if err != nil {
		t.Fatal(err)
	}
	overTCP := NewDrain(r.agg, r.drain.Consumers(), control)
	for _, tc := range []struct {
		name string
		step func() error
	}{
		{"clients", func() error {
			if active, err := r.clients.syncActive(0); err != nil || active != 1 {
				return fmt.Errorf("%d active queries, %v", active, err)
			}
			return nil
		}},
		{"drain", func() error {
			if flushed, err := r.drain.sync(); err != nil || flushed != nil {
				return fmt.Errorf("%d flushed windows, %v", len(flushed), err)
			}
			return nil
		}},
		{"drain/tcp", func() error {
			_, err := overTCP.sync()
			return err
		}},
	} {
		if raceEnabled && tc.name == "drain/tcp" {
			continue
		}
		for range 8 {
			if err := tc.step(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.step(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: control-plane step: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	if n := r.agg.Stats().Queries; n != 1 {
		t.Errorf("the drain's syncs left the aggregator with %d queries, want 1", n)
	}
}

// answerTwin answers epoch e the way the client role did before its
// workers had lanes: client by client, AnswerOnce into the shared
// batchers, then one flush per proxy. It returns the participants.
func answerTwin(t *testing.T, r *rig, e uint64) int {
	t.Helper()
	if _, err := r.clients.syncActive(e); err != nil {
		t.Fatal(err)
	}
	for _, b := range r.clients.Batchers() {
		b.BeginEpoch(e)
	}
	n := 0
	for _, cl := range r.clients.Clients() {
		ok, err := cl.AnswerOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			n++
		}
	}
	for _, b := range r.clients.Batchers() {
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// fetchRecords reads up to max records of a partition from offset as
// Records, views of the fetch's private memory.
func fetchRecords(b *pubsub.Broker, topic string, partition int, offset int64, max int) ([]pubsub.Record, error) {
	runs, _, err := b.FetchWait(topic, partition, offset, max, 0, nil, nil)
	var recs []pubsub.Record
	for _, r := range runs {
		for i := range r.Count {
			at := i * (r.KeyLen + r.ValLen)
			recs = append(recs, pubsub.Record{Topic: topic, Partition: partition, Offset: r.Offset + int64(i), Key: r.Body[at : at+r.KeyLen], Value: r.Val(i)})
		}
	}
	return recs, err
}

// topics returns what the rig's two proxies hold, proxy p's at index p,
// partition by partition in offset order: each record's offset, its MID
// and the message its share joins to with its sibling at the other
// proxy. A share's own bytes are not compared: the splitter draws its
// pads from a crypto-random stream, so no two fleets publish the same
// share bytes, while offsets, MIDs and joined messages are fixed by the
// seed.
func topics(t *testing.T, r *rig) [2][][]string {
	t.Helper()
	var recs [2][][]pubsub.Record
	sibling := [2]map[string][]byte{{}, {}}
	for p := range recs {
		px := r.fleet.Proxy(p)
		parts, err := px.Broker().Partitions(px.Topic())
		if err != nil {
			t.Fatal(err)
		}
		for part := 0; part < parts; part++ {
			got, err := fetchRecords(px.Broker(), px.Topic(), part, 0, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			recs[p] = append(recs[p], got)
			for _, rec := range got {
				sibling[1-p][string(rec.Key)] = rec.Value
			}
		}
	}
	var out [2][][]string
	for p, parts := range recs {
		for _, part := range parts {
			var held []string
			for _, rec := range part {
				msg := slices.Clone(rec.Value)
				other := sibling[p][string(rec.Key)]
				for i := range min(len(msg), len(other)) {
					msg[i] ^= other[i]
				}
				held = append(held, fmt.Sprintf("%d %x %x", rec.Offset, rec.Key, msg))
			}
			out[p] = append(out[p], held)
		}
	}
	return out
}

// shareSet is one proxy's topics entry as a sorted multiset of (MID,
// joined message), offsets dropped.
func shareSet(parts [][]string) []string {
	var set []string
	for _, part := range parts {
		for _, rec := range part {
			set = append(set, rec[strings.IndexByte(rec, ' ')+1:])
		}
	}
	slices.Sort(set)
	return set
}

// TestClientsEpochAcrossWorkers: the client role's workers answer
// through private lanes, and what reaches the proxies is what the
// clients answered one by one into the shared batchers. At one worker
// every partition holds byte-identical records; at more, each proxy
// holds the same shares and the same clients participated. Either way
// every answer sent is a record at each proxy or a counted drop (the
// client half of share conservation), and under a batch limit every
// flush but an epoch's last carries exactly the limit.
func TestClientsEpochAcrossWorkers(t *testing.T) {
	const epochs, limit = 3, 7
	for _, workers := range []int{1, 2, 3, 4} {
		for _, clients := range []int{1, 63, 64, 65, 200} {
			for _, batch := range []int{0, limit} {
				name := fmt.Sprintf("workers=%d/clients=%d/batch=%d", workers, clients, batch)
				r, twin := newRigWith(t, clients, workers, batch), newRigWith(t, clients, 1, batch)
				// Workers flush concurrently, so the stamper may be too. The
				// sizes come from proxy 0's sink: with one query shape a
				// flush is one call, so calls and stamps must pair up.
				sizes := watchFlushes(r, batch)
				var (
					mu      sync.Mutex
					stamps  [epochs]int
					flushes [epochs][]int
				)
				r.clients.Batchers()[0].SetStamper(func(e uint64, _ int64) {
					mu.Lock()
					stamps[e]++
					mu.Unlock()
				})
				got, want := 0, 0
				for e := uint64(0); e < epochs; e++ {
					_, n, err := r.clients.Epoch(e, nil)
					if err != nil {
						t.Fatalf("%s: epoch %d: %v", name, e, err)
					}
					if flushes[e] = sizes.take(); len(flushes[e]) != stamps[e] {
						t.Errorf("%s: epoch %d: %d sink calls, %d stamps", name, e, len(flushes[e]), stamps[e])
					}
					got += n
					want += answerTwin(t, twin, e)
				}
				if got != want || want == 0 {
					t.Errorf("%s: %d participants, the twin %d", name, got, want)
				}
				sent := client.SumStats(r.clients.Clients()).AnswersSent
				held, twinHeld := topics(t, r), topics(t, twin)
				for p, b := range r.clients.Batchers() {
					g, w := shareSet(held[p]), shareSet(twinHeld[p])
					if workers == 1 && !reflect.DeepEqual(held[p], twinHeld[p]) {
						t.Errorf("%s: proxy %d's partitions differ from the twin's", name, p)
					} else if !reflect.DeepEqual(g, w) {
						t.Errorf("%s: proxy %d holds %d shares, the twin %d, or different ones", name, p, len(g), len(w))
					}
					if n := int64(len(g)) + b.Dropped(); n != sent {
						t.Errorf("%s: %d answers sent, proxy %d holds %d records + drops", name, sent, p, n)
					}
				}
				for e, sizes := range flushes {
					for i, n := range sizes {
						if n == 0 || batch > 0 && (n > batch || i < len(sizes)-1 && n != batch) {
							t.Errorf("%s: epoch %d's flushes carry %v shares", name, e, sizes)
							break
						}
					}
				}
			}
		}
	}
}

// flushSizes is a ColumnSink that records the share count of every call
// before passing it on.
type flushSizes struct {
	client.ColumnSink
	mu    sync.Mutex
	sizes []int
}

func (f *flushSizes) SubmitColumns(mids, payloads []byte, count, size int) error {
	f.mu.Lock()
	f.sizes = append(f.sizes, count)
	f.mu.Unlock()
	return f.ColumnSink.SubmitColumns(mids, payloads, count, size)
}

// take returns the counts recorded since the last take.
func (f *flushSizes) take() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	sizes := f.sizes
	f.sizes = nil
	return sizes
}

// watchFlushes puts a flushSizes between r's shared proxy-0 batcher and
// proxy 0 (rewire). Call it before r's first epoch.
func watchFlushes(r *rig, batch int) *flushSizes {
	f := &flushSizes{ColumnSink: r.fleet.Proxy(0)}
	rewire(r, 0, batch, f)
	return f
}

// rewire rebuilds r's shared batcher for proxy p over sink, with limit
// batch, and every worker's proxy-p lane over it. Call it before r's
// first epoch.
func rewire(r *rig, p, batch int, sink client.ColumnSink) {
	r.clients.batchers[p] = client.NewBatcher(sink, batch)
	for _, lanes := range r.clients.lanes {
		lanes[p] = client.NewBatcher(r.clients.batchers[p], 0)
	}
}

// TestClientsEpochAllocs pins what the client role's epoch allocates
// beyond the answers themselves: nothing at one worker — the lanes and
// the run state the workers share are built once, with the Clients — and
// one goroutine per further worker otherwise. The bounds are what the
// epoch allocated before the workers had lanes: 0, 3 and 5 at 1, 2 and 4
// workers. Under a 200-share batch limit two workers keep the bound of
// 3: a frame cut at the limit waits in its batcher's FIFO, which reuses
// its backing array and recycles the frame's buffer once it is sent.
// Only Epoch is measured; the drain between epochs is not. The gate
// reads the median epoch: now and then the runtime allocates a
// goroutine or a wait-queue entry inside one. The collector is off, so
// no epoch pays for refilling the sync.Pools a collection emptied.
func TestClientsEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const clients, warm, epochs = 512, 100, 40
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		workers, batch int
		limit          uint64
	}{{1, 0, 0}, {2, 0, 3}, {4, 0, 5}, {2, 200, 3}} {
		r := newRigWith(t, clients, tc.workers, tc.batch)
		var mallocs []uint64
		for e := uint64(0); e < warm+epochs; e++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, n, err := r.clients.Epoch(e, nil); err != nil || n == 0 {
				t.Fatalf("epoch %d: %d participants, %v", e, n, err)
			}
			runtime.ReadMemStats(&after)
			if e >= warm {
				mallocs = append(mallocs, after.Mallocs-before.Mallocs)
			}
			if _, _, err := r.drain.UpTo(math.MaxInt); err != nil {
				t.Fatal(err)
			}
			if err := r.drain.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		slices.Sort(mallocs)
		t.Logf("workers=%d batch=%d: allocs per epoch of %d clients: median %d, max %d", tc.workers, tc.batch, clients, mallocs[epochs/2], mallocs[epochs-1])
		if mallocs[epochs/2] > tc.limit {
			t.Errorf("workers=%d batch=%d: median epoch allocates %d times, want ≤ %d", tc.workers, tc.batch, mallocs[epochs/2], tc.limit)
		}
	}
}

// TestDrainPointsPairEveryShare: an epoch handed a drain runs drain
// points between chunks. Each cuts one frame per proxy holding the same
// shares in the same order, so once its rounds are done no join is
// pending: every sibling paired by position. The windows the points and
// the epoch's tail fire are a twin rig's, which answers without a drain
// and drains afterwards; on one worker no point runs.
func TestDrainPointsPairEveryShare(t *testing.T) {
	const clients, epochs = 768, 5 // twelve chunks: two or three cuts an epoch
	for _, workers := range []int{1, 2, 4} {
		r, twin := newRigWith(t, clients, workers, 0), newRigWith(t, clients, workers, 0)
		for _, x := range []*rig{r, twin} {
			for serial := uint64(2); serial <= 4; serial++ {
				if err := x.register(serial, time.Duration(serial)*time.Second); err != nil {
					t.Fatal(err)
				}
			}
		}
		points, fired := 0, 0
		r.drain.pointDone = func() {
			points++
			if n := r.agg.PendingJoins(); n != 0 {
				t.Errorf("workers=%d: %d joins pending after drain point %d", workers, n, points)
			}
		}
		for e := uint64(0); e < epochs; e++ {
			got, _, err := r.clients.Epoch(e, r.drain)
			if err != nil {
				t.Fatal(err)
			}
			tail, _, err := r.drain.UpTo(math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, tail...)
			aggregator.SortResults(got, r.agg.QueryOrder())
			if _, _, err := twin.clients.Epoch(e, nil); err != nil {
				t.Fatal(err)
			}
			want, _, err := twin.drain.UpTo(math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: epoch %d: with drain points\n%+v\nanswered, then drained\n%+v", workers, e, got, want)
			}
			fired += len(want)
		}
		t.Logf("workers=%d: %d drain points, %d windows", workers, points, fired)
		if fired == 0 || (workers == 1) != (points == 0) {
			t.Errorf("workers=%d: %d drain points fired %d windows", workers, points, fired)
		}
	}
}

// TestClientRoleFramesAlign: without a drain, the shape of a
// privapprox-node client process, the client role still cuts every frame
// under one lock and sends each proxy its frames in cut order. So both
// proxies' consumers read the same MID sequence, epoch by epoch, at any
// worker count and batch limit. Two stalls widen the races the rule
// closes: every send to proxy 1 stalls, so frames cut meanwhile queue up
// behind it, and so does every flush of worker 0's lane to proxy 1, so a
// lane flush of another worker that did not wait for worker 0's would
// land between its two proxies' shares.
func TestClientRoleFramesAlign(t *testing.T) {
	const clients, epochs = 640, 3 // ten chunks an epoch
	for _, workers := range []int{2, 3} {
		for _, batch := range []int{0, 50} {
			r := newRigWith(t, clients, workers, batch)
			rewire(r, 1, batch, stallSink{r.fleet.Proxy(1)})
			r.clients.lanes[0][1] = client.NewBatcher(stallSink{r.clients.batchers[1]}, 0)
			consumers, err := r.fleet.Consumers("align")
			if err != nil {
				t.Fatal(err)
			}
			for e := uint64(0); e < epochs; e++ {
				if _, _, err := r.clients.Epoch(e, nil); err != nil {
					t.Fatal(err)
				}
				var mids [2][]xorcrypt.MID
				for src, c := range consumers {
					for {
						runs, err := c.PollRuns(pollMax, 0)
						if err != nil {
							t.Fatal(err)
						}
						if len(runs) == 0 {
							break
						}
						for _, run := range runs {
							shares, _ := proxy.AppendShares(nil, run)
							for _, sh := range shares {
								mids[src] = append(mids[src], sh.MID)
							}
						}
					}
				}
				if len(mids[0]) == 0 || !slices.Equal(mids[0], mids[1]) {
					same := 0
					for i := range min(len(mids[0]), len(mids[1])) {
						if mids[0][i] == mids[1][i] {
							same++
						}
					}
					t.Fatalf("workers=%d batch=%d epoch %d: proxies read %d and %d shares, %d at the same position", workers, batch, e, len(mids[0]), len(mids[1]), same)
				}
			}
		}
	}
}
