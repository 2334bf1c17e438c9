package role

import (
	"crypto/ed25519"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
)

// rig is one in-process deployment built from the roles alone: two
// proxies, a client process answering through them and an aggregator
// draining them. Clients answer on one worker, so two rigs publish the
// same records in the same partition order.
type rig struct {
	fleet   *proxy.Fleet
	clients *Clients
	drain   *Drain
	agg     *aggregator.Aggregator
}

func newRig(t *testing.T, clients, drainWorkers int) *rig {
	t.Helper()
	q, err := workload.TaxiQuery("role", 1, time.Second, 4*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	params := budget.Params{S: 0.8, RR: rr.Params{P: 0.9, Q: 0.6}}
	fleet, err := proxy.NewFleet(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	agg, err := aggregator.New(aggregator.Config{
		Query: q, Params: params, Population: clients, Proxies: 2,
		Origin: time.Unix(0, 0), Seed: 5, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	consumers, err := fleet.Consumers("aggregator")
	if err != nil {
		t.Fatal(err)
	}
	// The query reaches the clients the way it does in every wiring: a
	// signed announcement on the control topic, applied at the next epoch.
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
	if err := reg.Register(signed, params); err != nil {
		t.Fatal(err)
	}
	control, err := fleet.Proxy(0).ControlConsumer("clients")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewClients(fleet, control, 9, 0, clients, 0, 1, func(i int, cfg *client.Config) error {
		cfg.DB = minisql.NewDB()
		cfg.MIDSource = rand.New(rand.NewSource(int64(i) + 100))
		return workload.PopulateTaxi(cfg.DB, rand.New(rand.NewSource(int64(i))), 2, time.Unix(0, 0), time.Minute)
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{fleet: fleet, clients: cs, drain: NewDrain(agg, consumers, drainWorkers), agg: agg}
}

// TestRoleDrainMatchesAcrossWorkers: the same published stream drained
// sequentially and by one goroutine per consumer fires byte-identical
// windows — sliding ones, so windows fire inside the drains — with the
// same accounting. Run under -race, it also covers the parallel drain's
// concurrent submits.
func TestRoleDrainMatchesAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]aggregator.Result, aggregator.Stats) {
		r := newRig(t, 120, workers)
		var all []aggregator.Result
		for e := uint64(0); e < 10; e++ {
			if _, err := r.clients.Epoch(e); err != nil {
				t.Fatal(err)
			}
			fired, err := r.drain.Dry()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, fired...)
		}
		final, err := r.agg.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return append(all, final...), r.agg.Stats()
	}
	want, wantStats := run(1)
	if len(want) < 10 || wantStats.Decoded == 0 {
		t.Fatalf("degenerate sequential run: %d windows, %+v", len(want), wantStats)
	}
	for _, workers := range []int{2, 4} {
		got, gotStats := run(workers)
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Errorf("workers=%d: the parallel drain diverges from the sequential one\n got %+v\nwant %+v", workers, gotStats, wantStats)
		}
	}
}

// TestDrainDeliversEverything: every share published to either proxy
// reaches the aggregator exactly once. A bounded drain splits its budget
// evenly over the proxies (so what it reads can join), Dry takes the rest,
// and a round after that finds nothing.
func TestDrainDeliversEverything(t *testing.T) {
	r := newRig(t, 50, 1)
	n, err := r.clients.Epoch(0)
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
	if _, err := r.drain.Dry(); err != nil {
		t.Fatal(err)
	}
	if got := r.agg.Stats().Decoded; got != int64(n) || r.agg.PendingJoins() != 0 {
		t.Errorf("decoded %d answers with %d joins pending, want %d and 0", got, r.agg.PendingJoins(), n)
	}
	if _, read, err := r.drain.Round(pollMax, 0); err != nil || read != 0 {
		t.Errorf("a round after Dry read %d records: %v", read, err)
	}
}

// TestDrainSkipsRecordsWithoutAMID: a record whose key is not a MID — a
// 3-byte key published to proxy 0's answer topic ahead of epoch 1 —
// carries no share. The drain counts it malformed and skips it, with no
// error, and submits every record behind it in the same poll: the
// answers decode exactly as in a run without it, and no join is left
// pending. Sequential and parallel drains alike.
func TestDrainSkipsRecordsWithoutAMID(t *testing.T) {
	for _, workers := range []int{1, 2} {
		run := func(bad bool) aggregator.Stats {
			r := newRig(t, 40, workers)
			for e := uint64(0); e < 3; e++ {
				if bad && e == 1 {
					px := r.fleet.Proxy(0)
					if _, _, err := px.Broker().Publish(px.Topic(), []byte("mid"), []byte("no share")); err != nil {
						t.Fatal(err)
					}
				}
				if n, err := r.clients.Epoch(e); err != nil || n == 0 {
					t.Fatalf("epoch %d: %d participants, %v", e, n, err)
				}
				if _, err := r.drain.Dry(); err != nil {
					t.Fatalf("workers=%d: drain after epoch %d: %v", workers, e, err)
				}
			}
			if n := r.agg.PendingJoins(); n != 0 {
				t.Errorf("workers=%d: %d joins left pending", workers, n)
			}
			return r.agg.Stats()
		}
		want, got := run(false), run(true)
		want.Malformed++
		if got != want {
			t.Errorf("workers=%d: with a keyless record\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestControlPlaneStepZeroAllocs pins what following the control topic
// adds to every epoch: a sync that finds no new announcement, plus the
// active-query count that decides whether the epoch answers at all.
// Neither may allocate. An idle epoch is exactly this step.
func TestControlPlaneStepZeroAllocs(t *testing.T) {
	r := newRig(t, 4, 1)
	if n, err := r.clients.Epoch(0); err != nil || n == 0 {
		t.Fatalf("epoch 0: %d participants, %v", n, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if active, err := r.clients.syncActive(); err != nil || active != 1 {
			t.Fatalf("sync: %d active queries, %v", active, err)
		}
	})
	if allocs != 0 {
		t.Errorf("control-plane step: %v allocs/op, want 0", allocs)
	}
}
