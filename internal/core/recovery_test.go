package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/role"
	"privapprox/internal/rr"
	"privapprox/internal/wal"
	"privapprox/internal/workload"
)

// recoveryParams exercise both noise sources (s<1, p<1) so the
// estimator's seeded rng is genuinely consumed across the checkpoint.
var recoveryParams = budget.Params{S: 0.9, RR: rr.Params{P: 0.9, Q: 0.6}}

// resultsEqual reports whether two result sequences are identical — the
// recovery tests' byte-level comparison, shed stamps included.
func resultsEqual(a, b []aggregator.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Query != b[i].Query || a[i].Responses != b[i].Responses || a[i].Shed != b[i].Shed ||
			a[i].Population != b[i].Population || a[i].Inverted != b[i].Inverted ||
			!a[i].Window.Start.Equal(b[i].Window.Start) || !a[i].Window.End.Equal(b[i].Window.End) ||
			len(a[i].Buckets) != len(b[i].Buckets) {
			return false
		}
		for j := range a[i].Buckets {
			if a[i].Buckets[j] != b[i].Buckets[j] {
				return false
			}
		}
	}
	return true
}

// runEpochsInto runs epochs on sys, appending what they fire to results.
// It does not check windowsConserved: it never flushes, and its callers
// split one run's windows across a crash and a restore, so the fired set
// it sees is partial.
func runEpochsInto(t *testing.T, sys *System, epochs int, results []aggregator.Result) []aggregator.Result {
	t.Helper()
	for e := 0; e < epochs; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res...)
	}
	return results
}

// partitionAt names one partition of one proxy's share topic.
type partitionAt struct{ proxy, partition int }

// shareLog is what was published at a system's proxies, per partition in
// offset order.
type shareLog map[partitionAt][]pubsub.Record

// capture appends what every partition received since the last capture
// — call it between AnswerEpoch and the drain, while the brokers still
// hold the epoch's shares in memory.
func (l shareLog) capture(t *testing.T, sys *System) {
	t.Helper()
	for i := 0; i < sys.Fleet().Size(); i++ {
		px := sys.Fleet().Proxy(i)
		n, err := px.Broker().Partitions(px.Topic())
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			at := partitionAt{i, p}
			recs, err := fetchRecords(px.Broker(), px.Topic(), p, int64(len(l[at])), math.MaxInt32)
			if err != nil {
				t.Fatal(err)
			}
			l[at] = append(l[at], recs...)
		}
	}
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

// TestSystemCheckpointResume is the in-process crash gate: run a
// durable system for part of its epochs, checkpoint, tear the process
// state down (only the data directory and the checkpoint bytes
// survive), rebuild over the same directory, Restore, and run the rest.
// The combined result sequence must be identical to an uninterrupted
// run — same estimates, same margins, same windows, same order.
func TestSystemCheckpointResume(t *testing.T) {
	const epochs, crashAfter = 5, 2
	dir := t.TempDir()

	// Uninterrupted reference (no durability needed: same seed, same
	// population, the pipeline is deterministic).
	refCfg := taxiSystemConfig(t, 8, recoveryParams)
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := runEpochsInto(t, ref, epochs, nil)
	final, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, final...)
	if len(want) == 0 {
		t.Fatal("reference run produced no windows")
	}

	// First life: durable proxies, crash after two epochs. Each epoch is
	// RunEpoch's two halves, with the shares it published read at the
	// proxies in between, before the drain's commit releases them.
	cfgA := taxiSystemConfig(t, 8, recoveryParams)
	cfgA.DataDir = dir
	cfgA.WALFsync = wal.PolicyEveryBatch
	sysA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	published := shareLog{}
	var got []aggregator.Result
	for e := 0; e < crashAfter; e++ {
		if _, err := sysA.AnswerEpoch(); err != nil {
			t.Fatal(err)
		}
		published.capture(t, sysA)
		res, _, err := sysA.drain()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res...)
	}
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: no Flush, no graceful drain — just release the
	// files so the second life can reopen them.
	sysA.Close()

	// Second life: rebuild over the same data directory with no query,
	// restore, and finish the run.
	cfgB := taxiSystemConfig(t, 8, recoveryParams)
	cfgB.Query = nil
	cfgB.DataDir = dir
	cfgB.WALFsync = wal.PolicyEveryBatch
	sysB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()
	// Every drain committed what it read, so the reopened brokers replayed
	// their journals and then released all of it from memory: the resume
	// arrives after a trim. Below that memory floor a fetch reads the WAL,
	// and what it reads is what the first life published.
	if len(published) == 0 {
		t.Fatal("the first life published nothing")
	}
	for at, want := range published {
		px := sysB.Fleet().Proxy(at.proxy)
		floor, err := px.Broker().CommittedOffset("never-committed", px.Topic(), at.partition)
		if err != nil || floor != int64(len(want)) {
			t.Fatalf("proxy %d partition %d: memory floor %d (%v) after reopening, want the drained log end %d",
				at.proxy, at.partition, floor, err, len(want))
		}
		recs, err := fetchRecords(px.Broker(), px.Topic(), at.partition, 0, len(want))
		if err != nil || len(recs) != len(want) {
			t.Fatalf("proxy %d partition %d: fetch below the floor read %d of %d records: %v", at.proxy, at.partition, len(recs), len(want), err)
		}
		for j, rec := range recs {
			if rec.Offset != want[j].Offset || !bytes.Equal(rec.Key, want[j].Key) || !bytes.Equal(rec.Value, want[j].Value) {
				t.Fatalf("proxy %d partition %d offset %d reads back from the WAL unlike it was published", at.proxy, at.partition, j)
			}
		}
	}
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if got, want := sysB.Epoch(), uint64(crashAfter); got != want {
		t.Fatalf("restored epoch = %d, want %d", got, want)
	}
	got = runEpochsInto(t, sysB, epochs-crashAfter, got)
	final, err = sysB.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, final...)

	if !resultsEqual(got, want) {
		t.Fatalf("resumed run diverged from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
	// No window double-fired, no answer double-counted.
	if gs, ws := sysB.Aggregator().Stats(), ref.Aggregator().Stats(); gs != ws {
		t.Fatalf("stats diverged: got %+v want %+v", gs, ws)
	}
}

// TestSystemResumeBehindReleasedEpochs: the crash comes two epochs after
// the checkpoint, and every drain in between committed — so the brokers
// have released, from memory, shares the checkpoint has not covered.
// The restored consumers seek below the reopened brokers' memory floor,
// and the first drain reads the first life's epochs 2–3 back from the
// WALs; the clients' republished shares of those epochs (the same MIDs)
// join as duplicates. Results must match an uninterrupted run, and so
// must every decoded answer. With the WAL reload disabled the first
// resumed drain fails with "offset out of range: 7 outside [9, 10]".
func TestSystemResumeBehindReleasedEpochs(t *testing.T) {
	const epochs, ckptAt, crashAt = 6, 2, 4
	dir := t.TempDir()
	durable := func(restart bool) *System {
		cfg := taxiSystemConfig(t, 8, recoveryParams)
		if restart {
			cfg.Query = nil
		}
		cfg.DataDir = dir
		cfg.WALFsync = wal.PolicyEveryBatch
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	ref, err := New(taxiSystemConfig(t, 8, recoveryParams))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := runEpochsInto(t, ref, epochs, nil)
	final, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, final...)

	sysA := durable(false)
	got := runEpochsInto(t, sysA, ckptAt, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 2–3 fire nothing the resumed run will not fire again: their
	// results die with the first life.
	runEpochsInto(t, sysA, crashAt-ckptAt, nil)
	sysA.Close()

	sysB := durable(true)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	got = runEpochsInto(t, sysB, crashAt-ckptAt, got)
	var republished int64
	for _, c := range sysB.Clients() {
		republished += c.Stats().AnswersSent
	}
	republished *= int64(sysB.Fleet().Size())
	got = runEpochsInto(t, sysB, epochs-crashAt, got)
	final, err = sysB.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, final...)

	if !resultsEqual(got, want) {
		t.Fatalf("resume behind released epochs diverged:\ngot  %+v\nwant %+v", got, want)
	}
	gs, ws := sysB.Aggregator().Stats(), ref.Aggregator().Stats()
	if gs.Decoded != ws.Decoded {
		t.Fatalf("decoded %d answers, want %d", gs.Decoded, ws.Decoded)
	}
	if republished == 0 || gs.Duplicates != republished {
		t.Fatalf("%d duplicates, want the %d shares republished for epochs %d–%d", gs.Duplicates, republished, ckptAt, crashAt-1)
	}
}

// TestSystemCheckpointResumeMultiQuery runs the same protocol through
// the control plane with two queries: the second life registers nothing,
// and Restore installs both from the control topic.
func TestSystemCheckpointResumeMultiQuery(t *testing.T) {
	const epochs, crashAfter = 5, 2
	dir := t.TempDir()

	q1, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := workload.TaxiQuery("analyst", 2, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	build := func(dataDir string, queries ...*query.Query) *System {
		cfg := taxiSystemConfig(t, 6, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dataDir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if err := sys.Register(q); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}

	ref := build("", q1, q2)
	defer ref.Close()
	want := runEpochsInto(t, ref, epochs, nil)
	final, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, final...)

	sysA := build(dir, q1, q2)
	got := runEpochsInto(t, sysA, crashAfter, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	sysB := build(dir)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	got = runEpochsInto(t, sysB, epochs-crashAfter, got)
	final, err = sysB.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, final...)

	if !resultsEqual(got, want) {
		t.Fatalf("multi-query resumed run diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRestoreResumesAnnouncementVersion: the restored registry takes the
// checkpoint's query set at the checkpoint's version, so the
// registration the first life announced after the checkpoint, re-driven
// after the restart, repeats that announcement's position: it reaches
// the clients, and a different registration in its place is refused.
// (Regression: the registry restarted its version below the replayed
// ones, and the applier ignored every later announcement.)
func TestRestoreResumesAnnouncementVersion(t *testing.T) {
	dir := t.TempDir()
	q1, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := workload.TaxiQuery("analyst", 2, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *System {
		cfg := taxiSystemConfig(t, 4, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	sysA := build()
	if err := sysA.Register(q1); err != nil {
		t.Fatal(err)
	}
	// Shed moves announce snapshots without re-subscribing: the first
	// life checkpoints three versions in and registers a second query in
	// a fourth.
	for _, shed := range []float64{0.5, 1} {
		if err := sysA.Registry().SetShed(q1.QID, shed); err != nil {
			t.Fatal(err)
		}
	}
	runEpochsInto(t, sysA, 2, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := sysA.Register(q2); err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	sysB := build()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if ids := sysB.Registry().Active(); len(ids) != 1 || ids[0] != q1.QID || sysB.Registry().Version() != 3 {
		t.Fatalf("restored registry at version %d holds %v, want only %s at version 3", sysB.Registry().Version(), ids, q1.QID)
	}
	if err := sysB.Register(q2); err != nil {
		t.Fatal(err)
	}
	for i, c := range sysB.Clients() {
		if got := c.Subscriptions(); got != 2 {
			t.Fatalf("client %d holds %d subscriptions after a post-restore registration, want 2", i, got)
		}
	}
	sysB.Close()

	q3, err := workload.TaxiQuery("analyst", 3, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sysC := build()
	defer sysC.Close()
	if err := sysC.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := sysC.Register(q3); !errors.Is(err, errConfig) {
		t.Fatalf("a registration unlike the first life's after the restore: %v, want ErrConfig", err)
	}
}

// TestSystemRestoreRejectsForeignCheckpoint: restoring a checkpoint
// into a system that has registered a query, or whose control topic
// ends before the checkpoint's control position, fails loudly instead of
// silently resuming the wrong state.
func TestSystemRestoreRejectsForeignCheckpoint(t *testing.T) {
	sysA, err := New(taxiSystemConfig(t, 4, recoveryParams))
	if err != nil {
		t.Fatal(err)
	}
	defer sysA.Close()
	if _, _, err := sysA.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	otherCfg := taxiSystemConfig(t, 4, recoveryParams)
	q, err := workload.TaxiQuery("other-analyst", 7, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	otherCfg.Query = q
	sysB, err := New(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sysB.Close()
	if err := sysB.Restore(ckpt); !errors.Is(err, errConfig) {
		t.Fatalf("a checkpoint restored into a system with a query: %v, want ErrConfig", err)
	}
	// A system with no query has only its registry's first announcement
	// on its control topic, below the checkpoint's control position.
	otherCfg.Query = nil
	sysC, err := New(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sysC.Close()
	if err := sysC.Restore(ckpt); !errors.Is(err, errConfig) || !errors.Is(err, role.ErrCheckpoint) {
		t.Fatalf("a checkpoint past the control topic's end: %v, want ErrConfig and role.ErrCheckpoint", err)
	}
	if err := sysB.Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage checkpoint restored without error")
	}
	// PSC2 and PNC1 are the magics of the system's and the node's records
	// before both wrote the one role record, and PCR1 that record's
	// before it held the control position.
	for _, magic := range []string{"PSC9", "PSC2", "PNC1", "PCR1"} {
		if err := sysB.Restore(append([]byte(magic), ckpt[4:]...)); !errors.Is(err, errConfig) || !errors.Is(err, role.ErrCheckpoint) {
			t.Fatalf("checkpoint magic %s: %v, want ErrConfig and role.ErrCheckpoint", magic, err)
		}
	}
}

// TestSystemCheckpointResumeMidRunRegistration pins the fast-forward
// accounting for queries registered mid-run: a query that came alive at
// epoch 2 never consumed coins for epochs 0-1, so the restored clients
// must skip only the epochs it was actually live for. (Regression: an
// unconditional FastForward(epoch) over-skipped and diverged.)
func TestSystemCheckpointResumeMidRunRegistration(t *testing.T) {
	const epochs, registerAt, crashAfter = 6, 2, 4
	dir := t.TempDir()

	q1, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := workload.TaxiQuery("analyst", 2, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	build := func(dataDir string) *System {
		cfg := taxiSystemConfig(t, 6, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dataDir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// Drive: q1 from the start, q2 registered at epoch registerAt.
	run := func(sys *System, from, to int, results []aggregator.Result) []aggregator.Result {
		if from == 0 {
			if err := sys.Register(q1); err != nil {
				t.Fatal(err)
			}
		}
		for e := from; e < to; e++ {
			if e == registerAt {
				if err := sys.Register(q2); err != nil {
					t.Fatal(err)
				}
			}
			res, _, err := sys.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res...)
		}
		return results
	}

	ref := build("")
	defer ref.Close()
	want := run(ref, 0, epochs, nil)
	final, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, final...)

	sysA := build(dir)
	got := run(sysA, 0, crashAfter, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	// The second life registers nothing: Restore installs both queries
	// from the control topic, and q2's subscription must be
	// fast-forwarded only through epochs [2, 4).
	sysB := build(dir)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	got = run(sysB, crashAfter, epochs, got)
	final, err = sysB.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, final...)

	if !resultsEqual(got, want) {
		t.Fatalf("mid-run-registration resume diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSystemRestoreBeforeLaterRegistration: the checkpoint at epoch 2
// predates a registration at epoch 4, and the first life runs on to
// epoch 5 before it dies, so its control topic holds the newer query
// set. The second life registers nothing, restores the epoch-2 record —
// the restore replays the control topic to the record's control
// position, so both followers hold only the first query — and re-drives
// from the cut, the second query's registration at epoch 4 included.
// Results equal an uninterrupted run, and the share ledger balances over
// both lives' answers.
func TestSystemRestoreBeforeLaterRegistration(t *testing.T) {
	const epochs, ckptAt, registerAt, crashAfter = 8, 2, 4, 6
	dir := t.TempDir()
	q1, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := workload.TaxiQuery("analyst", 2, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	build := func(dataDir string) *System {
		cfg := taxiSystemConfig(t, 6, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dataDir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	run := func(sys *System, from, to int, results []aggregator.Result) []aggregator.Result {
		for e := from; e < to; e++ {
			for at, q := range map[int]*query.Query{0: q1, registerAt: q2} {
				if e == at {
					if err := sys.Register(q); err != nil {
						t.Fatal(err)
					}
				}
			}
			res, _, err := sys.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res...)
		}
		return results
	}

	ref := build("")
	defer ref.Close()
	want := run(ref, 0, epochs, nil)
	final, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, final...)

	sysA := build(dir)
	got := run(sysA, 0, ckptAt, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	run(sysA, ckptAt, crashAfter, nil)
	answeredA, droppedA, _, err := sysA.ledger()
	if err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	sysB := build(dir)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if ids := sysB.Registry().Active(); len(ids) != 1 || ids[0] != q1.QID {
		t.Fatalf("restored registry holds %v, want only %s", ids, q1.QID)
	}
	got = run(sysB, ckptAt, epochs, got)
	final, err = sysB.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, final...)
	if !resultsEqual(got, want) {
		t.Fatalf("resume across a later registration diverged:\ngot  %+v\nwant %+v", got, want)
	}

	answeredB, droppedB, _, err := sysB.ledger()
	if err != nil {
		t.Fatal(err)
	}
	for i := range droppedB {
		droppedB[i] += droppedA[i]
	}
	if err := role.Balance(answeredA+answeredB, droppedB, role.Fetched(sysB.drainer.Consumers()), sysB.agg.Stats(), int64(sysB.agg.PendingJoins())); err != nil {
		t.Errorf("share ledger over both lives: %v", err)
	}
}

// change is what a schedule does at the start of an epoch, before the
// epoch runs; it returns the windows a stop flushed.
type change func(*System) ([]aggregator.Result, error)

func register(q *query.Query) change {
	return func(sys *System) ([]aggregator.Result, error) { return nil, sys.Register(q) }
}

func stop(id query.ID) change {
	return func(sys *System) ([]aggregator.Result, error) { return sys.StopQuery(id) }
}

// moveShed announces a shed threshold as the SLO controller does.
func moveShed(id query.ID, shed float64) change {
	return func(sys *System) ([]aggregator.Result, error) {
		if err := sys.Registry().SetShed(id, shed); err != nil {
			return nil, err
		}
		return sys.sync()
	}
}

// revise re-registers a query with a new sampling fraction, as Feedback
// does: the entry's revision moves, and the clients re-draw its coins.
func revise(id query.ID, s float64) change {
	return func(sys *System) ([]aggregator.Result, error) {
		e, _ := sys.Registry().Entry(id)
		e.Params.S = s
		if err := sys.Registry().Register(e.Signed, e.Params); err != nil {
			return nil, err
		}
		return sys.sync()
	}
}

// seq makes changes one after the other between the same two epochs.
func seq(changes ...change) change {
	return func(sys *System) ([]aggregator.Result, error) {
		var flushed []aggregator.Result
		for _, ch := range changes {
			res, err := ch(sys)
			if err != nil {
				return nil, err
			}
			flushed = append(flushed, res...)
		}
		return flushed, nil
	}
}

// resumeSchedule is a crash schedule: the changes made at the start of
// given epochs, the epoch the first life checkpoints at, and the epoch
// it dies before.
type resumeSchedule struct {
	epochs, ckptAt, crashAfter int
	changes                    map[int]change
}

// resumesEqual runs a schedule uninterrupted, and again as two lives
// over one data directory: the first checkpoints at ckptAt, changes and
// runs on to crashAfter and dies; the second restores the checkpoint and
// re-drives the schedule from the cut. Results are equal window for
// window, Shed included; role.Balance holds over both lives' answers,
// and the uninterrupted run's windows are conserved.
func resumesEqual(t *testing.T, sched resumeSchedule) {
	t.Helper()
	dir := t.TempDir()
	build := func(dataDir string) *System {
		cfg := taxiSystemConfig(t, 6, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dataDir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// since maps a query to the first of its results since a change last
	// flushed its windows: a query stopped and registered again is
	// conserved from there, as its telemetry starts there.
	since := make(map[query.ID]int)
	run := func(sys *System, from, to int, results []aggregator.Result) []aggregator.Result {
		for e := from; e < to; e++ {
			if ch := sched.changes[e]; ch != nil {
				flushed, err := ch(sys)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, flushed...)
				for _, res := range flushed {
					since[res.Query] = len(results)
				}
			}
			results = runEpochsInto(t, sys, 1, results)
		}
		return results
	}
	flush := func(sys *System, results []aggregator.Result) []aggregator.Result {
		final, err := sys.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return append(results, final...)
	}

	ref := build("")
	defer ref.Close()
	want := flush(ref, run(ref, 0, sched.epochs, nil))
	var current []aggregator.Result
	for i, res := range want {
		if i >= since[res.Query] {
			current = append(current, res)
		}
	}
	windowsConserved(t, ref, current)

	sysA := build(dir)
	got := run(sysA, 0, sched.ckptAt, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	run(sysA, sched.ckptAt, sched.crashAfter, nil)
	answeredA, droppedA, _, err := sysA.ledger()
	if err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	sysB := build(dir)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	got = flush(sysB, run(sysB, sched.ckptAt, sched.epochs, got))
	if !resultsEqual(got, want) {
		t.Fatalf("resumed run diverged:\ngot  %+v\nwant %+v", got, want)
	}
	answeredB, droppedB, _, err := sysB.ledger()
	if err != nil {
		t.Fatal(err)
	}
	for i := range droppedB {
		droppedB[i] += droppedA[i]
	}
	if err := role.Balance(answeredA+answeredB, droppedB, role.Fetched(sysB.drainer.Consumers()), sysB.agg.Stats(), int64(sysB.agg.PendingJoins())); err != nil {
		t.Errorf("share ledger over both lives: %v", err)
	}
}

// resumeQueries returns queries 1..n of one analyst, with a 4 s window
// that slides by slide.
func resumeQueries(t *testing.T, n int, slide time.Duration) []*query.Query {
	t.Helper()
	qs := make([]*query.Query, n)
	for i := range qs {
		q, err := workload.TaxiQuery("analyst", uint64(i+1), time.Second, 4*time.Second, slide)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// TestSystemRestoreResumesLaterChanges: the first life changes the query
// set after its checkpoint and before it dies. Every announcement is
// stamped with the epoch it applies from, so the restored clients apply
// each at its epoch and the aggregator estimates and stamps each window
// under the entry in force at its closing epoch: the re-driven run
// equals an uninterrupted one. Registrations, stops and revisions change
// the set at epochs 3 to 5, one or two between the same two epochs,
// after a checkpoint at 2; the shed move comes at 6, after a sliding
// window has fired, with the checkpoint at 2 and the crash after epoch
// 7.
func TestSystemRestoreResumesLaterChanges(t *testing.T) {
	tumbling, sliding := resumeQueries(t, 3, 4*time.Second), resumeQueries(t, 1, time.Second)
	for _, tc := range []struct {
		name  string
		sched resumeSchedule
	}{
		{"two registrations", resumeSchedule{8, 2, 6, map[int]change{0: register(tumbling[0]), 3: register(tumbling[1]), 4: register(tumbling[2])}}},
		{"a stop", resumeSchedule{8, 2, 6, map[int]change{0: register(tumbling[0]), 3: stop(tumbling[0].QID)}}},
		{"a revision", resumeSchedule{8, 2, 6, map[int]change{0: register(tumbling[0]), 3: revise(tumbling[0].QID, 0.5)}}},
		{"two registrations in one epoch", resumeSchedule{8, 2, 6, map[int]change{0: register(tumbling[0]), 3: seq(register(tumbling[1]), register(tumbling[2]))}}},
		{"a stop and a registration again", resumeSchedule{8, 2, 6, map[int]change{0: seq(register(tumbling[0]), register(tumbling[1])), 3: stop(tumbling[0].QID), 5: register(tumbling[0])}}},
		{"a stop and a registration again in one epoch", resumeSchedule{8, 2, 6, map[int]change{0: seq(register(tumbling[0]), register(tumbling[1])), 3: seq(stop(tumbling[0].QID), register(tumbling[0]))}}},
		{"a registration and a stop in one epoch", resumeSchedule{8, 2, 6, map[int]change{0: register(tumbling[0]), 3: seq(register(tumbling[1]), stop(tumbling[0].QID))}}},
		{"two revisions in one epoch", resumeSchedule{8, 2, 6, map[int]change{0: register(tumbling[0]), 3: seq(revise(tumbling[0].QID, 0.5), revise(tumbling[0].QID, 0.7))}}},
		{"a revision and a registration in one epoch", resumeSchedule{8, 2, 6, map[int]change{0: register(tumbling[0]), 4: seq(revise(tumbling[0].QID, 0.5), register(tumbling[1]))}}},
		{"a shed move after a window fired", resumeSchedule{10, 2, 8, map[int]change{0: register(sliding[0]), 6: moveShed(sliding[0].QID, 0.5)}}},
	} {
		t.Run(tc.name, func(t *testing.T) { resumesEqual(t, tc.sched) })
	}
}

// TestSystemRestoreAfterRevisionBeforeCut: a revision at epoch 2 re-draws
// the query's coin stream, and the checkpoint at 4 follows it. The
// restored clients replay the cut epoch by epoch, so the revised
// subscription is skipped through epochs 2 and 3 only, not from the
// query's first registration; two revisions between the same two
// epochs re-draw it twice in the replay, as in the live run.
func TestSystemRestoreAfterRevisionBeforeCut(t *testing.T) {
	q := resumeQueries(t, 1, 4*time.Second)[0]
	for _, tc := range []struct {
		name     string
		revision change
	}{{"one revision", revise(q.QID, 0.5)}, {"two revisions", seq(revise(q.QID, 0.5), revise(q.QID, 0.7))}} {
		t.Run(tc.name, func(t *testing.T) {
			resumesEqual(t, resumeSchedule{10, 4, 6, map[int]change{0: register(q), 2: tc.revision}})
		})
	}
}

// TestSystemCheckpointBeforeFirstRegistration: an epoch run before the
// first registration moves the clients' follower past the registry's
// first, empty announcement, but not the aggregator's, which reads the
// control topic only after a registry change or in a drain step that
// read shares. Checkpoint brings the aggregator's up, and the record
// restores into a system with no query whose re-drive equals an
// uninterrupted run.
func TestSystemCheckpointBeforeFirstRegistration(t *testing.T) {
	const epochs, registerAt = 5, 1
	dir := t.TempDir()
	q, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	build := func(dataDir string) *System {
		cfg := taxiSystemConfig(t, 6, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dataDir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	run := func(sys *System, from int, results []aggregator.Result) []aggregator.Result {
		for e := from; e < epochs; e++ {
			if e == registerAt {
				if err := sys.Register(q); err != nil {
					t.Fatal(err)
				}
			}
			results = runEpochsInto(t, sys, 1, results)
		}
		final, err := sys.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return append(results, final...)
	}

	ref := build("")
	defer ref.Close()
	want := run(ref, 0, nil)

	sysA := build(dir)
	got := runEpochsInto(t, sysA, registerAt, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sysA.Close()

	sysB := build(dir)
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if got := run(sysB, registerAt, got); len(want) == 0 || !resultsEqual(got, want) {
		t.Fatalf("resume from before the first registration diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSystemRestoreTwiceMidReplay: with SLO control on and a sliding
// window, the second life checkpoints while it still re-reads what the
// first life published past the first cut, and the third life restores
// that record. The answers of epochs past the drain's clock wait in the
// aggregator and ride in the second record, so every epoch of every life
// fires the windows an uninterrupted run fires in it, Shed included, and
// role.Balance holds over the three lives' answers.
func TestSystemRestoreTwiceMidReplay(t *testing.T) {
	const epochs, ckpt1, crash1, ckpt2, crash2 = 10, 2, 7, 4, 5
	q := resumeQueries(t, 1, time.Second)[0]
	dir := t.TempDir()
	build := func(dataDir string, first bool) *System {
		cfg := taxiSystemConfig(t, 6, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dataDir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			if err := sys.Register(q); err != nil {
				t.Fatal(err)
			}
			if err := sys.EnableSLO(1, 0.1, 2); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	ref := build("", true)
	defer ref.Close()
	want := make([][]aggregator.Result, epochs)
	for e := range want {
		want[e] = runEpochsInto(t, ref, 1, nil)
	}

	var answered int64
	var dropped []int64
	// live runs epochs [from, to), checking each against the reference;
	// die adds a life's answers to the ledger.
	live := func(sys *System, from, to int) {
		for e := from; e < to; e++ {
			if got := runEpochsInto(t, sys, 1, nil); !resultsEqual(got, want[e]) {
				t.Fatalf("epoch %d diverged:\ngot  %+v\nwant %+v", e, got, want[e])
			}
		}
	}
	die := func(sys *System) {
		a, d, _, err := sys.ledger()
		if err != nil {
			t.Fatal(err)
		}
		answered += a
		if dropped == nil {
			dropped = make([]int64, len(d))
		}
		for i := range d {
			dropped[i] += d[i]
		}
		sys.Close()
	}
	checkpoint := func(sys *System) []byte {
		rec, err := sys.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	restore := func(rec []byte) *System {
		sys := build(dir, false)
		if err := sys.Restore(rec); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	sysA := build(dir, true)
	live(sysA, 0, ckpt1)
	rec1 := checkpoint(sysA)
	live(sysA, ckpt1, crash1+1)
	die(sysA)

	sysB := restore(rec1)
	live(sysB, ckpt1, ckpt2)
	rec2 := checkpoint(sysB)
	live(sysB, ckpt2, crash2+1)
	die(sysB)

	sysC := restore(rec2)
	defer sysC.Close()
	live(sysC, ckpt2, epochs)
	a, d, _, err := sysC.ledger()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		d[i] += dropped[i]
	}
	if err := role.Balance(answered+a, d, role.Fetched(sysC.drainer.Consumers()), sysC.agg.Stats(), int64(sysC.agg.PendingJoins())); err != nil {
		t.Errorf("share ledger over three lives: %v", err)
	}
}
