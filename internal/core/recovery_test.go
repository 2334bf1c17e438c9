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
	"privapprox/internal/role"
	"privapprox/internal/rr"
	"privapprox/internal/wal"
	"privapprox/internal/workload"
)

// recoveryParams exercise both noise sources (s<1, p<1) so the
// estimator's seeded rng is genuinely consumed across the checkpoint.
var recoveryParams = budget.Params{S: 0.9, RR: rr.Params{P: 0.9, Q: 0.6}}

// resultsEqual reports whether two result sequences are identical — the
// recovery tests' byte-level comparison.
func resultsEqual(a, b []aggregator.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Query != b[i].Query || a[i].Responses != b[i].Responses ||
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
			recs, err := px.Broker().Fetch(px.Topic(), p, int64(len(l[at])), math.MaxInt32)
			if err != nil {
				t.Fatal(err)
			}
			l[at] = append(l[at], recs...)
		}
	}
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
		res, err := sysA.drain()
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

	// Second life: rebuild over the same data directory, restore, and
	// finish the run.
	cfgB := taxiSystemConfig(t, 8, recoveryParams)
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
		recs, err := px.Broker().Fetch(px.Topic(), at.partition, 0, len(want))
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
	durable := func() *System {
		cfg := taxiSystemConfig(t, 8, recoveryParams)
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

	sysA := durable()
	got := runEpochsInto(t, sysA, ckptAt, nil)
	ckpt, err := sysA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 2–3 fire nothing the resumed run will not fire again: their
	// results die with the first life.
	runEpochsInto(t, sysA, crashAt-ckptAt, nil)
	sysA.Close()

	sysB := durable()
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
// the control plane: queries re-registered after the restart (the same
// announcements a durable control topic would replay), then Restore.
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
	build := func(dataDir string) *System {
		cfg := taxiSystemConfig(t, 6, recoveryParams)
		cfg.Query = nil
		cfg.DataDir = dataDir
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Register(q1); err != nil {
			t.Fatal(err)
		}
		if err := sys.Register(q2); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	ref := build("")
	defer ref.Close()
	want := runEpochsInto(t, ref, epochs, nil)
	final, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, final...)

	sysA := build(dir)
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

// TestRestoreResumesAnnouncementVersion: the durable control topic
// replays the first life's snapshots, which ran to a higher version than
// the second life's re-registrations reach. After Restore, what the
// second life announces must still reach its clients — here a query
// registered after the restart. (Regression: the registry restarted its
// version below the replayed ones, and the newest-wins applier ignored
// every later announcement.)
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
		if err := sys.Register(q1); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	sysA := build()
	// Shed moves announce snapshots without re-subscribing: the first
	// life ends three versions in.
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
	sysA.Close()

	sysB := build()
	defer sysB.Close()
	if err := sysB.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := sysB.Register(q2); err != nil {
		t.Fatal(err)
	}
	for i, c := range sysB.Clients() {
		if got := c.Subscriptions(); got != 2 {
			t.Fatalf("client %d holds %d subscriptions after a post-restore registration, want 2", i, got)
		}
	}
}

// TestSystemRestoreRejectsForeignCheckpoint: restoring a checkpoint
// into a system with a different query set fails loudly instead of
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
	if err := sysB.Restore(ckpt); err == nil {
		t.Fatal("foreign checkpoint restored without error")
	}
	if err := sysB.Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage checkpoint restored without error")
	}
	// PSC2 and PNC1 are the magics of the system's and the node's records
	// before both wrote the one role record.
	for _, magic := range []string{"PSC9", "PSC2", "PNC1"} {
		if err := sysB.Restore(append([]byte(magic), ckpt[4:]...)); !errors.Is(err, ErrConfig) || !errors.Is(err, role.ErrCheckpoint) {
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
		if err := sys.Register(q1); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// Drive: q1 from the start, q2 registered at epoch registerAt.
	run := func(sys *System, from, to int, results []aggregator.Result) []aggregator.Result {
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

	// Second life re-registers BOTH queries (as a replayed control
	// topic would deliver them) before Restore; q2's subscription must
	// be fast-forwarded only through epochs [2, 4).
	sysB := build(dir)
	defer sysB.Close()
	if err := sysB.Register(q2); err != nil {
		t.Fatal(err)
	}
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
