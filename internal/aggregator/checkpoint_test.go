package aggregator

import (
	"errors"
	"reflect"
	"testing"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// ckptParams exercises the estimator: p < 1 makes every window fire run
// the RR-loss simulation, consuming the seeded rng the checkpoint must
// reproduce.
var ckptParams = budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}

// runScripted drives one aggregator through a deterministic submission
// script: population clients × epochs answers, bucket (client+epoch) %
// nbuckets, collecting every fired result in order. When stopAt is
// non-negative the run halts right after that many (client, epoch)
// submissions and returns without flushing.
func runScripted(t *testing.T, a *Aggregator, sp *xorcrypt.Splitter, qid uint64, nbuckets, population, epochs, stopAt int) []Result {
	t.Helper()
	var fired []Result
	step := 0
	for e := 0; e < epochs; e++ {
		for c := 0; c < population; c++ {
			if stopAt >= 0 && step == stopAt {
				return fired
			}
			fired = append(fired, submitMessage(t, a, sp, qid, uint64(e), (c+e)%nbuckets, nbuckets)...)
			step++
		}
	}
	return fired
}

func flushInto(t *testing.T, a *Aggregator, fired []Result) []Result {
	t.Helper()
	res, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(fired, res...)
}

// TestCheckpointRestoreMidStream is the package-level statement of the
// crash gate: kill an aggregator mid-stream, restore a fresh one from
// its checkpoint, feed it the remainder of the stream, and the combined
// result sequence — estimates, margins, counters, everything — is
// identical to an uninterrupted run.
func TestCheckpointRestoreMidStream(t *testing.T) {
	const nbuckets, population, epochs = 4, 12, 4
	cfg := testConfig(t, nbuckets, ckptParams, population)
	qid := cfg.Query.QID.Uint64()

	// Crashed run: stop midway through epoch 2 — after windows have
	// fired (the estimator rng has been consumed) and with epoch 2
	// partially accumulated.
	const stopAt = 2*population + 5
	crashed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spA, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	preResults := runScripted(t, crashed, spA, qid, nbuckets, population, epochs, stopAt)

	// Leave a half-joined message behind: source 0's share arrives
	// before the crash, source 1's only after the restore.
	pendingVec, err := answer.OneHot(nbuckets, 1)
	if err != nil {
		t.Fatal(err)
	}
	pendingMsg := answer.Message{QueryID: qid, Epoch: 2, Answer: pendingVec}
	rawPending, err := pendingMsg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pendingShares, err := spA.Split(rawPending)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitOne(crashed, pendingShares[0], 0); err != nil {
		t.Fatal(err)
	}
	if got := crashed.PendingJoins(); got != 1 {
		t.Fatalf("expected 1 pending join before checkpoint, got %d", got)
	}

	ckpt, err := crashed.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Restored run: a fresh aggregator, same config and query, fed the
	// checkpoint and then the rest of the stream.
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if got := restored.PendingJoins(); got != 1 {
		t.Fatalf("restored aggregator lost the pending join: %d", got)
	}
	// The straggler share completes the pre-crash message.
	if _, err := submitOne(restored, pendingShares[1], 1); err != nil {
		t.Fatal(err)
	}

	postResults := replayRemainder(t, restored, qid, nbuckets, population, epochs, stopAt)
	gotResults := append(append([]Result{}, preResults...), postResults...)
	gotResults = flushInto(t, restored, gotResults)

	// Reference: an uninterrupted aggregator sees the identical stream —
	// the same script with the same extra message at the same position
	// (its share payloads differ, splitter keystreams are independent,
	// but the decoded answers are identical, which is all results depend
	// on).
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spRef, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := runScripted(t, ref, spRef, qid, nbuckets, population, epochs, stopAt)
	refShares, err := spRef.Split(rawPending)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitOne(ref, refShares[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := submitOne(ref, refShares[1], 1); err != nil {
		t.Fatal(err)
	}
	want = append(want, replayRemainder(t, ref, qid, nbuckets, population, epochs, stopAt)...)
	want = flushInto(t, ref, want)
	if len(want) == 0 {
		t.Fatal("reference run fired no windows")
	}

	if !reflect.DeepEqual(gotResults, want) {
		t.Fatalf("restored run diverged from uninterrupted run:\ngot  %+v\nwant %+v", gotResults, want)
	}
	if gotStats, wantStats := restored.Stats(), ref.Stats(); gotStats != wantStats {
		t.Fatalf("stats diverged: got %+v want %+v", gotStats, wantStats)
	}
}

// replayRemainder submits the script's (client, epoch) pairs from
// stopAt onward.
func replayRemainder(t *testing.T, a *Aggregator, qid uint64, nbuckets, population, epochs, stopAt int) []Result {
	t.Helper()
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fired []Result
	step := 0
	for e := 0; e < epochs; e++ {
		for c := 0; c < population; c++ {
			if step >= stopAt {
				fired = append(fired, submitMessage(t, a, sp, qid, uint64(e), (c+e)%nbuckets, nbuckets)...)
			}
			step++
		}
	}
	return fired
}

// TestCheckpointRestoresDuplicateSuppression: a share replayed after the
// restart, for a message that completed before the checkpoint, must
// still be rejected — the completed-keys memory survives.
func TestCheckpointRestoresDuplicateSuppression(t *testing.T) {
	const nbuckets = 4
	cfg := testConfig(t, nbuckets, ckptParams, 10)
	qid := cfg.Query.QID.Uint64()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := answer.OneHot(nbuckets, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := (&answer.Message{QueryID: qid, Epoch: 0, Answer: vec}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sp.Split(raw)
	if err != nil {
		t.Fatal(err)
	}
	for src, sh := range shares {
		if _, err := submitOne(a, sh, src); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := a.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	// Replay one of the original shares at the restored aggregator.
	if _, err := submitOne(b, shares[0], 0); err != nil {
		t.Fatal(err)
	}
	if got := b.Duplicates(); got != 1 {
		t.Fatalf("replayed share after restore counted %d duplicates, want 1", got)
	}
	if got := b.Decoded(); got != 1 {
		t.Fatalf("decoded count after restore+replay = %d, want 1", got)
	}
}

func TestRestoreRejectsMismatches(t *testing.T) {
	const nbuckets = 4
	cfg := testConfig(t, nbuckets, ckptParams, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := a.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Garbage and truncation fail loudly.
	fresh := func() *Aggregator {
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := fresh().Restore([]byte("not a checkpoint")); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("garbage restore: %v", err)
	}
	if err := fresh().Restore(append([]byte("PAC9"), ckpt[4:]...)); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("unknown-magic restore: %v", err)
	}
	if err := fresh().Restore(ckpt[:len(ckpt)-3]); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("truncated restore: %v", err)
	}
	if err := fresh().Restore(append(append([]byte{}, ckpt...), 0xFF)); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("trailing-bytes restore: %v", err)
	}

	// A different registered query must be rejected.
	otherCfg := cfg
	otherCfg.Query = testQuery(t, nbuckets)
	otherCfg.Query.QID = query.ID{Analyst: "someone-else", Serial: 9}
	other, err := New(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(ckpt); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("mismatched query restore: %v", err)
	}

	// A different seed must be rejected: the estimator replay would
	// silently diverge otherwise.
	seedCfg := cfg
	seedCfg.Seed = cfg.Seed + 1
	seeded, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := seeded.Restore(ckpt); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("mismatched seed restore: %v", err)
	}
}

// TestCheckpointMultiQuery pins the per-query demux of restored state:
// two queries with different seeds and bucket counts, checkpointed
// mid-stream, must each resume their own windows and estimator streams.
func TestCheckpointMultiQuery(t *testing.T) {
	cfg := Config{
		Population: 8,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       11,
	}
	q1 := testQuery(t, 4)
	q2 := testQuery(t, 6)
	q2.QID = query.ID{Analyst: "b", Serial: 7}

	build := func() *Aggregator {
		a, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AddQuery(QuerySpec{Query: q1, Params: ckptParams}); err != nil {
			t.Fatal(err)
		}
		if err := a.AddQuery(QuerySpec{Query: q2, Params: ckptParams, Seed: 99}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	script := func(a *Aggregator, sp *xorcrypt.Splitter, from, to int) []Result {
		var fired []Result
		step := 0
		for e := 0; e < 4; e++ {
			for c := 0; c < 8; c++ {
				if step >= from && step < to {
					fired = append(fired, submitMessage(t, a, sp, q1.QID.Uint64(), uint64(e), (c+e)%4, 4)...)
					fired = append(fired, submitMessage(t, a, sp, q2.QID.Uint64(), uint64(e), (c+2*e)%6, 6)...)
				}
				step++
			}
		}
		return fired
	}
	newSplitter := func() *xorcrypt.Splitter {
		sp, err := xorcrypt.NewSplitter(2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}

	ref := build()
	want := flushInto(t, ref, script(ref, newSplitter(), 0, 1<<30))

	const stopAt = 19
	crashed := build()
	pre := script(crashed, newSplitter(), 0, stopAt)
	ckpt, err := crashed.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	got := append(pre, script(restored, newSplitter(), stopAt, 1<<30)...)
	got = flushInto(t, restored, got)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-query restore diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if rs, ws := restored.Stats(), ref.Stats(); rs != ws {
		t.Fatalf("multi-query stats diverged: got %+v want %+v", rs, ws)
	}
}
