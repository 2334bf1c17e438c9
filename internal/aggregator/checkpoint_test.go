package aggregator

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// ckptParams exercises the estimator: p < 1 makes every window fire run
// the RR-loss simulation, moving the seeded stream whose position the
// checkpoint must carry.
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
	pendingShares, err := spA.SplitInto(rawPending, new(xorcrypt.SplitScratch))
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
	refShares, err := spRef.SplitInto(rawPending, new(xorcrypt.SplitScratch))
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
	shares, err := sp.SplitInto(raw, new(xorcrypt.SplitScratch))
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
	if got := b.Stats().Duplicates; got != 1 {
		t.Fatalf("replayed share after restore counted %d duplicates, want 1", got)
	}
	if got := b.Stats().Decoded; got != 1 {
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
	for _, old := range []string{"PAC2", "PAC3", "PAC4"} {
		if err := fresh().Restore(append([]byte(old), ckpt[4:]...)); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("%s restore: %v", old, err)
		}
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

	// A different seed must be rejected: the checkpointed stream
	// positions belong to the seed they were drawn from.
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
// two queries with different bucket counts, checkpointed mid-stream,
// must each resume their own windows and estimator streams.
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
		if err := a.AddQuery(QuerySpec{Query: q2, Params: ckptParams}); err != nil {
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

// TestEmptySharePendingRestores: a join group whose one share so far is
// empty is pending like any other (an empty share marks its source as
// seen), and a checkpoint taken while it waits restores.
func TestEmptySharePendingRestores(t *testing.T) {
	cfg := testConfig(t, 4, ckptParams, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitOne(a, xorcrypt.Share{MID: xorcrypt.MID{7}, Payload: []byte{}}, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := a.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(rec); err != nil {
		t.Fatalf("restoring a pending empty share: %v", err)
	}
	if b.PendingJoins() != 1 {
		t.Fatalf("%d pending joins restored, want 1", b.PendingJoins())
	}
	if again, err := b.Checkpoint(nil); err != nil || !bytes.Equal(again, rec) {
		t.Fatalf("restored state re-encodes to %x (%v), want %x", again, err, rec)
	}
}

// TestRestoreRefusesWhatCheckpointNeverWrites: a record that lists two
// panes with one start, a key both pending and completed, panes or
// message IDs out of ascending order, or a join entry older than the
// joiner's two generations is refused — restoring it would lose the
// first pane's counts or the parked shares, or index a third
// generation. So is a PAC3 record, a pane off the query's pane grid or
// not one pane long, which is what a PAC3 sliding window would be (its
// answers would count in windows they never fell in), and a pane whose
// every window is behind the watermark (it would never fire).
func TestRestoreRefusesWhatCheckpointNeverWrites(t *testing.T) {
	const nbuckets = 4
	cfg := testConfig(t, nbuckets, ckptParams, 10)
	qid := cfg.Query.QID.Uint64()
	u32 := func(n int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(n)) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// record runs script on a fresh aggregator and checkpoints it; the
	// record must restore as it is.
	record := func(script func(a *Aggregator, sp *xorcrypt.Splitter)) []byte {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := xorcrypt.NewSplitter(2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		script(a, sp)
		rec, err := a.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := restoreInto(t, cfg, rec); err != nil {
			t.Fatalf("the unaltered record: %v", err)
		}
		return rec
	}
	halfJoined := func(a *Aggregator, sp *xorcrypt.Splitter) {
		if _, err := submitOne(a, encodeShares(t, sp, qid, 0, nbuckets, 1)[0], 0); err != nil {
			t.Fatal(err)
		}
	}

	// The pane list follows the magic, eight counters, the query count,
	// and the query's identity and four counters.
	at := 4 + 8*8 + 4 + 4 + len(cfg.Query.QID.Analyst) + 8 + 8 + 4*8
	const win = 3*8 + 4 + nbuckets*8
	// moved is a pane entry with its start and end moved.
	moved := func(entry []byte, dStart, dEnd time.Duration) []byte {
		e := bytes.Clone(entry)
		binary.BigEndian.PutUint64(e, binary.BigEndian.Uint64(e)+uint64(dStart))
		binary.BigEndian.PutUint64(e[8:], binary.BigEndian.Uint64(e[8:])+uint64(dEnd))
		return e
	}
	one := record(func(a *Aggregator, sp *xorcrypt.Splitter) { submitMessage(t, a, sp, qid, 0, 0, nbuckets) })
	w := one[at+4 : at+4+win]
	// late is one's record with the watermark an hour on: its pane's
	// every window is behind it.
	late := bytes.Clone(one)
	binary.BigEndian.PutUint64(late[at-4*8:], uint64(testOrigin.Add(time.Hour).UnixNano()))
	two := record(func(a *Aggregator, sp *xorcrypt.Splitter) {
		submitMessage(t, a, sp, qid, 0, 0, nbuckets)
		submitMessage(t, a, sp, qid, 1, 1, nbuckets)
	})
	w0, w1 := two[at+4:at+4+win], two[at+4+win:at+4+2*win]
	// A fired window with three non-empty buckets memoizes three losses;
	// with no window left open they follow the stream state directly.
	fired := record(func(a *Aggregator, sp *xorcrypt.Splitter) {
		for _, b := range []int{0, 0, 0, 1, 1, 2} {
			submitMessage(t, a, sp, qid, 0, b, nbuckets)
		}
		if _, err := a.AdvanceTo(testOrigin.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	})
	memo := at + 4 + 4 + 20
	if got := binary.BigEndian.Uint32(fired[memo:]); got != 3 {
		t.Fatalf("%d memoized losses, want 3", got)
	}
	m0, m1 := fired[memo+4:memo+16], fired[memo+16:memo+28]

	// The join sections close the record: pending groups, then completed
	// keys. A group with source 0 parked is MID, age, source count, a
	// present share and an absent one.
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	share := len(encodeShares(t, sp, qid, 0, nbuckets, 1)[0].Payload)
	const key = xorcrypt.MIDSize + 1
	group := key + 4 + 1 + 4 + share + 1
	pend := record(halfJoined)
	g := pend[len(pend)-4-group : len(pend)-4]
	pend2 := record(func(a *Aggregator, sp *xorcrypt.Splitter) { halfJoined(a, sp); halfJoined(a, sp) })
	g0, g1 := pend2[len(pend2)-4-2*group:len(pend2)-4-group], pend2[len(pend2)-4-group:len(pend2)-4]
	done2 := record(func(a *Aggregator, sp *xorcrypt.Splitter) {
		submitMessage(t, a, sp, qid, 0, 0, nbuckets)
		submitMessage(t, a, sp, qid, 0, 1, nbuckets)
	})
	k0, k1 := done2[len(done2)-2*key:len(done2)-key], done2[len(done2)-key:]

	for name, rec := range map[string][]byte{
		"two panes with one start":     join(one[:at], u32(2), w, w, one[at+4+win:]),
		"panes out of order":           join(two[:at], u32(2), w1, w0, two[at+4+2*win:]),
		"a PAC3 record":                join([]byte("PAC3"), one[4:]),
		"a pane off the pane grid":     join(one[:at+4], moved(w, time.Second, time.Second), one[at+4+win:]),
		"a pane longer than a pane":    join(one[:at+4], moved(w, 0, cfg.Query.Window), one[at+4+win:]),
		"a pane behind the watermark":  late,
		"memoized losses out of order": join(fired[:memo+4], m1, m0, fired[memo+28:]),
		"a key pending and completed":  join(pend[:len(pend)-4], u32(1), g[:key]),
		"pending groups out of order":  join(pend2[:len(pend2)-4-2*group], g1, g0, u32(0)),
		"completed keys out of order":  join(done2[:len(done2)-2*key], k1, k0),
		"a pending group of age 2":     join(pend[:len(pend)-4-group], g[:key-1], []byte{2}, g[key:], u32(0)),
	} {
		if err := restoreInto(t, cfg, rec); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: restore returned %v", name, err)
		}
	}
}

// restoreInto restores rec into a fresh aggregator built from cfg.
func restoreInto(t testing.TB, cfg Config, rec []byte) error {
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a.Restore(rec)
}

// restoreTarget builds a fresh aggregator with the first n of two
// queries registered: the three shapes FuzzAggregatorRestore's records
// fit.
func restoreTarget(t testing.TB, n int) (*Aggregator, []*query.Query) {
	q2 := testQuery(t, 6)
	q2.QID = query.ID{Analyst: "b", Serial: 7}
	queries := []*query.Query{testQuery(t, 4), q2}[:n]
	a, err := NewMulti(Config{Population: 8, Proxies: 2, Origin: testOrigin, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := a.AddQuery(QuerySpec{Query: q, Params: ckptParams}); err != nil {
			t.Fatal(err)
		}
	}
	return a, queries
}

// FuzzAggregatorRestore: Restore never panics, and a record it accepts
// re-encodes through Checkpoint to its own bytes, while its proper
// prefixes are refused. The seeds are an empty aggregator's record
// and two taken mid-stream — one and two queries, with open windows,
// memoized losses, completed keys, pending joins, an empty share among
// them, and a message parked past the last round's epoch.
func FuzzAggregatorRestore(f *testing.F) {
	for n := range 3 {
		a, queries := restoreTarget(f, n)
		sp, err := xorcrypt.NewSplitter(2, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		for e := uint64(0); e < 3 && n > 0; e++ {
			for c := 0; c < 2; c++ {
				for _, q := range queries {
					nb := len(q.Buckets)
					submitMessage(f, a, sp, q.QID.Uint64(), e, (c+int(e))%nb, nb)
				}
			}
		}
		if n > 0 {
			later := encodeShares(f, sp, queries[0].QID.Uint64(), 5, 4, 1)
			if _, err := a.SubmitRound([][]xorcrypt.Share{later[:1], later[1:]}, 4); err != nil {
				f.Fatal(err)
			}
			half := encodeShares(f, sp, queries[0].QID.Uint64(), 3, 4, 2)
			for _, sh := range []xorcrypt.Share{half[1], {MID: xorcrypt.MID{7}, Payload: []byte{}}} {
				if _, err := submitOne(a, sh, 1); err != nil {
					f.Fatal(err)
				}
			}
		}
		if n > 0 && len(a.states.Load().ordered[0].rrLossCache) == 0 {
			f.Fatal("the seed fired no window with a simulated loss")
		}
		rec, err := a.Checkpoint(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		// The record names its query count after the magic and eight
		// counters; a shape that does not register as many refuses it.
		n := 0
		if len(rec) >= 72 {
			n = int(min(binary.BigEndian.Uint32(rec[68:72]), 2))
		}
		a, _ := restoreTarget(t, n)
		if a.Restore(rec) == nil {
			again, err := a.Checkpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, rec) {
				t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", again, rec)
			}
			// A tolerated trailer would show as an accepted prefix: try
			// every cut in the last 64 bytes, and one in 16 before them.
			for cut := range len(rec) {
				if cut < len(rec)-64 && cut%16 != 0 {
					continue
				}
				if b, _ := restoreTarget(t, n); b.Restore(rec[:cut]) == nil {
					t.Fatalf("the %d-byte prefix of a %d-byte record was accepted", cut, len(rec))
				}
			}
		}
	})
}

// TestSubmitRoundParksLaterEpochs: a message of an epoch past the
// round's through is parked — joined, but neither decoded nor late — a
// checkpoint carries it and re-encodes to its own bytes, and the first
// round that reaches its epoch ingests it.
func TestSubmitRoundParksLaterEpochs(t *testing.T) {
	const nbuckets = 4
	cfg := testConfig(t, nbuckets, ckptParams, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shares := encodeShares(t, sp, cfg.Query.QID.Uint64(), 2, nbuckets, 1)
	if _, err := a.SubmitRound([][]xorcrypt.Share{shares[:1], shares[1:]}, 1); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Decoded != 0 || st.Late != 0 || st.Duplicates != 0 {
		t.Fatalf("a parked message counted: %+v", st)
	}
	rec, err := a.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(rec); err != nil {
		t.Fatal(err)
	}
	if again, err := b.Checkpoint(nil); err != nil || !bytes.Equal(again, rec) {
		t.Fatalf("the restored record re-encodes differently (%v)", err)
	}
	for _, step := range []struct {
		through uint64
		decoded int64
	}{{1, 0}, {2, 1}, {3, 1}} {
		if _, err := b.SubmitRound(nil, step.through); err != nil {
			t.Fatal(err)
		}
		if got := b.Stats().Decoded; got != step.decoded {
			t.Fatalf("through %d: %d decoded, want %d", step.through, got, step.decoded)
		}
	}
}
