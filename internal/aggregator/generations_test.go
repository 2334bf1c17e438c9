package aggregator

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// The join state ages by generation on the event-time clock (ageJoins).
// testQuery's window, slide and frequency are all 4 s, so the retain
// horizon is one epoch and the lateness another: the generations rotate
// every second epoch, and a message is forgotten two to four epochs
// after it completed.

// remembered counts the completed keys the aggregator's joiner holds, by
// age.
func remembered(a *Aggregator) (cur, prev int) {
	a.joinMu.Lock()
	defer a.joinMu.Unlock()
	a.joiner.CompletedKeys(func(_ xorcrypt.MID, age int) {
		if age == 0 {
			cur++
		} else {
			prev++
		}
	})
	return cur, prev
}

// runEpochs submits perEpoch messages for each epoch in [from, to) and
// returns what fired.
func runEpochs(t *testing.T, a *Aggregator, sp *xorcrypt.Splitter, qid uint64, from, to uint64, perEpoch int) []Result {
	t.Helper()
	var fired []Result
	for e := from; e < to; e++ {
		for i := 0; i < perEpoch; i++ {
			fired = append(fired, submitMessage(t, a, sp, qid, e, i%4, 4)...)
		}
	}
	return fired
}

// TestReplayInsideAndAfterTheHorizon: a second copy of both shares of a
// message is rejected as a duplicate while its key is remembered; once
// the key has been forgotten the copy joins and decodes again — behind
// its query's watermark, so it is counted late and changes no result.
func TestReplayInsideAndAfterTheHorizon(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	qid := cfg.Query.QID.Uint64()
	newAgg := func() *Aggregator {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, control := newAgg(), newAgg()
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := encodeShares(t, sp, qid, 0, 4, 1)
	replay := func() []Result {
		var fired []Result
		for src, sh := range victim {
			res, err := submitOne(a, copyShare(sh), src)
			if err != nil {
				t.Fatal(err)
			}
			fired = append(fired, res...)
		}
		return fired
	}
	var got, want []Result
	for _, agg := range []*Aggregator{a, control} {
		for src, sh := range victim {
			if _, err := submitOne(agg, copyShare(sh), src); err != nil {
				t.Fatal(err)
			}
		}
	}
	got = append(got, runEpochs(t, a, sp, qid, 0, 2, 5)...)
	want = append(want, runEpochs(t, control, sp, qid, 0, 2, 5)...)

	// Inside the horizon: both shares bounce off the remembered key.
	before := a.Stats()
	got = append(got, replay()...)
	if st := a.Stats(); st.Duplicates != before.Duplicates+2 || st.Decoded != before.Decoded || st.Late != before.Late {
		t.Fatalf("replay inside the horizon: %+v, was %+v; want two duplicate shares and nothing else", st, before)
	}

	got = append(got, runEpochs(t, a, sp, qid, 2, 8, 5)...)
	want = append(want, runEpochs(t, control, sp, qid, 2, 8, 5)...)

	// Past the horizon: the key is gone, the copy joins, decodes, and is
	// late. (Decoded counts every message demultiplexed to its query, so
	// it moves with Late; the window counts below are what must not.)
	before = a.Stats()
	got = append(got, replay()...)
	if st := a.Stats(); st.Duplicates != before.Duplicates || st.Late != before.Late+1 || st.Decoded != before.Decoded+1 {
		t.Fatalf("replay past the horizon: %+v, was %+v; want one late answer and no duplicate", st, before)
	}
	for _, agg := range []*Aggregator{a, control} {
		res, err := agg.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if agg == a {
			got = append(got, res...)
		} else {
			want = append(want, res...)
		}
	}
	if len(want) != 8 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replays changed the results:\ngot  %+v\nwant %+v", got, want)
	}
	if cur, prev := remembered(a); cur+prev > 4*5+1 {
		t.Errorf("%d+%d completed keys remembered after 8 epochs of 5, want at most four epochs' worth", cur, prev)
	}
}

// TestSweptOrphanCountedOnce: a share whose sibling never arrives waits
// out two rotations, is then dropped, and shows up in Stats.Swept — once.
func TestSweptOrphanCountedOnce(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	qid := cfg.Query.QID.Uint64()
	runEpochs(t, a, sp, qid, 0, 1, 3)
	orphan := encodeShares(t, sp, qid, 0, 4, 2)[0]
	if _, err := submitOne(a, orphan, 0); err != nil {
		t.Fatal(err)
	}
	runEpochs(t, a, sp, qid, 1, 3, 3)
	if st := a.Stats(); st.Swept != 0 || a.PendingJoins() != 1 {
		t.Fatalf("after one rotation: Swept = %d, %d pending; the orphan is still inside its horizon", st.Swept, a.PendingJoins())
	}
	runEpochs(t, a, sp, qid, 3, 10, 3)
	if st := a.Stats(); st.Swept != 1 || a.PendingJoins() != 0 {
		t.Fatalf("after four more rotations: Swept = %d, %d pending; want 1 and 0", st.Swept, a.PendingJoins())
	}
	if st := a.Stats(); st.Decoded != 30 || st.Dropped() != 0 {
		t.Errorf("the orphan disturbed the answer counters: %+v", st)
	}

	// The count survives a restart.
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
	if got, want := b.Stats(), a.Stats(); got != want {
		t.Errorf("restored %+v, want %+v", got, want)
	}
}

// TestAdvanceToTouchesNoPerMessageState: after a million completed
// messages an idle-stream AdvanceTo costs a rotation — a swap and a
// clear — not a walk over the keys: two advances, each a horizon on,
// leave both generations empty, and a steady per-epoch AdvanceTo
// allocates nothing.
func TestAdvanceToTouchesNoPerMessageState(t *testing.T) {
	messages := 1_000_000
	if testing.Short() {
		messages = 50_000
	}
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, messages)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	qid := cfg.Query.QID.Uint64()
	const chunk = 4096
	lanes := [2][]xorcrypt.Share{}
	for done := 0; done < messages; done += chunk {
		lanes[0], lanes[1] = lanes[0][:0], lanes[1][:0]
		for i := 0; i < min(chunk, messages-done); i++ {
			shares := encodeShares(t, sp, qid, 0, 4, i%4)
			lanes[0], lanes[1] = append(lanes[0], shares[0]), append(lanes[1], shares[1])
		}
		for src := range lanes {
			if _, err := a.SubmitShareBatch(lanes[src], src, time.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cur, prev := remembered(a); cur+prev != messages {
		t.Fatalf("%d+%d completed keys remembered, want %d", cur, prev, messages)
	}
	at := testOrigin
	for i := 0; i < 2; i++ {
		at = at.Add(time.Minute)
		if _, err := a.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}
	if cur, prev := remembered(a); cur != 0 || prev != 0 {
		t.Fatalf("two advances past the horizon left %d+%d completed keys", cur, prev)
	}
	if got := a.Stats().Decoded; got != int64(messages) {
		t.Fatalf("Decoded = %d", got)
	}
	// An advance per epoch, rotating every other call, with no window open.
	if allocs := testing.AllocsPerRun(100, func() {
		at = at.Add(4 * time.Second)
		if _, err := a.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AdvanceTo allocates %.1f times per call", allocs)
	}
}

// TestCheckpointIsAsLargeAsTheHorizon: under constant load the checkpoint
// carries two generations of completed keys and the estimator's state,
// not the run's history — also when every epoch retunes the
// randomization pair, so that each window simulates its losses afresh.
func TestCheckpointIsAsLargeAsTheHorizon(t *testing.T) {
	steady := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	for _, leg := range []struct {
		name string
		gens [2]budget.Params
	}{
		{"steady", [2]budget.Params{steady, steady}},
		{"retuned every epoch", [2]budget.Params{{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}, {S: 1, RR: rr.Params{P: 0.5, Q: 0.3}}}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := testConfig(t, 4, leg.gens[0], 50)
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := xorcrypt.NewSplitter(2, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			qid := cfg.Query.QID.Uint64()
			const n = 20
			size := func(from, to uint64) int {
				for e := from; e < to; e++ {
					runEpochs(t, a, sp, qid, e, e+1, 50)
					if err := a.AddQuery(QuerySpec{Query: cfg.Query, Params: leg.gens[(e+1)%2]}); err != nil {
						t.Fatal(err)
					}
				}
				ckpt, err := a.Checkpoint(nil)
				if err != nil {
					t.Fatal(err)
				}
				return len(ckpt)
			}
			atN := size(0, n)
			at2N := size(n, 2*n)
			if float64(at2N) > 1.1*float64(atN) {
				t.Errorf("checkpoint grew from %d bytes at epoch %d to %d at epoch %d", atN, n, at2N, 2*n)
			}
			if atN > 50*4*17+2048 {
				t.Errorf("checkpoint at epoch %d is %d bytes: more than four epochs of keys", n, atN)
			}
		})
	}
}

// laggingBatch encodes perEpoch messages for each epoch in [from, to) as
// one lane per source — what a drain that has fallen behind polls in one
// batch — and returns the lanes and the shares of the newest message.
func laggingBatch(t *testing.T, sp *xorcrypt.Splitter, qid uint64, from, to uint64, perEpoch int) (lanes [2][]xorcrypt.Share, newest []xorcrypt.Share) {
	t.Helper()
	for e := from; e < to; e++ {
		for i := 0; i < perEpoch; i++ {
			newest = encodeShares(t, sp, qid, e, 4, i%4)
			lanes[0], lanes[1] = append(lanes[0], copyShare(newest[0])), append(lanes[1], copyShare(newest[1]))
		}
	}
	return lanes, newest
}

// submitLanes submits one SubmitShareBatch call per source (safe off the
// test's goroutine: it reports with t.Error).
func submitLanes(t *testing.T, a *Aggregator, lanes [2][]xorcrypt.Share) {
	for src := range lanes {
		if _, err := a.SubmitShareBatch(lanes[src], src, time.Now()); err != nil {
			t.Error(err)
		}
	}
}

// TestBatchSpanningEpochsKeepsItsKeys: a batch that covers many epochs
// joins all of its messages before it observes any of their event times,
// and moves the watermark by several horizons in one call. Its keys must
// outlive that call: a replay of its newest message is a duplicate, and
// once a later batch has pushed the key out the replay is late — it is
// never folded into a window a second time.
func TestBatchSpanningEpochsKeepsItsKeys(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	qid := cfg.Query.QID.Uint64()
	replay := func(shares []xorcrypt.Share) (dup, late, accepted int64) {
		before := a.Stats()
		submitLanes(t, a, [2][]xorcrypt.Share{{copyShare(shares[0])}, {copyShare(shares[1])}})
		st := a.Stats()
		return st.Duplicates - before.Duplicates, st.Late - before.Late,
			(st.Decoded - st.Late) - (before.Decoded - before.Late)
	}
	var older [][]xorcrypt.Share
	forgotten := 0
	for _, span := range [][2]uint64{{0, 4}, {4, 21}, {21, 41}, {41, 42}, {42, 60}} {
		lanes, newest := laggingBatch(t, sp, qid, span[0], span[1], 3)
		submitLanes(t, a, lanes)
		if dup, late, accepted := replay(newest); dup != 2 || late != 0 || accepted != 0 {
			t.Fatalf("replay of the newest message of epochs [%d, %d): %d duplicate shares, %d late, %d accepted; want 2, 0, 0",
				span[0], span[1], dup, late, accepted)
		}
		for i, shares := range older {
			if dup, late, accepted := replay(shares); accepted != 0 || dup+2*late != 2 {
				t.Fatalf("after epochs [%d, %d), replay of batch %d's newest message: %d duplicate shares, %d late, %d accepted",
					span[0], span[1], i, dup, late, accepted)
			} else {
				forgotten += int(late)
			}
		}
		older = append(older, newest)
	}
	// A replay that joins again is remembered again, so each old message
	// is late once and a duplicate from then on.
	if forgotten != 3 {
		t.Errorf("%d replays came back late, want those of the first three batches, once each", forgotten)
	}
	if cur, prev := remembered(a); cur+prev > 3*(60-21) {
		t.Errorf("%d+%d completed keys remembered, want no more than the last two batches", cur, prev)
	}
}

// TestConcurrentDrainsNeverCountAReplayTwice: drains that chunk their
// backlog differently submit concurrently — one query each, so no first
// delivery is ever late — and replay what they have already delivered
// while the others keep rotating the generations. Every window must hold
// exactly the first deliveries. Run under -race in make ci.
func TestConcurrentDrainsNeverCountAReplayTwice(t *testing.T) {
	const drains, rounds, perRound, perEpoch = 4, 8, 6, 3
	a, err := NewMulti(Config{Population: perEpoch, Proxies: 2, Origin: testOrigin, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	qids := make([]uint64, drains)
	sps := make([]*xorcrypt.Splitter, drains)
	for d := range qids {
		q := testQuery(t, 4)
		q.QID = query.ID{Analyst: "a", Serial: uint64(d + 1)}
		if err := a.AddQuery(QuerySpec{Query: q, Params: budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}}); err != nil {
			t.Fatal(err)
		}
		qids[d] = q.QID.Uint64()
		if sps[d], err = xorcrypt.NewSplitter(2, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	delivered := make([][][]xorcrypt.Share, drains) // per drain: the newest message of every batch so far
	for r := uint64(0); r < rounds; r++ {
		// Within a round the drains race, each through its own chunking of
		// the round's epochs; they meet again at its end, so the slowest
		// watermark keeps moving and the generations rotate.
		var wg sync.WaitGroup
		for d := 0; d < drains; d++ {
			var batches [][2][]xorcrypt.Share
			first := len(delivered[d])
			for from, end := r*perRound, (r+1)*perRound; from < end; from += uint64(d + 1) {
				lanes, newest := laggingBatch(t, sps[d], qids[d], from, min(from+uint64(d+1), end), perEpoch)
				batches, delivered[d] = append(batches, lanes), append(delivered[d], newest)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, lanes := range batches {
					submitLanes(t, a, lanes)
					for _, old := range delivered[d][:first+i+1] {
						submitLanes(t, a, [2][]xorcrypt.Share{{copyShare(old[0])}, {copyShare(old[1])}})
					}
				}
			}()
		}
		wg.Wait()
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if accepted, want := st.Decoded-st.Late, int64(drains*rounds*perRound*perEpoch); accepted != want {
		t.Errorf("%d answers accepted into windows, want the %d first deliveries: %+v", accepted, want, st)
	}
	if st.Late == 0 {
		t.Error("no replay came back late: the generations never forgot a key")
	}
}

// TestRotationWaitsForASubmitInFlight: a batch is held between its join
// pass and its first observation (inside OnDecoded) while another submit
// moves the watermark a horizon on. The rotation that submit calls for
// must not be decided until the held batch has observed its event time:
// decided sooner, it would seal a mark below the held message, the next
// rotation would forget a key whose window is still open, and the replay
// below would be counted twice.
func TestRotationWaitsForASubmitInFlight(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	held := testOrigin.Add(10 * cfg.Query.Frequency)
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cfg.OnDecoded = func(_ []byte, at time.Time) {
		if at.Equal(held) {
			once.Do(func() {
				close(entered)
				select {
				case <-release:
				case <-time.After(200 * time.Millisecond):
				}
			})
		}
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	qid := cfg.Query.QID.Uint64()
	submitMessage(t, a, sp, qid, 0, 0, 4) // starts the joiner's clock
	ahead := encodeShares(t, sp, qid, 10, 4, 1)
	if _, err := submitOne(a, copyShare(ahead[0]), 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.SubmitShareBatch([]xorcrypt.Share{copyShare(ahead[1])}, 1, time.Now())
		done <- err
	}()
	<-entered
	submitMessage(t, a, sp, qid, 2, 0, 4) // a horizon past the clock's start
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	before := a.Stats()
	for src, sh := range ahead {
		if _, err := submitOne(a, copyShare(sh), src); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Stats(); st.Duplicates != before.Duplicates+2 || st.Decoded != before.Decoded {
		t.Fatalf("replay of the held message: %+v, was %+v; want two duplicate shares", st, before)
	}
}
