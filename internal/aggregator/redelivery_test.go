package aggregator

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"privapprox/internal/budget"
	"privapprox/internal/rr"
)

// These tests pin the aggregator's at-least-once delivery contract: the
// transport below it (retrying producers, chaos-injected redelivery,
// multi-conn pools) may duplicate and reorder shares arbitrarily, and
// the MID join + dedup layer must absorb all of it — results identical
// to a clean run, every redelivered share counted in Duplicates, and
// never a double-accumulated answer.

// replayMessages appends verbatim redeliveries of the first n share
// PAIRS of a clean (good-only) epoch stream — both proxies' shares, not
// just one — `times` times each. buildEpochTraffic lays pairs out
// adjacently, so message i is subs[2i], subs[2i+1].
func replayMessages(subs []submission, n, times int) []submission {
	out := append([]submission(nil), subs...)
	for r := 0; r < times; r++ {
		for i := 0; i < n; i++ {
			out = append(out, subs[2*i], subs[2*i+1])
		}
	}
	return out
}

// submitOrdered drives a stream through the aggregator in the exact
// order given — no shuffling — so a test can pin a specific adversarial
// ordering (e.g. every proxy-1 share before any proxy-0 share).
func submitOrdered(t *testing.T, a *Aggregator, epochs [][]submission) []Result {
	t.Helper()
	var fired []Result
	for _, subs := range epochs {
		for _, sub := range subs {
			res, err := submitOne(a, sub.share, sub.src)
			if err != nil {
				t.Fatal(err)
			}
			fired = append(fired, res...)
		}
	}
	final, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	fired = append(fired, final...)
	sort.SliceStable(fired, func(i, j int) bool {
		return fired[i].Window.Start.Before(fired[j].Window.Start)
	})
	return fired
}

// TestRedeliveredSharesNeverDoubleAccumulate: the same clean traffic,
// plus full share-pair redeliveries (some messages redelivered twice),
// shuffled into arbitrary interleavings by one or many submitters,
// must yield byte-identical results to the duplicate-free sequential
// run — with every redelivered share surfaced in Duplicates and nothing
// dropped.
func TestRedeliveredSharesNeverDoubleAccumulate(t *testing.T) {
	const (
		nbuckets = 5
		nepochs  = 4
		good     = 32
		replayed = 6 // messages whose full pair is redelivered once...
		twice    = 2 // ...of which this many are redelivered a second time
	)
	// Each redelivered pair contributes 2 duplicate shares per round.
	const dupPerEpoch = 2 * (replayed + twice)

	q := slidingTestQuery(t, nbuckets)
	clean := make([][]submission, nepochs)
	dirty := make([][]submission, nepochs)
	for e := range clean {
		clean[e] = buildEpochTraffic(t, q, uint64(e), good, 0, 0)
		dirty[e] = replayMessages(clean[e], replayed, 1)
		dirty[e] = append(dirty[e], replayMessages(clean[e], twice, 1)[len(clean[e]):]...)
	}
	cfg := Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: good,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       29,
	}

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runTraffic(t, base, clean, 1, rand.New(rand.NewSource(1)))

	for _, workers := range []int{1, 8} {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := runTraffic(t, a, dirty, workers, rand.New(rand.NewSource(int64(100+workers))))
		st := a.Stats()
		if st.Decoded != int64(nepochs*good) {
			t.Errorf("workers=%d: decoded = %d, want %d", workers, st.Decoded, nepochs*good)
		}
		if st.Duplicates != int64(nepochs*dupPerEpoch) {
			t.Errorf("workers=%d: duplicates = %d, want %d", workers, st.Duplicates, nepochs*dupPerEpoch)
		}
		if st.Late != 0 || st.Malformed != 0 {
			t.Errorf("workers=%d: late = %d, malformed = %d, want 0", workers, st.Late, st.Malformed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: redelivered run diverges from clean run\n got: %+v\nwant: %+v", workers, got, want)
		}
	}
}

// TestCrossProxyReorderWithReplays pins the worst-case ordering a
// multi-proxy fleet can produce: every proxy-1 share of an epoch lands
// before any proxy-0 share (every join held pending across the whole
// epoch), with redelivered shares arriving both before and after their
// partner completes the join.
func TestCrossProxyReorderWithReplays(t *testing.T) {
	const (
		nbuckets = 4
		nepochs  = 4
		good     = 24
		replayed = 5
	)
	q := slidingTestQuery(t, nbuckets)
	clean := make([][]submission, nepochs)
	reversed := make([][]submission, nepochs)
	for e := range clean {
		clean[e] = buildEpochTraffic(t, q, uint64(e), good, 0, 0)
		var bySrc [2][]submission
		for _, sub := range clean[e] {
			bySrc[sub.src] = append(bySrc[sub.src], sub)
		}
		// Proxy-1 shares first — including pre-join redeliveries, which
		// hit the dedup layer while the join is still pending — then
		// proxy-0 shares with post-join redeliveries.
		ordered := append([]submission(nil), bySrc[1]...)
		ordered = append(ordered, bySrc[1][:replayed]...)
		ordered = append(ordered, bySrc[0]...)
		ordered = append(ordered, bySrc[0][:replayed]...)
		reversed[e] = ordered
	}
	cfg := Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: good,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       31,
	}

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := submitOrdered(t, base, clean)

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := submitOrdered(t, a, reversed)
	st := a.Stats()
	if st.Decoded != int64(nepochs*good) {
		t.Errorf("decoded = %d, want %d", st.Decoded, nepochs*good)
	}
	if st.Duplicates != int64(nepochs*2*replayed) {
		t.Errorf("duplicates = %d, want %d", st.Duplicates, nepochs*2*replayed)
	}
	if st.Late != 0 {
		t.Errorf("late = %d, want 0", st.Late)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reversed-proxy run diverges from in-order run\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRedeliveryAcrossCheckpointRestore: an aggregator is checkpointed
// mid-epoch and a fresh one restored from the snapshot; redeliveries of
// messages accepted BEFORE the checkpoint arrive only AFTER the
// restore. The dedup state must travel in the checkpoint: the combined
// run matches an uninterrupted aggregator fed the identical stream, and
// every cross-checkpoint redelivery counts as a duplicate.
func TestRedeliveryAcrossCheckpointRestore(t *testing.T) {
	const (
		nbuckets = 4
		nepochs  = 3
		good     = 20
		replayed = 6
	)
	q := slidingTestQuery(t, nbuckets)
	rng := rand.New(rand.NewSource(41))
	// Per epoch: shuffled good pairs, then full-pair redeliveries of the
	// first `replayed` messages. The checkpoint cut lands between the
	// good pairs and the redeliveries of epoch 1, so those redeliveries
	// replay pre-checkpoint messages at the restored aggregator.
	var stream []submission
	cut := -1
	for e := 0; e < nepochs; e++ {
		subs := buildEpochTraffic(t, q, uint64(e), good, 0, 0)
		for _, idx := range rng.Perm(len(subs)) {
			stream = append(stream, subs[idx])
		}
		if e == 1 {
			cut = len(stream)
		}
		stream = append(stream, replayMessages(subs, replayed, 1)[len(subs):]...)
	}
	cfg := Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: good,
		Proxies:    2,
		Origin:     testOrigin,
		Seed:       37,
	}

	feed := func(t *testing.T, a *Aggregator, subs []submission) []Result {
		t.Helper()
		var fired []Result
		for _, sub := range subs {
			res, err := submitOne(a, sub.share, sub.src)
			if err != nil {
				t.Fatal(err)
			}
			fired = append(fired, res...)
		}
		return fired
	}

	uni, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := feed(t, uni, stream)
	want = flushInto(t, uni, want)

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := feed(t, a, stream[:cut])
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
	got = append(got, feed(t, b, stream[cut:])...)
	got = flushInto(t, b, got)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("interrupted run diverges from uninterrupted run\n got: %+v\nwant: %+v", got, want)
	}
	// Counters travel in the checkpoint, so the restored aggregator's
	// totals cover the whole stream.
	gotSt, wantSt := b.Stats(), uni.Stats()
	if gotSt.Decoded != wantSt.Decoded || gotSt.Decoded != int64(nepochs*good) {
		t.Errorf("decoded = %d (uninterrupted %d), want %d", gotSt.Decoded, wantSt.Decoded, nepochs*good)
	}
	if gotSt.Duplicates != wantSt.Duplicates || gotSt.Duplicates != int64(nepochs*2*replayed) {
		t.Errorf("duplicates = %d (uninterrupted %d), want %d", gotSt.Duplicates, wantSt.Duplicates, nepochs*2*replayed)
	}
	if gotSt.Late != 0 {
		t.Errorf("late = %d, want 0", gotSt.Late)
	}
}
