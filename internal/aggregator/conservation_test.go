package aggregator

import (
	"sync"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// splitEpochs pre-splits perEpoch one-hot answers for each of epochs
// epochs of a query, as one share lane per source and epoch.
func splitEpochs(t *testing.T, qid uint64, nbuckets, epochs, perEpoch int) [][2][]xorcrypt.Share {
	t.Helper()
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2][]xorcrypt.Share, epochs)
	for e := range out {
		for i := 0; i < perEpoch; i++ {
			for src, sh := range encodeShares(t, sp, qid, uint64(e), nbuckets, i%nbuckets) {
				out[e][src] = append(out[e][src], sh)
			}
		}
	}
	return out
}

// responses sums Responses over fired windows, failing on a window that
// fired twice.
func responses(t *testing.T, res []Result) int64 {
	t.Helper()
	seen := make(map[int64]bool)
	var n int64
	for _, r := range res {
		start := r.Window.Start.UnixNano()
		if seen[start] {
			t.Fatalf("window %v fired twice", r.Window)
		}
		seen[start] = true
		n += int64(r.Responses)
	}
	return n
}

// TestWindowAccumulatorRace: per epoch, drain goroutines submit the
// epoch in small batches while another closes its window with AdvanceTo,
// so windows fire while segments are being folded into them. Every
// decoded answer must end in exactly one fired window or be counted
// Late — a fold that raced its window's fire is refused, never lost.
// Run it under -race.
func TestWindowAccumulatorRace(t *testing.T) {
	const nbuckets, epochs, perEpoch, drains, chunk = 6, 16, 240, 3, 8
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, nbuckets, params, perEpoch)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lanes := splitEpochs(t, cfg.Query.QID.Uint64(), nbuckets, epochs, perEpoch)

	var (
		mu    sync.Mutex
		fired []Result
	)
	keep := func(res []Result, err error) {
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		fired = append(fired, res...)
		mu.Unlock()
	}
	for e := range lanes {
		var wg sync.WaitGroup
		// joined carries one token per drain, sent once its first chunk
		// has been submitted from both sources.
		joined := make(chan struct{}, drains)
		for d := 0; d < drains; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for lo := d * chunk; lo < perEpoch; lo += drains * chunk {
					for src, lane := range lanes[e] {
						keep(a.SubmitShareBatch(lane[lo:lo+chunk], src, time.Time{}))
					}
					if lo == d*chunk {
						joined <- struct{}{}
					}
				}
			}(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The fire waits for the first joined chunk, so the window
			// never closes empty; every later submit still races it.
			<-joined
			// The watermark trails by one slide: two epochs on closes
			// this epoch's window.
			keep(a.AdvanceTo(testOrigin.Add(time.Duration(e+2) * cfg.Query.Frequency)))
		}()
		wg.Wait()
	}
	keep(a.Flush())

	st := a.Stats()
	if st.Decoded == 0 || len(fired) == 0 {
		t.Fatalf("nothing decoded or fired: %+v", st)
	}
	if got := responses(t, fired); got+st.Late != st.Decoded {
		t.Fatalf("%d answers in fired windows + %d late != %d decoded", got, st.Late, st.Decoded)
	}
}

// TestRemoveQueryWaitsForSubmitsInFlight: a submit resolves its query
// under genMu held shared and folds its answers into that query's pane
// later. RemoveQuery must not flush before such a submit is done, or
// the pane it goes on to open is never summed and its answers are lost
// without a counter.
func TestRemoveQueryWaitsForSubmitsInFlight(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// What SubmitShareBatch holds from its first join to its last fold,
	// with the query resolved from the table it loaded.
	a.genMu.RLock()
	st := a.stateFor(cfg.Query.QID.Uint64())

	type removal struct {
		res []Result
		err error
	}
	done := make(chan removal, 1)
	go func() {
		res, err := a.RemoveQuery(cfg.Query.QID)
		done <- removal{res, err}
	}()
	select {
	case r := <-done:
		a.genMu.RUnlock()
		t.Fatalf("RemoveQuery returned %d windows while a submit was in flight", len(r.res))
	case <-time.After(50 * time.Millisecond):
	}

	// The in-flight submit finishes its segment: one answer decoded and
	// folded into a pane of the query it resolved.
	vec, err := answer.OneHot(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.decoded.Add(1)
	p := a.paneFor(st, st.assigner.PaneOf(testOrigin.UnixNano()))
	if p == nil {
		t.Fatal("pane refused")
	}
	if late, err := p.add(vec.Bytes(), len(vec.Bytes()), 4, 1); late || err != nil {
		t.Fatalf("the fold was refused (late %v, err %v)", late, err)
	}
	a.genMu.RUnlock()

	var r removal
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RemoveQuery still blocked after the submit finished")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.res) != 1 || r.res[0].Responses != 1 || r.res[0].Buckets[2].ObservedYes != 1 {
		t.Fatalf("RemoveQuery flushed %+v, want the in-flight answer's window", r.res)
	}
	if got := a.Stats().Decoded; got != 1 {
		t.Fatalf("Decoded = %d after removal, want 1", got)
	}
}

// TestRemoveQueryConservesRacingAnswers races a large batch against
// RemoveQuery at staggered offsets: every submitted answer must be in a
// window returned by one of the two calls, Late, or UnknownQuery.
func TestRemoveQueryConservesRacingAnswers(t *testing.T) {
	const nbuckets, epochs, perEpoch = 8, 4, 500
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, nbuckets, params, perEpoch)
	lanes := splitEpochs(t, cfg.Query.QID.Uint64(), nbuckets, epochs, perEpoch)
	var batch [2][]xorcrypt.Share
	for _, l := range lanes {
		for src := range batch {
			batch[src] = append(batch[src], l[src]...)
		}
	}
	for iter := 0; iter < 80; iter++ {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.SubmitShareBatch(batch[0], 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
		var (
			wg     sync.WaitGroup
			byDrop []Result
			dropEr error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			byDrop, dropEr = a.SubmitShareBatch(batch[1], 1, time.Time{})
		}()
		time.Sleep(time.Duration(iter) * 20 * time.Microsecond)
		removed, err := a.RemoveQuery(cfg.Query.QID)
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if dropEr != nil {
			t.Fatal(dropEr)
		}
		st := a.Stats()
		got := responses(t, append(byDrop, removed...))
		if got+st.Late+st.UnknownQuery != epochs*perEpoch {
			t.Fatalf("iteration %d: %d in windows + %d late + %d unknown != %d submitted (%+v)",
				iter, got, st.Late, st.UnknownQuery, epochs*perEpoch, st)
		}
	}
}

// TestFoldAfterFireIsRefused pins the close half of the pane lock: a
// segment that looked its pane up before the fire and folds after it
// is refused — counted late — the fired result does not move, and a
// later lookup cannot open a pane whose every window has fired. On a
// sliding query, the same late fold still lands for the windows that
// have not fired.
func TestFoldAfterFireIsRefused(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	vec, _ := answer.OneHot(4, 2)
	t.Run("tumbling", func(t *testing.T) {
		a, err := New(testConfig(t, 4, params, 10))
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := xorcrypt.NewSplitter(2, nil, nil)
		st := a.states.Load().single
		submitMessage(t, a, sp, st.qidWire, 0, 1, 4)
		start := st.assigner.PaneOf(testOrigin.UnixNano())
		p := a.paneFor(st, start)
		res, err := a.AdvanceTo(testOrigin.Add(time.Hour))
		if err != nil || len(res) != 1 || res[0].Responses != 1 {
			t.Fatalf("AdvanceTo fired %+v, %v", res, err)
		}
		if late, err := p.add(vec.Bytes(), 1, 4, 1); !late || err != nil {
			t.Fatalf("a fold into a fired pane was accepted (err %v)", err)
		}
		if res[0].Responses != 1 || res[0].Buckets[2].ObservedYes != 0 {
			t.Fatalf("the fired result moved: %+v", res[0])
		}
		if a.paneFor(st, start) != nil {
			t.Fatal("a pane whose every window fired was opened again")
		}
	})
	t.Run("sliding", func(t *testing.T) {
		cfg := testConfig(t, 4, params, 10)
		cfg.Query.Window = 2 * cfg.Query.Slide
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := xorcrypt.NewSplitter(2, nil, nil)
		st := a.states.Load().single
		submitMessage(t, a, sp, st.qidWire, 0, 1, 4)
		p := a.paneFor(st, st.assigner.PaneOf(testOrigin.UnixNano()))
		// The watermark reaches the pane's end: of its two windows, the
		// one ending there fires.
		res, err := a.AdvanceTo(testOrigin.Add(2 * cfg.Query.Slide))
		if err != nil || len(res) != 1 || res[0].Responses != 1 || !res[0].Window.End.Equal(testOrigin.Add(cfg.Query.Slide)) {
			t.Fatalf("AdvanceTo fired %+v, %v", res, err)
		}
		if late, err := p.add(vec.Bytes(), 1, 4, 1); !late || err != nil {
			t.Fatalf("a fold after the pane's first window fired was not late (err %v)", err)
		}
		res2, err := a.Flush()
		if err != nil || len(res2) != 1 || res2[0].Responses != 2 || res2[0].Buckets[2].ObservedYes != 1 {
			t.Fatalf("Flush fired %+v, %v; want the second window with both answers", res2, err)
		}
		if res[0].Responses != 1 || res[0].Buckets[2].ObservedYes != 0 {
			t.Fatalf("the fired result moved: %+v", res[0])
		}
	})
}

// TestAnswerAfterFlushIsLate: a flush is a watermark advance like any
// other, so an answer that arrives afterwards for a window the flush
// fired counts late; the window never fires a second time.
func TestAnswerAfterFlushIsLate(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	a, err := New(testConfig(t, 4, params, 10))
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := xorcrypt.NewSplitter(2, nil, nil)
	qid := a.states.Load().single.qidWire
	fired := submitMessage(t, a, sp, qid, 0, 1, 4)
	res, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	fired = append(fired, res...)
	fired = append(fired, submitMessage(t, a, sp, qid, 0, 2, 4)...)
	if res, err = a.AdvanceTo(testOrigin.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	fired = append(fired, res...)
	if len(fired) != 1 || !fired[0].Window.Start.Equal(testOrigin) || fired[0].Responses != 1 {
		t.Fatalf("fired %+v; want window [0 s, 4 s) once, with one response", fired)
	}
	if st := a.Stats(); st.Decoded != 2 || st.Late != 1 {
		t.Fatalf("decoded %d late %d; want 2 and 1", st.Decoded, st.Late)
	}
}
