package client

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"privapprox/internal/xorcrypt"
)

// recordingSink counts batches and shares it receives, deep-copying
// each batch per the ColumnSink contract (the Batcher recycles the
// lanes after SubmitColumns returns).
type recordingSink struct {
	mu      sync.Mutex
	batches [][]xorcrypt.Share
}

func (r *recordingSink) SubmitColumns(mids, payloads []byte, count, size int) error {
	cp := make([]xorcrypt.Share, count)
	for i := range cp {
		copy(cp[i].MID[:], mids[i*xorcrypt.MIDSize:])
		cp[i].Payload = append([]byte(nil), payloads[i*size:(i+1)*size]...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, cp)
	return nil
}

func (r *recordingSink) totals() (batches, shares int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.batches {
		shares += len(b)
	}
	return len(r.batches), shares
}

func share(i int) xorcrypt.Share {
	var mid xorcrypt.MID
	mid[0], mid[1] = byte(i), byte(i>>8)
	return xorcrypt.Share{MID: mid, Payload: []byte{byte(i)}}
}

func TestBatcherFlushDelivesEverythingInOneBatch(t *testing.T) {
	sink := &recordingSink{}
	b := NewBatcher(sink, 0)
	const n = 37
	for i := 0; i < n; i++ {
		if err := b.Submit(share(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Pending(); got != n {
		t.Fatalf("Pending = %d", got)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	batches, shares := sink.totals()
	if batches != 1 || shares != n {
		t.Fatalf("sink saw %d batches / %d shares, want 1 / %d", batches, shares, n)
	}
	// Empty flush is a no-op, not an empty batch.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if batches, _ := sink.totals(); batches != 1 {
		t.Errorf("empty Flush produced a batch")
	}
}

// TestBatcherSegmentsByPayloadSize: a batch mixing payload sizes reaches
// the sink as one fixed-stride call per size, in first-seen order, each
// share's MID and payload intact.
func TestBatcherSegmentsByPayloadSize(t *testing.T) {
	sink := &recordingSink{}
	b := NewBatcher(sink, 0)
	sizes := []int{3, 5, 3, 3, 5}
	for i, size := range sizes {
		sh := share(i)
		sh.Payload = make([]byte, size)
		sh.Payload[0] = byte(i)
		if err := b.Submit(sh); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.batches) != 2 || len(sink.batches[0]) != 3 || len(sink.batches[1]) != 2 {
		t.Fatalf("sink saw %d batches, want a 3-share and a 2-share segment", len(sink.batches))
	}
	for seg, order := range [][]int{{0, 2, 3}, {1, 4}} {
		for j, i := range order {
			got := sink.batches[seg][j]
			if got.MID != share(i).MID || len(got.Payload) != sizes[i] || got.Payload[0] != byte(i) {
				t.Errorf("segment %d share %d = %+v, want share %d", seg, j, got, i)
			}
		}
	}
}

func TestBatcherAutoFlushAtLimit(t *testing.T) {
	sink := &recordingSink{}
	b := NewBatcher(sink, 8)
	for i := 0; i < 20; i++ {
		if err := b.Submit(share(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	batches, shares := sink.totals()
	if shares != 20 {
		t.Fatalf("shares = %d", shares)
	}
	if batches != 3 { // 8 + 8 + 4
		t.Errorf("batches = %d, want 3", batches)
	}
}

func TestBatcherConcurrentSubmitters(t *testing.T) {
	sink := &recordingSink{}
	b := NewBatcher(sink, 16)
	const goroutines = 8
	const each = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Submit(share(g*each + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	_, shares := sink.totals()
	if shares != goroutines*each {
		t.Fatalf("shares = %d, want %d", shares, goroutines*each)
	}
}

// TestBatcherCopiesPayloadOnSubmit pins the ownership contract: the
// caller may overwrite its payload buffer immediately after Submit
// returns, and the flushed batch must still carry the original bytes.
func TestBatcherCopiesPayloadOnSubmit(t *testing.T) {
	sink := &recordingSink{}
	b := NewBatcher(sink, 0)
	buf := []byte{1, 2, 3, 4}
	var mid xorcrypt.MID
	if err := b.Submit(xorcrypt.Share{MID: mid, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte{9, 9, 9, 9}) // caller reuses its scratch
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	got := sink.batches[0][0].Payload
	if string(got) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("batch saw %v; Submit must copy the payload", got)
	}
}

// TestBatcherRecyclesBuffers: after a flush cycle the next epoch's
// batch must reuse the same lane storage instead of growing fresh
// arenas.
func TestBatcherRecyclesBuffers(t *testing.T) {
	sink := &recordingSink{}
	b := NewBatcher(sink, 0)
	fill := func() {
		for i := 0; i < 10; i++ {
			if err := b.Submit(share(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	lane := func() (*byte, *byte) {
		b.mu.Lock()
		defer b.mu.Unlock()
		seg := &b.cur.segs[0]
		return &seg.mids[0], &seg.vals[0]
	}
	fill()
	firstMIDs, firstVals := lane()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	fill()
	secondMIDs, secondVals := lane()
	if firstMIDs != secondMIDs || firstVals != secondVals {
		t.Error("batch lanes were not recycled across flushes")
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

// callSink records every SubmitColumns call — payload size, share count
// and a copy of both lanes — and, when failEvery > 0, refuses every
// failEvery-th call.
type callSink struct {
	calls     []string
	failEvery int
}

func (s *callSink) SubmitColumns(mids, payloads []byte, count, size int) error {
	s.calls = append(s.calls, fmt.Sprintf("size=%d count=%d mids=%x vals=%x", size, count, mids, payloads))
	if s.failEvery > 0 && len(s.calls)%s.failEvery == 0 {
		return errors.New("sink down")
	}
	return nil
}

// TestSubmitColumnsMatchesSubmit: handing a batcher a chunk of shares in
// one SubmitColumns call is indistinguishable from one Submit per share —
// the same sink calls (size, count and bytes), the same stamps, the same
// Pending after every chunk and the same Dropped — at every limit, with
// chunks that straddle the limit and mix payload sizes, on a healthy
// sink and on a failing one behind a degraded batcher.
func TestSubmitColumnsMatchesSubmit(t *testing.T) {
	type chunk struct{ size, count int }
	chunks := []chunk{{3, 1}, {3, 5}, {9, 13}, {3, 64}, {1, 7}, {9, 100}, {3, 2}, {1, 65}, {9, 6}}
	type outcome struct {
		calls, stamps []string
		pending       []int
		dropped       int64
	}
	run := func(limit int, degraded, columns bool) outcome {
		sink := &callSink{}
		if degraded {
			sink.failEvery = 3
		}
		b := NewBatcher(sink, limit)
		b.SetDegraded(degraded)
		var out outcome
		// A stamp names its epoch and the sink calls made before it: the
		// flush it stamps, and that the flush reached the sink.
		b.SetStamper(func(epoch uint64, _ int64) {
			out.stamps = append(out.stamps, fmt.Sprintf("epoch=%d after call %d", epoch, len(sink.calls)))
		})
		id := 0
		for e, c := range chunks {
			b.BeginEpoch(uint64(e))
			var mids, vals []byte
			for i := 0; i < c.count; i++ {
				sh := share(id)
				sh.Payload = bytes.Repeat([]byte{byte(id)}, c.size)
				id++
				if !columns {
					if err := b.Submit(sh); err != nil {
						t.Fatal(err)
					}
					continue
				}
				mids = append(mids, sh.MID[:]...)
				vals = append(vals, sh.Payload...)
			}
			if columns {
				if err := b.SubmitColumns(mids, vals, c.count, c.size); err != nil {
					t.Fatal(err)
				}
			}
			out.pending = append(out.pending, b.Pending())
			// Send what the chunk cut, so each stamp carries its epoch.
			if err := b.Send(); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		out.calls, out.dropped = sink.calls, b.Dropped()
		return out
	}
	for _, limit := range []int{0, 1, 7, 64} {
		for _, degraded := range []bool{false, true} {
			want, got := run(limit, degraded, false), run(limit, degraded, true)
			if len(want.calls) < 2 || degraded && want.dropped == 0 {
				t.Fatalf("limit=%d degraded=%v: degenerate case: %d sink calls, %d dropped", limit, degraded, len(want.calls), want.dropped)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("limit=%d degraded=%v: SubmitColumns diverges from Submit\n got %d calls, stamps %v, pending %v, dropped %d\nwant %d calls, stamps %v, pending %v, dropped %d",
					limit, degraded, len(got.calls), got.stamps, got.pending, got.dropped, len(want.calls), want.stamps, want.pending, want.dropped)
			}
		}
	}
}

// gateSink holds every call until gate is closed, announcing each on
// entered, and records the first MID byte of every share it receives.
type gateSink struct {
	entered chan struct{}
	gate    chan struct{}
	mu      sync.Mutex
	got     []byte
}

func (g *gateSink) SubmitColumns(mids, payloads []byte, count, size int) error {
	g.entered <- struct{}{}
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range count {
		g.got = append(g.got, mids[i*xorcrypt.MIDSize])
	}
	return nil
}

// TestBatcherSendHandsOffAndFlushWaits: while one Send is publishing, a
// second Send returns at once and leaves its frame to the first, which
// publishes it after its own, in cut order; a Flush meanwhile returns
// only once both frames have reached the sink.
func TestBatcherSendHandsOffAndFlushWaits(t *testing.T) {
	sink := &gateSink{entered: make(chan struct{}, 4), gate: make(chan struct{})}
	b := NewBatcher(sink, 1)
	b.Submit(share(0)) // the limit cuts it: frame 0
	first := make(chan error, 1)
	go func() { first <- b.Send() }()
	<-sink.entered
	b.Submit(share(1)) // frame 1
	second := make(chan error, 1)
	go func() { second <- b.Send() }()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Send waited for another's publish")
	}
	flushed := make(chan error, 1)
	go func() { flushed <- b.Flush() }()
	select {
	case <-flushed:
		t.Fatal("Flush returned before its frames reached the sink")
	case <-time.After(20 * time.Millisecond):
	}
	close(sink.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.got, []byte{0, 1}) || b.Pending() != 0 {
		t.Errorf("sink received %v with %d shares pending, want [0 1] and none", sink.got, b.Pending())
	}
}
