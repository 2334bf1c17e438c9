package client

import (
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/xorcrypt"
)

// ColumnSink is the batch flush surface — proxy.Proxy implements it over
// both the in-process broker and the TCP transport, where a call is one
// wire frame. A call hands over count shares as two contiguous lanes:
// MIDs at a xorcrypt.MIDSize stride and payloads at a size-byte stride.
// The sink must fully consume both lanes before returning; they belong
// to the caller.
type ColumnSink interface {
	SubmitColumns(mids, payloads []byte, count, size int) error
}

// Batcher is a ShareSink that buffers submitted shares and forwards
// them to the underlying sink in frames, cut whenever limit shares have
// accumulated (0 means never) and on Cut or Flush. A cut frame waits in
// a FIFO until Send publishes it outside the lock, so the sink receives
// frames in cut order. It is safe for concurrent use, so a worker pool
// of clients can share one Batcher per proxy; the epoch driver flushes
// once after all clients answered, turning an epoch's O(N) proxy
// round-trips into O(1).
//
// Submit copies each share directly into the columnar layout the wire
// carries: per payload size, one contiguous MID lane and one contiguous
// payload lane, so a batch mixing query shapes fills one segment per
// shape, in first-seen order, and Send hands whole segments to the sink.
// Callers reuse their split scratch at once; batch buffers are recycled
// through a free list once the sink consumed them.
type Batcher struct {
	sink  ColumnSink
	limit int
	// degraded makes Send drop and count a frame the sink (after its own
	// retries) could not accept instead of failing the epoch: the other
	// shares of its answers never join at the aggregator, whose estimator
	// sees the realized, smaller sample and widens margins honestly.
	degraded bool
	dropped  atomic.Int64

	// stamper, when set, receives one provenance callback per
	// successfully sent frame (see SetStamper), tagged with epoch.
	// The callback itself builds and publishes the lineage stamp, so the
	// Batcher stays free of wire dependencies.
	stamper Stamper
	epoch   atomic.Uint64

	mu      sync.Mutex
	cur     *batchBuf
	frames  []*batchBuf // cut and not yet sent, oldest first
	pending int         // shares submitted and not yet sent
	sending bool        // a Send is publishing frames
	idle    sync.Cond   // on mu, broadcast when a Send stops publishing
	free    []*batchBuf
}

// Stamper is the provenance hook: called once per successfully sent
// frame — off the submit hot path, after the sink consumed the shares —
// with the epoch the frame belongs to and the wall-clock nanosecond its
// send began.
type Stamper func(epoch uint64, flushStartNs int64)

// batchBuf is one batch in flight: columnar segments (segs[:nseg]
// active; entries past nseg keep recycled lane capacity from earlier
// epochs, since a steady-state batch repeats the same shape).
type batchBuf struct {
	segs  []colSeg
	nseg  int
	count int
}

// colSeg is one fixed-stride segment: count shares of size-byte
// payloads, laid out as two contiguous lanes.
type colSeg struct {
	size  int
	count int
	mids  []byte
	vals  []byte
}

// seg returns the segment for payloads of the given size, reusing a
// recycled entry's lane capacity when possible.
func (buf *batchBuf) seg(size int) *colSeg {
	for i := range buf.segs[:buf.nseg] {
		if buf.segs[i].size == size {
			return &buf.segs[i]
		}
	}
	if buf.nseg == len(buf.segs) {
		buf.segs = append(buf.segs, colSeg{})
	}
	s := &buf.segs[buf.nseg]
	s.size = size
	buf.nseg++
	return s
}

// NewBatcher wraps sink in a Batcher that cuts a frame every limit
// shares (limit <= 0 disables the automatic cut; every share then waits
// for an explicit Cut or Flush).
func NewBatcher(sink ColumnSink, limit int) *Batcher {
	b := &Batcher{sink: sink, limit: limit}
	b.idle.L = &b.mu
	return b
}

// Submit copies one share into the current batch's columnar lanes,
// cutting a frame if the batch limit is reached. The caller keeps
// share.Payload. It never sends, so it never fails.
func (b *Batcher) Submit(share xorcrypt.Share) error {
	return b.SubmitColumns(share.MID[:], share.Payload, 1, len(share.Payload))
}

// SubmitColumns copies count shares in the ColumnSink layout into the
// current batch under one lock, cutting it at the limit exactly where
// count Submit calls would. (Lane growth may reallocate; that is safe:
// the lanes are append-only until the batch is sent and recycled.) A
// Batcher is thus a ColumnSink: a worker's lanes can flush into it.
func (b *Batcher) SubmitColumns(mids, payloads []byte, count, size int) error {
	b.mu.Lock()
	b.pending += count
	for count > 0 {
		if b.cur == nil {
			b.cur = b.getBufLocked()
		}
		n := count
		if b.limit > 0 {
			n = min(n, b.limit-b.cur.count)
		}
		seg := b.cur.seg(size)
		seg.mids = append(seg.mids, mids[:n*xorcrypt.MIDSize]...)
		seg.vals = append(seg.vals, payloads[:n*size]...)
		seg.count += n
		b.cur.count += n
		mids, payloads, count = mids[n*xorcrypt.MIDSize:], payloads[n*size:], count-n
		if b.cur.count == b.limit {
			b.frames = append(b.frames, b.cur)
			b.cur = nil
		}
	}
	b.mu.Unlock()
	return nil
}

// Cut ends the current batch, unless it is empty: it joins the FIFO of
// frames waiting for Send.
func (b *Batcher) Cut() {
	b.mu.Lock()
	if b.cur != nil && b.cur.count > 0 {
		b.frames = append(b.frames, b.cur)
		b.cur = nil
	}
	b.mu.Unlock()
}

// Send publishes the cut frames oldest first, one SubmitColumns call per
// segment, until none is left. A Send that finds another publishing
// leaves its frames to it and returns at once, so no caller waits for
// another's I/O. It returns the first failure of a frame it sent; in
// degraded mode a failed frame is dropped and counted instead.
func (b *Batcher) Send() error {
	var err error
	b.mu.Lock()
	if b.sending {
		b.mu.Unlock()
		return nil
	}
	b.sending = true
	for len(b.frames) > 0 {
		buf := b.frames[0]
		b.frames = append(b.frames[:0], b.frames[1:]...)
		b.mu.Unlock()
		if ferr := b.sendFrame(buf); err == nil {
			err = ferr
		}
		b.mu.Lock()
		b.pending -= buf.count
		buf.count = 0
		b.free = append(b.free, buf)
	}
	b.sending = false
	b.idle.Broadcast()
	b.mu.Unlock()
	return err
}

// Wait returns once no Send is publishing: after a caller's own Send,
// once every frame cut before it has reached the sink.
func (b *Batcher) Wait() {
	b.mu.Lock()
	for b.sending {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// Flush cuts the current batch, sends it and waits for every cut frame
// to reach the sink.
func (b *Batcher) Flush() error {
	b.Cut()
	err := b.Send()
	b.Wait()
	return err
}

// Pending returns the number of shares not yet sent.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// sendFrame hands one cut frame to the sink and stamps it, truncating
// every segment's lanes in place so their capacity survives.
func (b *Batcher) sendFrame(buf *batchBuf) error {
	var flushStart int64
	if b.stamper != nil {
		flushStart = time.Now().UnixNano()
	}
	var err error
	lost := 0
	for i := range buf.segs[:buf.nseg] {
		seg := &buf.segs[i]
		if err = b.sink.SubmitColumns(seg.mids, seg.vals, seg.count, seg.size); err != nil {
			// Count this segment and every unsent one as dropped; the
			// sink may have landed part of the failing segment, which
			// over-counts drops slightly — the safe direction.
			for _, s := range buf.segs[i:buf.nseg] {
				lost += s.count
			}
			break
		}
	}
	for i := range buf.segs[:buf.nseg] {
		seg := &buf.segs[i]
		seg.mids = seg.mids[:0]
		seg.vals = seg.vals[:0]
		seg.count = 0
	}
	buf.nseg = 0
	if err == nil && b.stamper != nil {
		b.stamper(b.epoch.Load(), flushStart)
	}
	if err != nil && b.degraded {
		b.dropped.Add(int64(lost))
		return nil
	}
	return err
}

// SetStamper installs the provenance callback. Install before the
// Batcher is shared across goroutines; a nil stamper (the default)
// costs the flush path nothing, not even a clock read.
func (b *Batcher) SetStamper(fn Stamper) { b.stamper = fn }

// BeginEpoch tags subsequent sends as carrying epoch e's shares. The
// epoch driver calls it alongside its own per-epoch bookkeeping.
func (b *Batcher) BeginEpoch(e uint64) { b.epoch.Store(e) }

// SetDegraded toggles degraded mode: when on, a failed send drops the
// frame (counted by Dropped) instead of returning the error, so an
// epoch proceeds while a proxy is down. Set it before the Batcher is
// shared across goroutines.
func (b *Batcher) SetDegraded(on bool) { b.degraded = on }

// Dropped returns the number of shares discarded by degraded-mode
// sends since the Batcher was created.
func (b *Batcher) Dropped() int64 { return b.dropped.Load() }

// getBufLocked pops a recycled batch buffer or builds a fresh one; the
// caller holds b.mu.
func (b *Batcher) getBufLocked() *batchBuf {
	if n := len(b.free); n > 0 {
		buf := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return buf
	}
	return &batchBuf{}
}

var _ ShareSink = (*Batcher)(nil)
