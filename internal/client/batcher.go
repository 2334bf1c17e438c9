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
// them to the underlying sink in batches: automatically whenever limit
// shares have accumulated (0 means no automatic flush), and on Flush.
// It is safe for concurrent use, so a worker pool of clients can share
// one Batcher per proxy; the epoch driver calls Flush once after all
// clients answered, turning an epoch's O(N) proxy round-trips into
// O(1).
//
// Submit copies each share directly into the columnar layout the wire
// carries: per payload size, one contiguous MID lane and one contiguous
// payload lane (the arena). Fixed stride is a per-segment property, so
// a batch mixing query shapes simply fills one segment per shape, in
// first-seen order. Flush hands whole segments to the sink without
// re-slicing. The ShareSink ownership contract holds: callers reuse
// their split scratch immediately, and batch buffers are recycled
// through a free list once the sink consumed them.
type Batcher struct {
	sink  ColumnSink
	limit int
	// degraded makes Flush tolerate a dead sink: a batch the sink (after
	// its own retries) could not accept is dropped and counted instead
	// of failing the epoch — the client's other shares for those answers
	// are orphaned at the aggregator, which simply never completes their
	// joins, so the estimator sees the realized (smaller) sample and
	// widens margins honestly.
	degraded bool
	dropped  atomic.Int64

	// stamper, when set, receives one provenance callback per
	// successfully flushed batch (see SetStamper), tagged with epoch.
	// The callback itself builds and publishes the lineage stamp, so the
	// Batcher stays free of wire dependencies.
	stamper Stamper
	epoch   atomic.Uint64

	mu   sync.Mutex
	cur  *batchBuf
	free []*batchBuf
}

// Stamper is the provenance hook: called once per successfully flushed
// batch — off the submit hot path, after the sink consumed the shares —
// with the epoch the flush belongs to and the wall-clock nanosecond the
// flush began.
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

// NewBatcher wraps sink in a Batcher that auto-flushes every limit
// shares (limit <= 0 disables auto-flush; every share then waits for an
// explicit Flush).
func NewBatcher(sink ColumnSink, limit int) *Batcher {
	return &Batcher{sink: sink, limit: limit}
}

// Submit copies one share into the current batch's columnar lanes,
// flushing if the batch limit is reached. The caller keeps share.Payload.
func (b *Batcher) Submit(share xorcrypt.Share) error {
	return b.SubmitColumns(share.MID[:], share.Payload, 1, len(share.Payload))
}

// SubmitColumns copies count shares in the ColumnSink layout into the
// current batch under one lock, cutting it at the limit exactly where
// count Submit calls would. (Lane growth may reallocate; that is safe:
// the lanes are append-only until the batch is flushed and recycled.) A
// Batcher is thus a ColumnSink: a worker's lanes can flush into it.
func (b *Batcher) SubmitColumns(mids, payloads []byte, count, size int) error {
	b.mu.Lock()
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
			if err := b.flushLocked(); err != nil || count == 0 {
				return err
			}
			b.mu.Lock()
		}
	}
	b.mu.Unlock()
	return nil
}

// Flush forwards everything buffered to the sink, one SubmitColumns
// call per segment.
func (b *Batcher) Flush() error {
	b.mu.Lock()
	return b.flushLocked()
}

// Pending returns the number of buffered shares.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return 0
	}
	return b.cur.count
}

// flushLocked sends the current batch and releases b.mu. The send
// happens outside the lock so a slow sink does not serialize other
// submitters; swapping the whole batchBuf keeps batches disjoint. Once
// the sink returns — having copied or consumed the batch per its
// contract — the buffer goes back on the free list for the next epoch.
func (b *Batcher) flushLocked() error {
	buf := b.cur
	b.cur = nil
	degraded := b.degraded
	b.mu.Unlock()
	if buf == nil || buf.count == 0 {
		if buf != nil {
			b.putBuf(buf)
		}
		return nil
	}
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
	b.putBuf(buf)
	if err == nil && b.stamper != nil {
		b.stamper(b.epoch.Load(), flushStart)
	}
	if err != nil && degraded {
		b.dropped.Add(int64(lost))
		return nil
	}
	return err
}

// SetStamper installs the provenance callback. Install before the
// Batcher is shared across goroutines; a nil stamper (the default)
// costs the flush path nothing, not even a clock read.
func (b *Batcher) SetStamper(fn Stamper) { b.stamper = fn }

// BeginEpoch tags subsequent flushes as carrying epoch e's shares. The
// epoch driver calls it alongside its own per-epoch bookkeeping.
func (b *Batcher) BeginEpoch(e uint64) { b.epoch.Store(e) }

// SetDegraded toggles degraded mode: when on, a failed flush drops the
// batch (counted by Dropped) instead of returning the error, so an
// epoch proceeds while a proxy is down. Set it before the Batcher is
// shared across goroutines.
func (b *Batcher) SetDegraded(on bool) {
	b.mu.Lock()
	b.degraded = on
	b.mu.Unlock()
}

// Dropped returns the number of shares discarded by degraded-mode
// flushes since the Batcher was created.
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

// putBuf resets a consumed batch buffer — truncating every segment's
// lanes in place so their capacity survives — and returns it to the
// free list.
func (b *Batcher) putBuf(buf *batchBuf) {
	for i := range buf.segs[:buf.nseg] {
		seg := &buf.segs[i]
		seg.mids = seg.mids[:0]
		seg.vals = seg.vals[:0]
		seg.count = 0
	}
	buf.nseg = 0
	buf.count = 0
	b.mu.Lock()
	b.free = append(b.free, buf)
	b.mu.Unlock()
}

var _ ShareSink = (*Batcher)(nil)
