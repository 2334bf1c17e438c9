package aggregator

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/stream"
	"privapprox/internal/telemetry"
	"privapprox/internal/xorcrypt"
)

// SubmitShareBatch is the aggregator's one submit tail: join → decrypt
// → decode → demux → pane. It consumes a polled batch in two phases —
// a record-order join pass that gathers completed groups into
// contiguous per-source lanes, and a tail that XOR-joins each lane
// region in one pass, decodes the packed slots, and folds consecutive
// same-(query, epoch) slots into their pane with one pane lock
// acquisition per segment.
//
// Chunking contract: for a fixed share sequence, how it is cut into
// batches does not change the fired results, the counters or the
// OnDecoded sequence, and a one-share batch is the per-share operator.
// Phase A preserves record order exactly (groups complete on the same
// share, in the same order, whatever the batch boundaries), and Phase
// B's per-segment batching is safe because all slots of a segment share
// one event time: a late verdict at the segment head holds for every
// slot (the watermark only advances on observe, which runs after the
// segment), a pane that would count the first slot late counts all of
// them late, and per-bucket counts are integer sums, so one fold of count
// slots equals count one-slot folds. Observing once per segment instead
// of once per slot is also equivalent — re-observing an already-observed
// event time never advances the watermark, so only the first
// observation of the segment could fire, and it runs against the same
// watermark either way. (Join state ages once per call: a replay a
// horizon behind its original in one batch is a Duplicate here, maybe
// Late when the two arrive in separate calls.)

// batchRun is one uniform-stride region of the Phase A lanes: count
// completed join groups of size-byte payloads, starting at byte offset
// off in every lane. Runs seal on payload-size change so Phase B can
// XOR whole regions without per-message re-slicing.
type batchRun struct {
	off   int
	size  int
	count int
}

// submitScratch is the reusable working set of one SubmitShareBatch
// call: per-source completion lanes, run metadata, the joined-plaintext
// buffer, and the decode scratch. Pooled so concurrent drain goroutines
// never share one.
type submitScratch struct {
	lanes [][]byte
	views [][]byte
	runs  []batchRun
	plain []byte
	vec   answer.BitVector
	msg   answer.Message
	// joined holds, by share index, the group the share completed.
	joined []*stream.Joined[xorcrypt.MID]
}

var submitScratchPool = sync.Pool{New: func() any { return &submitScratch{} }}

// getScratch pops a pooled scratch shaped for n source lanes.
func getScratch(n int) *submitScratch {
	sc := submitScratchPool.Get().(*submitScratch)
	if cap(sc.lanes) < n {
		sc.lanes = make([][]byte, n)
		sc.views = make([][]byte, n)
	}
	sc.lanes = sc.lanes[:n]
	sc.views = sc.views[:n]
	for i := range sc.lanes {
		sc.lanes[i] = sc.lanes[i][:0]
	}
	sc.runs = sc.runs[:0]
	return sc
}

// putScratch returns a scratch to the pool, dropping payload views but
// keeping lane capacity for the next batch.
func putScratch(sc *submitScratch) {
	for i := range sc.views {
		sc.views[i] = nil
	}
	submitScratchPool.Put(sc)
}

// SubmitShareBatch folds in a batch of shares from proxy stream source
// (0 ≤ source < Proxies). When a share completes a message, the message
// is decrypted, decoded, demultiplexed to its query, and folded into
// that query's pane; windows closed by the advancing watermark are
// returned as results, in fire order. Duplicates and malformed messages
// are counted. Every share payload is borrowed for the call only — a
// polled batch's fetch buffer is free once the batch is submitted. An
// empty batch is a no-op.
//
// The batch is processed in share order, so how a caller chunks its
// polls does not affect results (the contract at the top of this file).
// The arrival time is not used — join state ages on event time alone
// (ageJoins) — and stays for the callers that pass it.
func (a *Aggregator) SubmitShareBatch(shares []xorcrypt.Share, source int, _ time.Time) ([]Result, error) {
	tr := a.tracer.Load()
	if tr == nil {
		return a.submitShareBatch(shares, source)
	}
	// Timing is batch-granular: two clock reads amortized over the
	// whole batch keep the per-share overhead inside the allocgate's
	// 0-alloc and the Fig 8 ≤3% budgets.
	t0 := time.Now()
	out, err := a.submitShareBatch(shares, source)
	tr.RecordCurrent(telemetry.StageJoin, time.Since(t0), len(shares), 0)
	return out, err
}

func (a *Aggregator) submitShareBatch(shares []xorcrypt.Share, source int) ([]Result, error) {
	if len(shares) == 0 {
		return nil, nil
	}
	if source < 0 || source >= a.cfg.Proxies {
		return nil, fmt.Errorf("%w: source %d of %d", stream.ErrJoinArity, source, a.cfg.Proxies)
	}
	// Phase A joins every message of the batch before Phase B observes
	// any of their event times: both run under genMu, and the join state
	// ages once, after the last segment (ageJoins).
	a.genMu.RLock()
	defer a.ageJoins()
	defer a.genMu.RUnlock()
	sc := getScratch(a.cfg.Proxies)
	defer putScratch(sc)

	// Phase A: the join, one record-order pass under joinMu, so a batch
	// takes the join lock twice (join, recycle) and drains submitting at
	// once meet per batch rather than per share. Source is in range, so
	// Add fails only as a duplicate. The completed groups' payloads are
	// then copied, in record order and with no lock held (a completed
	// group is the caller's until Recycle), into contiguous per-source
	// lanes — runs seal on size change — and the groups recycled, one
	// more pass under joinMu.
	sc.joined = slices.Grow(sc.joined[:0], len(shares))[:len(shares)]
	a.joinMu.Lock()
	for i := range shares {
		joined, err := a.joiner.Add(shares[i].MID, source, shares[i].Payload)
		if err != nil {
			a.duplicates.Add(1)
		}
		sc.joined[i] = joined
	}
	a.joinMu.Unlock()
	for _, joined := range sc.joined {
		if joined == nil {
			continue
		}
		// Uniformity check — exactly the per-message join's error
		// conditions (empty or mismatched share lengths → malformed).
		size := len(joined.Payloads[0])
		uniform := size > 0
		for _, p := range joined.Payloads[1:] {
			if len(p) != size {
				uniform = false
				break
			}
		}
		if !uniform {
			a.malformed.Add(1)
			continue
		}
		if nr := len(sc.runs); nr == 0 || sc.runs[nr-1].size != size {
			sc.runs = append(sc.runs, batchRun{off: len(sc.lanes[0]), size: size})
		}
		for i, p := range joined.Payloads {
			sc.lanes[i] = append(sc.lanes[i], p...)
		}
		sc.runs[len(sc.runs)-1].count++
	}
	a.joinMu.Lock()
	for _, joined := range sc.joined {
		a.joiner.Recycle(joined)
	}
	a.joinMu.Unlock()
	clear(sc.joined)

	// Phase B: per run, one span XOR per lane recovers the packed
	// plaintext batch; slots decode in order and consecutive
	// same-(query, epoch) slots ingest as one segment. The join lock is
	// not held here — the lanes are caller-local.
	var out []Result
	var unknown, badlen int64
	for _, run := range sc.runs {
		span := run.size * run.count
		for i := range sc.lanes {
			sc.views[i] = sc.lanes[i][run.off : run.off+span]
		}
		plain, err := xorcrypt.JoinColumnsInto(sc.plain[:0], sc.views)
		if plain != nil {
			sc.plain = plain
		}
		if err != nil {
			a.malformed.Add(int64(run.count))
			continue
		}
		segStart := -1
		var segState *queryState
		var segEpoch uint64
		for k := 0; k < run.count; k++ {
			slot := plain[k*run.size : (k+1)*run.size]
			var st *queryState
			var epoch uint64
			good := false
			if err := sc.msg.UnmarshalBinaryView(slot, &sc.vec); err != nil {
				a.malformed.Add(1)
			} else if qs := a.stateFor(sc.msg.QueryID); qs == nil {
				unknown++
			} else if sc.msg.Answer.Len() != qs.nbuckets {
				badlen++
			} else {
				st, epoch, good = qs, sc.msg.Epoch, true
			}
			if segStart >= 0 && (!good || st != segState || epoch != segEpoch) {
				out, err = a.ingestSegment(segState, segEpoch, plain, segStart, k, run.size, out)
				if err != nil {
					a.foldDemuxDrops(unknown, badlen)
					return out, err
				}
				segStart = -1
			}
			if good && segStart < 0 {
				segStart, segState, segEpoch = k, st, epoch
			}
		}
		if segStart >= 0 {
			var err error
			out, err = a.ingestSegment(segState, segEpoch, plain, segStart, run.count, run.size, out)
			if err != nil {
				a.foldDemuxDrops(unknown, badlen)
				return out, err
			}
		}
	}
	a.foldDemuxDrops(unknown, badlen)
	return out, nil
}

// foldDemuxDrops adds a batch's demux drop counts to the aggregator's.
func (a *Aggregator) foldDemuxDrops(unknown, badlen int64) {
	a.unknownQID.Add(unknown)
	a.badLength.Add(badlen)
}

// ingestSegment folds slots [start, end) of a packed plaintext run —
// all decoded, all of one query and epoch — into the query's pane for
// that epoch with one fold, then advances the watermark once; results
// fired by the advance are appended to out. Only an observation that
// actually moves the watermark takes the fire path — within an epoch
// all event times of one query are equal, so concurrent drains fold
// without ever touching fireMu.
func (a *Aggregator) ingestSegment(st *queryState, epoch uint64, plain []byte, start, end, size int, out []Result) ([]Result, error) {
	count := end - start
	st.decoded.Add(int64(count))
	eventTime := a.cfg.Origin.Add(time.Duration(epoch) * st.q.Frequency)
	if a.cfg.OnDecoded != nil {
		// Per slot, in order, whatever the chunking. Ownership contract:
		// the slot bytes are batch scratch, valid only for the duration
		// of the callback — the hook must copy what it keeps.
		for k := start; k < end; k++ {
			a.cfg.OnDecoded(plain[k*size:(k+1)*size], eventTime)
		}
	}
	if st.isLate(eventTime) {
		// A late segment can never advance the watermark, so nothing can
		// fire on its account.
		st.dropped.Add(int64(count))
		return out, nil
	}

	// A pane whose windows fired while the segment raced to it (nil here,
	// or summed under its lock) counts the segment late: once per answer,
	// however many of the pane's windows it missed.
	late := true
	if p := a.paneFor(st, st.assigner.PaneOf(eventTime.UnixNano())); p != nil {
		var err error
		if late, err = p.add(plain[start*size+answer.HeaderLen:], size, st.nbuckets, count); err != nil {
			return out, err
		}
	}
	if late {
		st.dropped.Add(int64(count))
	}

	if !st.observe(eventTime) {
		return out, nil
	}
	a.ageDue.Store(true)
	st.fireMu.Lock()
	res, err := a.fireLocked(st, false)
	st.fireMu.Unlock()
	if err != nil {
		return out, err
	}
	return append(out, res...), nil
}
