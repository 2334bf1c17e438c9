package aggregator

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/stream"
	"privapprox/internal/telemetry"
	"privapprox/internal/xorcrypt"
)

// SubmitRound is the aggregator's one submit tail: join → decrypt →
// decode → demux → pane. It consumes a polled round — one share slice
// per proxy — in two phases: a join pass that gathers completed groups
// into contiguous per-source lanes, and a tail that XOR-joins each lane
// region in one pass, decodes the packed slots, and folds consecutive
// same-(query, epoch) slots into their pane with one pane lock
// acquisition per segment. SubmitShareBatch is its one-source case.
//
// Chunking contract: for a fixed share sequence, how it is cut into
// batches does not change the fired results, the counters or the
// OnDecoded sequence, and a one-share batch is the per-share operator.
// A round is its sources' slices submitted one after the other, in
// proxy order. Phase A preserves that order exactly (groups complete on
// the same share, in the same order, whatever the batch boundaries),
// and Phase B's per-segment batching is safe because all slots of a
// segment share one event time: a late verdict at the segment head
// holds for every slot (the watermark only advances on observe, which
// runs after the segment), a pane that would count the first slot late
// counts all of them late, and per-bucket counts are integer sums, so
// one fold of count slots equals count one-slot folds. Observing once
// per segment instead of once per slot is also equivalent —
// re-observing an already-observed event time never advances the
// watermark, so only the first observation of the segment could fire,
// and it runs against the same watermark either way. (Join state ages
// once per call: a replay a horizon behind its original in one batch is
// a Duplicate here, maybe Late when the two arrive in separate calls.)

// batchRun is one uniform-stride region of the Phase A lanes: count
// completed join groups of size-byte payloads, starting at byte offset
// off in every lane. Runs seal on payload-size change so Phase B can
// XOR whole regions without per-message re-slicing.
type batchRun struct {
	off   int
	size  int
	count int
}

// submitScratch is the reusable working set of one submit: per-source
// completion lanes, run metadata, the joined-plaintext buffer, the
// decode scratch and the join pass's bookkeeping. Pooled so concurrent
// submits never share one.
type submitScratch struct {
	lanes [][]byte
	views [][]byte
	runs  []batchRun
	plain []byte
	vec   answer.BitVector
	msg   answer.Message
	// paired marks the positions whose shares pair there; strays holds
	// the seeded hashes of the MIDs at the positions that do not align,
	// and strayBits their bit set.
	paired    []bool
	strays    []uint64
	strayBits []uint64
	seed      maphash.Seed
	// done lists the completed messages in completion order: a group
	// the joiner handed out or, nil, the next pair, the shares at
	// position pairs[k] of every source.
	done  []*stream.Joined[xorcrypt.MID]
	pairs []int32
}

var submitScratchPool = sync.Pool{New: func() any { return &submitScratch{seed: maphash.MakeSeed()} }}

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

// SubmitRound folds in one round of shares, shares[i] polled from proxy
// stream i (at most Proxies slices; an empty one contributed nothing).
// When shares complete a message, the message is decrypted, decoded,
// demultiplexed to its query, and folded into that query's pane;
// windows closed by the advancing watermark are returned as results, in
// fire order. Duplicates and malformed messages are counted. Every share
// payload is borrowed for the call only — a polled batch's fetch buffer
// is free once the round is submitted. An empty round is a no-op.
//
// The results and counters are those of SubmitShareBatch on each
// source's slice in proxy order (the contract at the top of this file).
// A message whose shares sit at the same position of every slice
// completes there, with one replay check and no group parked.
//
// through is the last epoch the caller has reached. A message of a
// later epoch — a restored drain re-reading what its first life
// published past the cut — is parked, decoded but not routed, until a
// round reaches its epoch: it is then ingested before the round's
// shares, under the query set in force by then, so each window closes
// in the round of its closing epoch, as in an uninterrupted run.
// math.MaxUint64 parks nothing.
func (a *Aggregator) SubmitRound(shares [][]xorcrypt.Share, through uint64) ([]Result, error) {
	if len(shares) > a.cfg.Proxies {
		return nil, fmt.Errorf("%w: %d sources of %d", stream.ErrJoinArity, len(shares), a.cfg.Proxies)
	}
	var out []Result
	if prev := a.through.Swap(through); through > prev {
		var err error
		if out, err = a.unpark(through); err != nil {
			return out, err
		}
	}
	res, err := a.submit(shares, 0)
	return extend(out, res), err
}

// unpark ingests, in epoch order, the parked messages of epochs up to
// through.
func (a *Aggregator) unpark(through uint64) ([]Result, error) {
	a.parkMu.Lock()
	var due [][]byte
	for _, slot := range a.parked {
		if parkedEpoch(slot) <= through {
			due = append(due, slot)
		}
	}
	if len(due) == 0 {
		a.parkMu.Unlock()
		return nil, nil
	}
	a.parked = slices.DeleteFunc(a.parked, func(slot []byte) bool { return parkedEpoch(slot) <= through })
	a.parkMu.Unlock()
	slices.SortStableFunc(due, func(x, y []byte) int { return cmp.Compare(parkedEpoch(x), parkedEpoch(y)) })
	a.genMu.RLock()
	defer a.ageJoins()
	defer a.genMu.RUnlock()
	sc := getScratch(a.cfg.Proxies)
	defer putScratch(sc)
	var out []Result
	for _, slot := range due {
		var err error
		if out, err = a.ingestRun(sc, slot, len(slot), 1, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// parkedEpoch reads a parked message's epoch, 0 if it does not decode.
func parkedEpoch(slot []byte) uint64 {
	var msg answer.Message
	var vec answer.BitVector
	if msg.UnmarshalBinaryView(slot, &vec) != nil {
		return 0
	}
	return msg.Epoch
}

// SubmitShareBatch folds in a batch of shares from proxy stream source
// (0 ≤ source < Proxies): SubmitRound with one source.
func (a *Aggregator) SubmitShareBatch(shares []xorcrypt.Share, source int, _ time.Time) ([]Result, error) {
	if len(shares) == 0 {
		return nil, nil
	}
	if source < 0 || source >= a.cfg.Proxies {
		return nil, fmt.Errorf("%w: source %d of %d", stream.ErrJoinArity, source, a.cfg.Proxies)
	}
	return a.submit([][]xorcrypt.Share{shares}, source)
}

// submit runs the tail over shares[i] from source base+i.
func (a *Aggregator) submit(shares [][]xorcrypt.Share, base int) ([]Result, error) {
	tr := a.tracer.Load()
	if tr == nil {
		return a.submitRound(shares, base)
	}
	// Timing is batch-granular: two clock reads amortized over the
	// whole round keep the per-share overhead inside the allocgate's
	// 0-alloc and the Fig 8 ≤3% budgets.
	t0 := time.Now()
	out, err := a.submitRound(shares, base)
	n := 0
	for _, s := range shares {
		n += len(s)
	}
	tr.RecordCurrent(telemetry.StageJoin, time.Since(t0), n, 0)
	return out, err
}

func (a *Aggregator) submitRound(shares [][]xorcrypt.Share, base int) ([]Result, error) {
	empty := true
	for _, s := range shares {
		empty = empty && len(s) == 0
	}
	if empty {
		return nil, nil
	}
	// Phase A joins every message of the round before Phase B observes
	// any of their event times: both run under genMu, and the join state
	// ages once, after the last segment (ageJoins).
	a.genMu.RLock()
	defer a.ageJoins()
	defer a.genMu.RUnlock()
	sc := getScratch(a.cfg.Proxies)
	defer putScratch(sc)

	// Phase A: the join, under joinMu, so a round takes the join lock
	// once (twice when a group completed: join, recycle). The completed
	// messages' payloads are then copied, in completion order and with no
	// lock held (a completed group is the caller's until Recycle), into
	// contiguous per-source lanes — runs seal on size change — and the
	// groups recycled, one more pass under joinMu.
	a.joinMu.Lock()
	groups := a.join(sc, shares, base)
	a.joinMu.Unlock()
	pairs := sc.pairs
	for _, g := range sc.done {
		payloads := sc.views
		if g != nil {
			payloads = g.Payloads
		} else {
			for i, s := range shares {
				payloads[i] = s[pairs[0]].Payload
			}
			pairs = pairs[1:]
		}
		// Uniformity check — exactly the per-message join's error
		// conditions (empty or mismatched share lengths → malformed).
		size := len(payloads[0])
		uniform := size > 0
		for _, p := range payloads[1:] {
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
		for i, p := range payloads {
			sc.lanes[i] = append(sc.lanes[i], p...)
		}
		sc.runs[len(sc.runs)-1].count++
	}
	if groups > 0 {
		a.joinMu.Lock()
		for _, g := range sc.done {
			a.joiner.Recycle(g)
		}
		a.joinMu.Unlock()
	}
	clear(sc.done)
	sc.done, sc.pairs = sc.done[:0], sc.pairs[:0]

	// Phase B: per run, one span XOR per lane recovers the packed
	// plaintext batch; slots decode in order and consecutive
	// same-(query, epoch) slots ingest as one segment. The join lock is
	// not held here — the lanes are caller-local.
	var out []Result
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
		if out, err = a.ingestRun(sc, plain, run.size, run.count, out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// ingestRun decodes count plaintext slots of size bytes, parks each of
// an epoch past through (SubmitRound) and ingests consecutive
// same-(query, epoch) slots as one segment.
func (a *Aggregator) ingestRun(sc *submitScratch, plain []byte, size, count int, out []Result) ([]Result, error) {
	var unknown, badlen int64
	through := a.through.Load()
	segStart := -1
	var segState *queryState
	var segEpoch uint64
	for k := 0; k < count; k++ {
		slot := plain[k*size : (k+1)*size]
		var st *queryState
		var epoch uint64
		good := false
		if err := sc.msg.UnmarshalBinaryView(slot, &sc.vec); err != nil {
			a.malformed.Add(1)
		} else if sc.msg.Epoch > through {
			a.parkMu.Lock()
			a.parked = append(a.parked, slices.Clone(slot))
			a.parkMu.Unlock()
		} else if qs := a.stateFor(sc.msg.QueryID); qs == nil {
			unknown++
		} else if sc.msg.Answer.Len() != qs.nbuckets {
			badlen++
		} else {
			st, epoch, good = qs, sc.msg.Epoch, true
		}
		if segStart >= 0 && (!good || st != segState || epoch != segEpoch) {
			var err error
			if out, err = a.ingestSegment(segState, segEpoch, plain, segStart, k, size, out); err != nil {
				a.foldDemuxDrops(unknown, badlen)
				return out, err
			}
			segStart = -1
		}
		if good && segStart < 0 {
			segStart, segState, segEpoch = k, st, epoch
		}
	}
	a.foldDemuxDrops(unknown, badlen)
	if segStart >= 0 {
		return a.ingestSegment(segState, segEpoch, plain, segStart, count, size, out)
	}
	return out, nil
}

// join is Phase A's join; the caller holds joinMu. It folds shares[i]
// in as source base+i's, source after source in proxy order, and lists
// the completed messages in sc.done in the order they complete,
// returning how many of them are groups to recycle. A share goes
// through the joiner's Add — the per-share operator — unless its
// message pairs: the message's MID sits at the same position of every
// source's slice (a whole round: base 0 and a slice per proxy), no
// generation holds it, and no unaligned position of any source carries
// it. Such a message completes exactly as the Adds would have completed
// it — first share of each source, on the last source's share — so its
// first source marks it done (Pair, where Add would park it) and its
// last source lists it (where Add would complete it): no group, no
// park copy, no recycle. Whatever the rules leave out is a replay or
// a sibling shifted in the round, and Add takes it in order.
func (a *Aggregator) join(sc *submitScratch, shares [][]xorcrypt.Share, base int) (groups int) {
	m := 0
	if len(shares) == a.cfg.Proxies {
		m = len(shares[0])
		for _, s := range shares[1:] {
			m = min(m, len(s))
		}
	}
	sc.paired = slices.Grow(sc.paired[:0], m)[:m]
	sc.strays = sc.strays[:0]
	// The replay check, batched: this pass looks every aligned MID up in
	// both generations before the pass that marks it done, so their cache
	// misses overlap.
	pairs := 0
	for i := range m {
		mid, aligned := shares[0][i].MID, true
		for _, s := range shares[1:] {
			aligned = aligned && s[i].MID == mid
		}
		if !aligned {
			for _, s := range shares {
				sc.strays = append(sc.strays, maphash.Comparable(sc.seed, s[i].MID))
			}
		}
		sc.paired[i] = aligned && !a.joiner.Seen(mid)
		if sc.paired[i] {
			pairs++
		}
	}
	// A MID at an unaligned position goes through Add, which must find
	// it where the Adds of SubmitShareBatch calls would: it never pairs.
	// A bit set over the strays' hashes, a word per stray, tells; a false
	// hit (about one in 64) only sends a message through Add. (A MID past
	// the aligned prefix comes after every pair.)
	if pairs > 0 && len(sc.strays) > 0 {
		n := 1 << bits.Len(uint(len(sc.strays)))
		sc.strayBits = slices.Grow(sc.strayBits[:0], n)[:n]
		clear(sc.strayBits)
		for _, h := range sc.strays {
			sc.strayBits[h>>6&uint64(n-1)] |= 1 << (h & 63)
		}
		for i, ok := range sc.paired {
			if ok {
				h := maphash.Comparable(sc.seed, shares[0][i].MID)
				sc.paired[i] = sc.strayBits[h>>6&uint64(n-1)]&(1<<(h&63)) == 0
			}
		}
	}
	last := len(shares) - 1
	for s, src := range shares {
		for i := range src {
			if i < m && sc.paired[i] {
				if s > 0 || a.joiner.Pair(src[i].MID) {
					if s == last {
						sc.done = append(sc.done, nil)
						sc.pairs = append(sc.pairs, int32(i))
					}
					continue
				}
				// An aligned replay earlier in the round paired the MID.
				sc.paired[i] = false
			}
			// Source is in range, so Add fails only as a duplicate.
			joined, err := a.joiner.Add(src[i].MID, base+s, src[i].Payload)
			if err != nil {
				a.duplicates.Add(1)
			}
			if joined != nil {
				sc.done = append(sc.done, joined)
				groups++
			}
		}
	}
	return groups
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
