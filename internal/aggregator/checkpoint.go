package aggregator

// Checkpoint/Restore serialize an aggregator's complete dynamic state —
// per-query windows, watermarks, counters, current parameters, the
// estimator replay log, and the share joiner's two generations of
// pending groups and completed keys — into one opaque record, as large
// as the retain horizon, that a durable deployment writes to its WAL
// after every drain. A restarted aggregator with the same queries registered
// restores the record and continues exactly where the killed process
// stopped: no window fires twice, no answer is double-counted, and the
// estimator's seeded rng resumes at the precise position an
// uninterrupted run would have it at (the rng state itself cannot be
// serialized, so the replay log re-derives it — see estEvent).
//
// The caller owns the consistency cut: Checkpoint must not run
// concurrently with SubmitShare/AdvanceTo, and the record must be
// persisted together with the input offsets of everything submitted
// before it (the privapprox-node aggregator role and core.System both
// checkpoint between poll sweeps).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/ckpt"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/seeded"
	"privapprox/internal/stream"
	"privapprox/internal/xorcrypt"
)

// ErrCheckpoint reports a malformed or mismatched checkpoint record.
var ErrCheckpoint = errors.New("aggregator: bad checkpoint")

// checkpointMagic opens every record; Restore rejects any other magic.
var checkpointMagic = []byte("PAC2")

const (
	estKindCall  = byte(0)
	estKindClear = byte(1)
)

// Checkpoint appends the aggregator's serialized state to dst and
// returns the extended buffer. See the file comment for the
// concurrency contract.
func (a *Aggregator) Checkpoint(dst []byte) ([]byte, error) {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	tbl := a.states.Load()

	buf := append(dst, checkpointMagic...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.malformed.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.duplicates.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.removedDecoded.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.removedLate.Load()))

	var unknown, badLen, swept int64
	type pendGroup struct {
		mid      xorcrypt.MID
		payloads [][]byte
		age      int
	}
	type doneKey struct {
		mid xorcrypt.MID
		age int
	}
	var pending []pendGroup
	var completed []doneKey
	for i := range a.shards {
		js := &a.shards[i]
		js.mu.Lock()
		unknown += js.unknownQID
		badLen += js.badLength
		swept += js.swept
		js.joiner.PendingGroups(func(mid xorcrypt.MID, payloads [][]byte, age int) {
			cp := make([][]byte, len(payloads))
			for s, p := range payloads {
				if p != nil {
					cp[s] = append([]byte(nil), p...)
				}
			}
			pending = append(pending, pendGroup{mid: mid, payloads: cp, age: age})
		})
		js.joiner.CompletedKeys(func(mid xorcrypt.MID, age int) {
			completed = append(completed, doneKey{mid: mid, age: age})
		})
		js.mu.Unlock()
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(unknown))
	buf = binary.BigEndian.AppendUint64(buf, uint64(badLen))

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tbl.ordered)))
	for _, st := range tbl.ordered {
		var err error
		buf, err = appendQueryState(buf, st)
		if err != nil {
			return nil, err
		}
	}

	// Sort the join state by message ID so the encoding is deterministic
	// (map iteration above is not).
	sort.Slice(pending, func(i, j int) bool {
		return bytes.Compare(pending[i].mid[:], pending[j].mid[:]) < 0
	})
	sort.Slice(completed, func(i, j int) bool {
		return bytes.Compare(completed[i].mid[:], completed[j].mid[:]) < 0
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pending)))
	for _, g := range pending {
		buf = append(buf, g.mid[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(g.age))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.payloads)))
		for _, p := range g.payloads {
			if p == nil {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
			buf = append(buf, p...)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(completed)))
	for _, d := range completed {
		buf = append(buf, d.mid[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(d.age))
	}
	// Swept trails the record: one written before the counter existed
	// ends here and restores it as 0.
	buf = binary.BigEndian.AppendUint64(buf, uint64(swept))
	return buf, nil
}

func appendQueryState(buf []byte, st *queryState) ([]byte, error) {
	buf = ckpt.AppendBytes(buf, st.q.QID.Analyst)
	buf = binary.BigEndian.AppendUint64(buf, st.q.QID.Serial)
	buf = binary.BigEndian.AppendUint64(buf, st.qidWire)
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.seed))
	p := st.params.Load()
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.S))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.RR.P))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.RR.Q))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.wmMax.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.decoded.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.dropped.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.firedThrough.Load()))

	// Open windows, earliest first for a deterministic encoding. The
	// caller holds no shard lock here and firing is frozen by the
	// checkpoint contract, so Merge sees a settled accumulator.
	st.fireMu.Lock()
	defer st.fireMu.Unlock()
	st.winMu.RLock()
	wins := make([]*openWindow, 0, len(st.windows))
	for _, ow := range st.windows {
		wins = append(wins, ow)
	}
	st.winMu.RUnlock()
	sort.Slice(wins, func(i, j int) bool { return wins[i].window.Start.Before(wins[j].window.Start) })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(wins)))
	for _, ow := range wins {
		acc, err := ow.acc.Merge()
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(ow.window.Start.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ow.window.End.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(acc.N()))
		yes := acc.YesCounts()
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(yes)))
		for _, y := range yes {
			buf = binary.BigEndian.AppendUint64(buf, uint64(y))
		}
	}

	st.estMu.Lock()
	defer st.estMu.Unlock()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.estLog)))
	for _, ev := range st.estLog {
		if ev.clear {
			buf = append(buf, estKindClear)
			continue
		}
		buf = append(buf, estKindCall)
		buf = binary.BigEndian.AppendUint32(buf, uint32(ev.pct))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ev.params.P))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ev.params.Q))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ev.frac))
		buf = binary.BigEndian.AppendUint32(buf, uint32(ev.simN))
		buf = binary.BigEndian.AppendUint32(buf, uint32(ev.rounds))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ev.loss))
	}
	return buf, nil
}

// Restore rebuilds the aggregator's dynamic state from a Checkpoint
// record. It must be called on a freshly constructed aggregator — same
// Proxies/Population/Origin configuration, same queries registered in
// the same order with the same seeds — before any share is submitted.
// A mismatch between the record and the registered queries fails
// loudly; nothing is partially applied before the query table has been
// verified.
func (a *Aggregator) Restore(data []byte) error {
	if !bytes.HasPrefix(data, checkpointMagic) {
		return fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	d := ckpt.NewReader(data[len(checkpointMagic):], ErrCheckpoint)
	malformed, duplicates := d.U64(), d.U64()
	removedDecoded, removedLate := d.U64(), d.U64()
	unknown, badLen := d.U64(), d.U64()
	nq := d.U32()
	if err := d.Err(); err != nil {
		return err
	}

	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	tbl := a.states.Load()
	if int(nq) != len(tbl.ordered) {
		return fmt.Errorf("%w: %d checkpointed queries, %d registered", ErrCheckpoint, nq, len(tbl.ordered))
	}
	for _, st := range tbl.ordered {
		if err := a.restoreQueryState(d, st); err != nil {
			return err
		}
	}

	// Join state routes back through the current shard map (the shard
	// count may legitimately differ across restarts; message routing is
	// stable per MID either way). The age slot: 0 current generation,
	// anything else previous (it held an arrival time before the joiner
	// aged by generation).
	for range d.Count(xorcrypt.MIDSize + 12) {
		var mid xorcrypt.MID
		copy(mid[:], d.Take(xorcrypt.MIDSize))
		age := int(min(d.U64(), 1))
		ns := d.Count(1)
		if ns > 1024 {
			d.Fail("%d sources", ns)
		}
		payloads := make([][]byte, ns)
		for s := range payloads {
			if d.U8() != 0 {
				payloads[s] = append([]byte(nil), d.Bytes()...)
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
		js := &a.shards[a.shardOf(mid)]
		js.mu.Lock()
		err := js.joiner.RestorePending(mid, payloads, age)
		js.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCheckpoint, err)
		}
	}
	for range d.Count(xorcrypt.MIDSize + 8) {
		var mid xorcrypt.MID
		copy(mid[:], d.Take(xorcrypt.MIDSize))
		age := int(min(d.U64(), 1))
		js := &a.shards[a.shardOf(mid)]
		js.mu.Lock()
		js.joiner.RestoreCompleted(mid, age)
		js.mu.Unlock()
	}
	// Swept trails the record: one written before the counter existed
	// ends here and restores it as 0.
	var swept uint64
	if len(d.Rest()) == 8 {
		swept = d.U64()
	}
	if err := d.Done(); err != nil {
		return err
	}

	a.malformed.Store(int64(malformed))
	a.duplicates.Store(int64(duplicates))
	a.removedDecoded.Store(int64(removedDecoded))
	a.removedLate.Store(int64(removedLate))
	// The per-shard attribution of demux drops and swept groups is not
	// meaningful across a restart; fold the totals into shard 0 (Stats
	// sums them anyway).
	a.shards[0].mu.Lock()
	a.shards[0].unknownQID = int64(unknown)
	a.shards[0].badLength = int64(badLen)
	a.shards[0].swept = int64(swept)
	a.shards[0].mu.Unlock()
	return nil
}

func (a *Aggregator) restoreQueryState(d *ckpt.Reader, st *queryState) error {
	want := query.ID{Analyst: d.Str(), Serial: d.U64()}
	wire, seed := d.U64(), int64(d.U64())
	params := budget.Params{S: d.F64(), RR: rr.Params{P: d.F64(), Q: d.F64()}}
	wm, decoded, dropped, ft := d.U64(), d.U64(), d.U64(), d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if st.q.QID != want || st.qidWire != wire {
		return fmt.Errorf("%w: checkpointed query %s (wire %#x) does not match registered %s",
			ErrCheckpoint, want, wire, st.q.QID)
	}
	if st.seed != seed {
		return fmt.Errorf("%w: query %s restored with seed %d, checkpointed %d",
			ErrCheckpoint, want, st.seed, seed)
	}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	st.params.Store(&params)
	st.wmMax.Store(int64(wm))
	st.decoded.Store(int64(decoded))
	st.dropped.Store(int64(dropped))
	// Windows at or below the restored fire horizon already fired (and
	// emitted their cards) in the killed process; re-fires past this
	// point are the WAL replay reproducing the result stream, not new
	// windows, so their cards are suppressed at the source.
	st.firedThrough.Store(int64(ft))
	st.cardsBelow.Store(int64(ft))

	st.fireMu.Lock()
	st.winMu.Lock()
	clear(st.windows)
	var err error
	for n := d.Count(28); n > 0 && err == nil; n-- {
		start, end, count := int64(d.U64()), int64(d.U64()), int64(d.U64())
		err = a.restoreWindow(st, start, end, count, d)
	}
	st.winMu.Unlock()
	st.fireMu.Unlock()
	if err != nil {
		return err
	}

	st.estMu.Lock()
	defer st.estMu.Unlock()
	st.rng = seeded.New(st.seed)
	clear(st.rrLossCache)
	st.estLog = st.estLog[:0]
	for range d.Count(1) {
		switch d.U8() {
		case estKindClear:
			clear(st.rrLossCache)
			st.estLog = append(st.estLog, estEvent{clear: true})
			continue
		case estKindCall:
		default:
			d.Fail("estimator event kind")
		}
		pct := int(d.U32())
		simParams := rr.Params{P: d.F64(), Q: d.F64()}
		frac := d.F64()
		simN, rounds := int(d.U32()), int(d.U32())
		wantLoss := d.F64()
		if err := d.Err(); err != nil {
			return err
		}
		// Replaying the simulation against the freshly seeded rng
		// advances it exactly as the original call did; the recomputed
		// loss doubles as an integrity check on the whole replay chain.
		loss, err := rr.SimulateAccuracyLoss(simParams, frac, simN, rounds, st.rng)
		if err != nil {
			return fmt.Errorf("%w: estimator replay: %v", ErrCheckpoint, err)
		}
		if loss != wantLoss {
			return fmt.Errorf("%w: estimator replay diverged for query %s (pct %d: %v != %v)",
				ErrCheckpoint, st.q.QID, pct, loss, wantLoss)
		}
		st.rrLossCache[pct] = loss
		st.estLog = append(st.estLog, estEvent{
			pct: pct, params: simParams, frac: frac,
			simN: simN, rounds: rounds, loss: loss,
		})
	}
	return d.Err()
}

// restoreWindow rebuilds one open window from its yes counts; the
// caller holds fireMu and winMu.
func (a *Aggregator) restoreWindow(st *queryState, startNano, endNano, n int64, d *ckpt.Reader) error {
	yes := make([]int, d.Count(8))
	for i := range yes {
		yes[i] = int(d.U64())
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(yes) != st.nbuckets {
		return fmt.Errorf("%w: window with %d buckets for query %s (%d)", ErrCheckpoint, len(yes), st.q.QID, st.nbuckets)
	}
	acc, err := answer.NewShardedAccumulator(st.nbuckets, len(a.shards))
	if err != nil {
		return err
	}
	if err := acc.AddCounts(0, yes, int(n)); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	w := stream.Window{Start: time.Unix(0, startNano), End: time.Unix(0, endNano)}
	st.windows[startNano] = &openWindow{window: w, acc: acc}
	return nil
}
