package aggregator

// Checkpoint/Restore serialize an aggregator's complete dynamic state —
// per-query open panes, watermarks, counters, each estimator's stream
// position and memoized losses, the messages parked for a later epoch,
// and the share joiner's two generations of pending groups and
// completed keys — into
// one opaque record, as large as the retain horizon, that a durable
// deployment writes to its WAL after every drain. A restarted aggregator
// with the same queries registered restores the record and continues
// exactly where the killed process stopped: no window fires twice, no
// answer is double-counted, and each estimator's seeded stream resumes
// at the position an uninterrupted run would have it at. A query's
// parameters and shed thresholds are not in the record: the control
// topic the restarted wiring replays before Restore carries them.
//
// The record holds state, not history: an estimator is its stream's
// 20-byte position plus at most 100 memoized losses, however long the
// query has run and however often it was retuned. The layout (PAC6),
// integers big-endian, strings u32-length-prefixed, each list in
// ascending order of its first field:
//
//	"PAC6" | seed | malformed | duplicates | removed decoded | removed late
//	       | unknown query | length mismatch | swept
//	       | u32 queries, in registration order: analyst, serial, wire,
//	         watermark, decoded, late,
//	         u32 panes (start, end, n, u32 buckets, yes per bucket),
//	         estimator stream (string),
//	         u32 memoized losses (u32 percent, f64 loss)
//	       | through | u32 parked messages, in arrival order (plaintext
//	         slot string)
//	       | u32 pending groups (MID, u8 age, u32 sources,
//	         per source u8 present and, if present, the share string)
//	       | u32 completed keys (MID, u8 age)
//
// Restore accepts exactly what Checkpoint writes, so a record it accepts
// re-encodes to its own bytes (FuzzAggregatorRestore): every pane starts
// on the query's pane grid and is one pane long. A PAC3 record, which
// carried open windows instead of panes, is refused like any other
// magic — a sliding window there is longer than a pane — and so are a
// PAC4 record, which held the parameters and no parked messages, and a
// PAC5 record, which held each query's fired-through window start.
//
// Firing is frozen at the cut, and every fire runs at the watermark it
// follows, so the record needs nothing more: the last fire's watermark
// is the restored watermark, and a pane was summed exactly when its
// first window ends at or below it.
//
// The caller owns the consistency cut: Checkpoint must not run
// concurrently with SubmitShareBatch/AdvanceTo, and the record must be
// persisted together with the input offsets of everything submitted
// before it (the privapprox-node aggregator role and core.System both
// checkpoint between poll sweeps).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"privapprox/internal/codec"
	"privapprox/internal/query"
	"privapprox/internal/xorcrypt"
)

// ErrCheckpoint reports a malformed or mismatched checkpoint record.
var ErrCheckpoint = errors.New("aggregator: bad checkpoint")

// checkpointMagic opens every record; Restore rejects any other magic.
var checkpointMagic = []byte("PAC6")

// Checkpoint appends the aggregator's serialized state to dst and
// returns the extended buffer. See the file comment for the
// concurrency contract.
func (a *Aggregator) Checkpoint(dst []byte) ([]byte, error) {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	tbl := a.states.Load()

	// Join entries are encoded under the join lock and sorted after: each
	// opens with its MID, which no two entries share, so byte order is MID
	// order.
	var pending [][]byte
	var completed []joinKey
	a.joinMu.Lock()
	a.joiner.PendingGroups(func(mid xorcrypt.MID, payloads [][]byte, age int) {
		e := append(append([]byte(nil), mid[:]...), byte(age))
		e = binary.BigEndian.AppendUint32(e, uint32(len(payloads)))
		for _, p := range payloads {
			// nil is a source not yet heard from; an empty share is present.
			if p == nil {
				e = append(e, 0)
			} else {
				e = codec.AppendBytes(append(e, 1), p)
			}
		}
		pending = append(pending, e)
	})
	a.joiner.CompletedKeys(func(mid xorcrypt.MID, age int) {
		var k joinKey
		k[copy(k[:], mid[:])] = byte(age)
		completed = append(completed, k)
	})
	a.joinMu.Unlock()
	slices.SortFunc(pending, bytes.Compare)
	slices.SortFunc(completed, func(x, y joinKey) int { return bytes.Compare(x[:], y[:]) })

	buf := append(dst, checkpointMagic...)
	for _, v := range [...]int64{a.cfg.Seed, a.malformed.Load(), a.duplicates.Load(),
		a.removedDecoded.Load(), a.removedLate.Load(), a.unknownQID.Load(), a.badLength.Load(), a.swept.Load()} {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tbl.ordered)))
	for _, st := range tbl.ordered {
		var err error
		if buf, err = appendQueryState(buf, st); err != nil {
			return nil, err
		}
	}
	buf = binary.BigEndian.AppendUint64(buf, a.through.Load())
	a.parkMu.Lock()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.parked)))
	for _, slot := range a.parked {
		buf = codec.AppendBytes(buf, slot)
	}
	a.parkMu.Unlock()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pending)))
	for _, e := range pending {
		buf = append(buf, e...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(completed)))
	for _, k := range completed {
		buf = append(buf, k[:]...)
	}
	return buf, nil
}

// joinKey is a completed key's checkpoint entry: its MID, then its age.
type joinKey [xorcrypt.MIDSize + 1]byte

func appendQueryState(buf []byte, st *queryState) ([]byte, error) {
	buf = codec.AppendBytes(buf, st.q.QID.Analyst)
	buf = binary.BigEndian.AppendUint64(buf, st.q.QID.Serial)
	buf = binary.BigEndian.AppendUint64(buf, st.qidWire)
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.wmMax.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.decoded.Load()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.dropped.Load()))

	// Open panes, earliest first for a deterministic encoding. Firing is
	// frozen by the checkpoint contract, so each pane's counts are
	// settled.
	st.fireMu.Lock()
	defer st.fireMu.Unlock()
	panes := st.sortedPanes()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(panes)))
	for _, p := range panes {
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.start))
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.start+st.assigner.Pane()))
		p.mu.Lock()
		n, yes := p.acc.N(), p.acc.YesCounts()
		p.mu.Unlock()
		buf = binary.BigEndian.AppendUint64(buf, uint64(n))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(yes)))
		for _, y := range yes {
			buf = binary.BigEndian.AppendUint64(buf, uint64(y))
		}
	}

	st.estMu.Lock()
	defer st.estMu.Unlock()
	state, err := st.src.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf = codec.AppendBytes(buf, state)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.rrLossCache)))
	for _, pct := range slices.Sorted(maps.Keys(st.rrLossCache)) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(pct))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(st.rrLossCache[pct]))
	}
	return buf, nil
}

// Restore rebuilds the aggregator's dynamic state from a Checkpoint
// record. It must be called on a freshly constructed aggregator — same
// Proxies/Population/Origin/Seed configuration, same queries registered
// in the same order — before any share is submitted. A mismatch between
// the record and the registered queries fails loudly; nothing is
// partially applied before the query table has been verified.
func (a *Aggregator) Restore(data []byte) error {
	if !bytes.HasPrefix(data, checkpointMagic) {
		return fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	d := codec.NewReader(data[len(checkpointMagic):], ErrCheckpoint, "record")
	seed := int64(d.U64())
	malformed, duplicates := d.U64(), d.U64()
	removedDecoded, removedLate := d.U64(), d.U64()
	unknown, badLen, swept := d.U64(), d.U64(), d.U64()
	nq := d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	if seed != a.cfg.Seed {
		return fmt.Errorf("%w: estimator seed %d checkpointed, %d configured", ErrCheckpoint, seed, a.cfg.Seed)
	}

	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	tbl := a.states.Load()
	if int(nq) != len(tbl.ordered) {
		return fmt.Errorf("%w: %d checkpointed queries, %d registered", ErrCheckpoint, nq, len(tbl.ordered))
	}
	for _, st := range tbl.ordered {
		if err := a.restoreQueryState(&d, st); err != nil {
			return err
		}
	}
	through := d.U64()
	var parked [][]byte
	for range d.Count(4) {
		slot := append([]byte{}, d.Bytes()...)
		if parkedEpoch(slot) <= through {
			d.Fail("parked message not of an epoch past %d", through)
		}
		parked = append(parked, slot)
	}

	// The joiner refuses a key it holds already, so no key is both
	// pending and completed.
	a.joinMu.Lock()
	defer a.joinMu.Unlock()
	var last []byte
	key := func() (mid xorcrypt.MID, age int) {
		raw := d.Take(xorcrypt.MIDSize)
		if age = int(d.U8()); age > 1 {
			d.Fail("join entry of age %d", age)
		}
		if last != nil && bytes.Compare(raw, last) <= 0 {
			d.Fail("join entries out of order")
		}
		last = raw
		copy(mid[:], raw)
		return mid, age
	}
	for range d.Count(xorcrypt.MIDSize + 5) {
		mid, age := key()
		payloads := make([][]byte, d.Count(1))
		for s := range payloads {
			switch d.U8() {
			case 0:
			case 1:
				payloads[s] = append([]byte{}, d.Bytes()...) // present, though maybe empty
			default:
				d.Fail("share presence flag")
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
		if err := a.joiner.RestorePending(mid, payloads, age); err != nil {
			return fmt.Errorf("%w: %v", ErrCheckpoint, err)
		}
	}
	last = nil
	for range d.Count(xorcrypt.MIDSize + 1) {
		mid, age := key()
		if err := d.Err(); err != nil {
			return err
		}
		if err := a.joiner.RestoreCompleted(mid, age); err != nil {
			return fmt.Errorf("%w: %v", ErrCheckpoint, err)
		}
	}
	if err := d.Done(); err != nil {
		return err
	}

	a.malformed.Store(int64(malformed))
	a.duplicates.Store(int64(duplicates))
	a.removedDecoded.Store(int64(removedDecoded))
	a.removedLate.Store(int64(removedLate))
	a.unknownQID.Store(int64(unknown))
	a.badLength.Store(int64(badLen))
	a.swept.Store(int64(swept))
	a.through.Store(through)
	a.parked = parked
	return nil
}

func (a *Aggregator) restoreQueryState(d *codec.Reader, st *queryState) error {
	want := query.ID{Analyst: d.Str(), Serial: d.U64()}
	wire := d.U64()
	wm, decoded, dropped := d.U64(), d.U64(), d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if st.q.QID != want || st.qidWire != wire {
		return fmt.Errorf("%w: checkpointed query %s (wire %#x) does not match registered %s",
			ErrCheckpoint, want, wire, st.q.QID)
	}
	st.wmMax.Store(int64(wm))
	st.decoded.Store(int64(decoded))
	st.dropped.Store(int64(dropped))

	st.fireMu.Lock()
	st.paneMu.Lock()
	clear(st.panes)
	st.paneMu.Unlock()
	st.firedWM = st.watermark()
	var err error
	var last int64
	for n := d.Count(28); n > 0 && err == nil; n-- {
		start, end, count := int64(d.U64()), int64(d.U64()), int64(d.U64())
		if len(st.panes) > 0 && start <= last || st.assigner.PaneOf(start) != start || end-start != st.assigner.Pane() {
			d.Fail("pane [%d, %d) of query %s out of order, off the pane grid or not one pane long", start, end, want)
		}
		last = start
		err = a.restorePane(st, start, count, d)
	}
	st.fireMu.Unlock()
	if err != nil {
		return err
	}

	st.estMu.Lock()
	defer st.estMu.Unlock()
	if err := st.src.UnmarshalBinary(d.Bytes()); err != nil {
		d.Fail("estimator stream of query %s: %v", want, err)
	}
	clear(st.rrLossCache)
	lastPct := 0
	for range d.Count(12) {
		pct, loss := int(d.U32()), d.F64()
		if pct <= lastPct || pct > 100 {
			d.Fail("memoized loss at %d%% of query %s", pct, want)
		}
		lastPct = pct
		st.rrLossCache[pct] = loss
	}
	return d.Err()
}

// restorePane rebuilds one open pane from its yes counts; the caller
// holds fireMu. A pane every window of which is behind the watermark
// would have left the registry at its last fire, so it is refused.
func (a *Aggregator) restorePane(st *queryState, start, n int64, d *codec.Reader) error {
	yes := make([]int, d.Count(8))
	for i := range yes {
		yes[i] = int(d.U64())
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(yes) != st.nbuckets {
		return fmt.Errorf("%w: pane with %d buckets for query %s (%d)", ErrCheckpoint, len(yes), st.q.QID, st.nbuckets)
	}
	p := a.paneFor(st, start)
	if p == nil {
		return fmt.Errorf("%w: pane at %d of query %s is behind the watermark", ErrCheckpoint, start, st.q.QID)
	}
	if err := p.acc.AddCounts(yes, int(n)); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	return nil
}
