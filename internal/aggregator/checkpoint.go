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
	"math/rand"
	"sort"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/stats"
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
	buf = appendCpString(buf, st.q.QID.Analyst)
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
	d := &cpDec{buf: data}
	if magic, err := d.take(len(checkpointMagic)); err != nil || !bytes.Equal(magic, checkpointMagic) {
		return fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	malformed, err := d.u64()
	if err != nil {
		return err
	}
	duplicates, err := d.u64()
	if err != nil {
		return err
	}
	removedDecoded, err := d.u64()
	if err != nil {
		return err
	}
	removedLate, err := d.u64()
	if err != nil {
		return err
	}
	unknown, err := d.u64()
	if err != nil {
		return err
	}
	badLen, err := d.u64()
	if err != nil {
		return err
	}

	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	tbl := a.states.Load()
	nq, err := d.u32()
	if err != nil {
		return err
	}
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
	// stable per MID either way).
	np, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < np; i++ {
		mid, age, payloads, err := d.pendingGroup()
		if err != nil {
			return err
		}
		js := &a.shards[a.shardOf(mid)]
		js.mu.Lock()
		err = js.joiner.RestorePending(mid, payloads, age)
		js.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCheckpoint, err)
		}
	}
	nc, err := d.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nc; i++ {
		midRaw, err := d.take(xorcrypt.MIDSize)
		if err != nil {
			return err
		}
		var mid xorcrypt.MID
		copy(mid[:], midRaw)
		age, err := d.u64()
		if err != nil {
			return err
		}
		js := &a.shards[a.shardOf(mid)]
		js.mu.Lock()
		js.joiner.RestoreCompleted(mid, int(min(age, 1)))
		js.mu.Unlock()
	}
	var swept uint64
	if len(d.buf) == 8 {
		swept, _ = d.u64()
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCheckpoint, len(d.buf))
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

func (a *Aggregator) restoreQueryState(d *cpDec, st *queryState) error {
	analyst, err := d.str()
	if err != nil {
		return err
	}
	serial, err := d.u64()
	if err != nil {
		return err
	}
	wire, err := d.u64()
	if err != nil {
		return err
	}
	seed, err := d.u64()
	if err != nil {
		return err
	}
	want := query.ID{Analyst: analyst, Serial: serial}
	if st.q.QID != want || st.qidWire != wire {
		return fmt.Errorf("%w: checkpointed query %s (wire %#x) does not match registered %s",
			ErrCheckpoint, want, wire, st.q.QID)
	}
	if st.seed != int64(seed) {
		return fmt.Errorf("%w: query %s restored with seed %d, checkpointed %d",
			ErrCheckpoint, want, st.seed, int64(seed))
	}
	ps, err := d.f64()
	if err != nil {
		return err
	}
	pp, err := d.f64()
	if err != nil {
		return err
	}
	pq, err := d.f64()
	if err != nil {
		return err
	}
	params := budget.Params{S: ps, RR: rr.Params{P: pp, Q: pq}}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	st.params.Store(&params)
	wm, err := d.u64()
	if err != nil {
		return err
	}
	st.wmMax.Store(int64(wm))
	decoded, err := d.u64()
	if err != nil {
		return err
	}
	st.decoded.Store(int64(decoded))
	dropped, err := d.u64()
	if err != nil {
		return err
	}
	st.dropped.Store(int64(dropped))
	ft, err := d.u64()
	if err != nil {
		return err
	}
	// Windows at or below the restored fire horizon already fired (and
	// emitted their cards) in the killed process; re-fires past this
	// point are the WAL replay reproducing the result stream, not new
	// windows, so their cards are suppressed at the source.
	st.firedThrough.Store(int64(ft))
	st.cardsBelow.Store(int64(ft))

	nw, err := d.u32()
	if err != nil {
		return err
	}
	st.fireMu.Lock()
	st.winMu.Lock()
	clear(st.windows)
	for i := uint32(0); i < nw; i++ {
		startNano, err := d.u64()
		if err == nil {
			var endNano, n uint64
			if endNano, err = d.u64(); err == nil {
				if n, err = d.u64(); err == nil {
					var nb uint32
					if nb, err = d.u32(); err == nil {
						err = a.restoreWindow(st, int64(startNano), int64(endNano), int64(n), int(nb), d)
					}
				}
			}
		}
		if err != nil {
			st.winMu.Unlock()
			st.fireMu.Unlock()
			return err
		}
	}
	st.winMu.Unlock()
	st.fireMu.Unlock()

	ne, err := d.u32()
	if err != nil {
		return err
	}
	st.estMu.Lock()
	defer st.estMu.Unlock()
	st.rng = rand.New(rand.NewSource(st.seed))
	clear(st.rrLossCache)
	st.estLog = st.estLog[:0]
	for i := uint32(0); i < ne; i++ {
		kind, err := d.u8()
		if err != nil {
			return err
		}
		if kind == estKindClear {
			clear(st.rrLossCache)
			st.estLog = append(st.estLog, estEvent{clear: true})
			continue
		}
		if kind != estKindCall {
			return fmt.Errorf("%w: estimator event kind %#x", ErrCheckpoint, kind)
		}
		pct, err := d.u32()
		if err != nil {
			return err
		}
		simP, err := d.f64()
		if err != nil {
			return err
		}
		simQ, err := d.f64()
		if err != nil {
			return err
		}
		frac, err := d.f64()
		if err != nil {
			return err
		}
		simN, err := d.u32()
		if err != nil {
			return err
		}
		rounds, err := d.u32()
		if err != nil {
			return err
		}
		wantLoss, err := d.f64()
		if err != nil {
			return err
		}
		// Replaying the simulation against the freshly seeded rng
		// advances it exactly as the original call did; the recomputed
		// loss doubles as an integrity check on the whole replay chain.
		simParams := rr.Params{P: simP, Q: simQ}
		loss, err := rr.SimulateAccuracyLoss(simParams, frac, int(simN), int(rounds), st.rng)
		if err != nil {
			return fmt.Errorf("%w: estimator replay: %v", ErrCheckpoint, err)
		}
		if loss != wantLoss {
			return fmt.Errorf("%w: estimator replay diverged for query %s (pct %d: %v != %v)",
				ErrCheckpoint, st.q.QID, pct, loss, wantLoss)
		}
		st.rrLossCache[int(pct)] = loss
		st.estLog = append(st.estLog, estEvent{
			pct: int(pct), params: simParams, frac: frac,
			simN: int(simN), rounds: int(rounds), loss: loss,
		})
	}
	return nil
}

// restoreWindow rebuilds one open window; the caller holds fireMu and
// winMu.
func (a *Aggregator) restoreWindow(st *queryState, startNano, endNano, n int64, nb int, d *cpDec) error {
	if nb != st.nbuckets {
		return fmt.Errorf("%w: window with %d buckets for query %s (%d)", ErrCheckpoint, nb, st.q.QID, st.nbuckets)
	}
	yes := make([]int, nb)
	for i := range yes {
		y, err := d.u64()
		if err != nil {
			return err
		}
		yes[i] = int(y)
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

// AppendResults serializes fired results — the piece of a durable
// deployment's output that must survive a crash so the restarted
// process can emit the complete, byte-identical result sequence.
func AppendResults(dst []byte, res []Result) []byte {
	buf := binary.BigEndian.AppendUint32(dst, uint32(len(res)))
	for i := range res {
		r := &res[i]
		buf = appendCpString(buf, r.Query.Analyst)
		buf = binary.BigEndian.AppendUint64(buf, r.Query.Serial)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Window.Start.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Window.End.UnixNano()))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Responses))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Population))
		if r.Inverted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Buckets)))
		for _, b := range r.Buckets {
			buf = appendCpString(buf, b.Label)
			buf = binary.BigEndian.AppendUint64(buf, uint64(b.ObservedYes))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(b.Truthful))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(b.Estimate.Estimate))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(b.Estimate.Margin))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(b.Estimate.Confidence))
		}
	}
	return buf
}

// DecodeResults decodes an AppendResults section, returning the results
// and the unconsumed remainder of data.
func DecodeResults(data []byte) ([]Result, []byte, error) {
	d := &cpDec{buf: data}
	n, err := d.u32()
	if err != nil {
		return nil, nil, err
	}
	out := make([]Result, 0, n)
	for i := uint32(0); i < n; i++ {
		var r Result
		if r.Query.Analyst, err = d.str(); err != nil {
			return nil, nil, err
		}
		if r.Query.Serial, err = d.u64(); err != nil {
			return nil, nil, err
		}
		startNano, err := d.u64()
		if err != nil {
			return nil, nil, err
		}
		endNano, err := d.u64()
		if err != nil {
			return nil, nil, err
		}
		r.Window = stream.Window{Start: time.Unix(0, int64(startNano)), End: time.Unix(0, int64(endNano))}
		resp, err := d.u64()
		if err != nil {
			return nil, nil, err
		}
		r.Responses = int(resp)
		pop, err := d.u64()
		if err != nil {
			return nil, nil, err
		}
		r.Population = int(pop)
		inv, err := d.u8()
		if err != nil {
			return nil, nil, err
		}
		r.Inverted = inv == 1
		nb, err := d.u32()
		if err != nil {
			return nil, nil, err
		}
		for j := uint32(0); j < nb; j++ {
			var b BucketEstimate
			if b.Label, err = d.str(); err != nil {
				return nil, nil, err
			}
			oy, err := d.u64()
			if err != nil {
				return nil, nil, err
			}
			b.ObservedYes = int(oy)
			if b.Truthful, err = d.f64(); err != nil {
				return nil, nil, err
			}
			var est, margin, conf float64
			if est, err = d.f64(); err != nil {
				return nil, nil, err
			}
			if margin, err = d.f64(); err != nil {
				return nil, nil, err
			}
			if conf, err = d.f64(); err != nil {
				return nil, nil, err
			}
			b.Estimate = stats.ConfidenceInterval{Estimate: est, Margin: margin, Confidence: conf}
			r.Buckets = append(r.Buckets, b)
		}
		out = append(out, r)
	}
	return out, d.buf, nil
}

// --- checkpoint wire helpers -------------------------------------------

func appendCpString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// cpDec is a bounds-checked sequential reader over a checkpoint record.
type cpDec struct{ buf []byte }

func (d *cpDec) take(n int) ([]byte, error) {
	if len(d.buf) < n {
		return nil, fmt.Errorf("%w: short record", ErrCheckpoint)
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out, nil
}

func (d *cpDec) u8() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *cpDec) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (d *cpDec) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (d *cpDec) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *cpDec) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	return string(b), err
}

func (d *cpDec) pendingGroup() (xorcrypt.MID, int, [][]byte, error) {
	var mid xorcrypt.MID
	raw, err := d.take(xorcrypt.MIDSize)
	if err != nil {
		return mid, 0, nil, err
	}
	copy(mid[:], raw)
	// The age slot: 0 current generation, anything else previous (it held
	// an arrival time before the joiner aged by generation).
	age, err := d.u64()
	if err != nil {
		return mid, 0, nil, err
	}
	ns, err := d.u32()
	if err != nil {
		return mid, 0, nil, err
	}
	if ns > 1024 {
		return mid, 0, nil, fmt.Errorf("%w: %d sources", ErrCheckpoint, ns)
	}
	payloads := make([][]byte, ns)
	for s := uint32(0); s < ns; s++ {
		present, err := d.u8()
		if err != nil {
			return mid, 0, nil, err
		}
		if present == 0 {
			continue
		}
		plen, err := d.u32()
		if err != nil {
			return mid, 0, nil, err
		}
		p, err := d.take(int(plen))
		if err != nil {
			return mid, 0, nil, err
		}
		payloads[s] = append([]byte(nil), p...)
	}
	return mid, int(min(age, 1)), payloads, nil
}
