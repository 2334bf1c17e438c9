package core

// System-level checkpoint/restore: the epoch counter, the drain
// consumers' input positions, and the aggregator's full dynamic state
// serialize into one record. Together with Config.DataDir (durable
// proxy brokers) this is the in-process statement of the crash-recovery
// protocol the networked privapprox-node deployment runs: checkpoint
// after a drain, crash at any point, rebuild the System over the same
// data directory, re-register the same queries, Restore, and continue —
// results from the resumed run are byte-identical to an uninterrupted
// one.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/query"
)

// sysCkptMagic opens every system checkpoint: epoch, consumer positions,
// per-query registration epochs, the SLO overload-control section (flag
// byte, controller configuration, and per-query controller state), then
// the aggregator section. Restore rejects any other magic.
var sysCkptMagic = []byte("PSC2")

// Checkpoint serializes the system's resumable state. Call it between
// epochs (after RunEpoch returns), never concurrently with one.
//
// A checkpoint releases what it covers: once the record is built, the
// drain consumers commit the positions it holds, and the brokers drop
// the shares below them from memory (the WALs stay whole). The record
// is built first and the commit comes second, so a failure between the
// two only leaves the floor behind. The returned record is then the
// oldest the system can resume from — persist it before running on.
func (s *System) Checkpoint() ([]byte, error) {
	if err := s.ensureConsumers(); err != nil {
		return nil, err
	}
	buf := append([]byte(nil), sysCkptMagic...)
	buf = binary.BigEndian.AppendUint64(buf, s.epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.consumers)))
	for _, c := range s.consumers {
		buf = c.AppendPositions(buf)
	}
	// Per-query registration epochs, so Restore can fast-forward each
	// client subscription through exactly the epochs it answered in the
	// previous life — a query registered mid-run never existed before
	// its registration epoch and must not have coins skipped for it.
	s.ctrlMu.Lock()
	regs := make([]regEpoch, 0, len(s.regEpochs))
	for id, e := range s.regEpochs {
		regs = append(regs, regEpoch{id: id, epoch: e})
	}
	s.ctrlMu.Unlock()
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].id.Analyst != regs[j].id.Analyst {
			return regs[i].id.Analyst < regs[j].id.Analyst
		}
		return regs[i].id.Serial < regs[j].id.Serial
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(regs)))
	for _, r := range regs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.id.Analyst)))
		buf = append(buf, r.id.Analyst...)
		buf = binary.BigEndian.AppendUint64(buf, r.id.Serial)
		buf = binary.BigEndian.AppendUint64(buf, r.epoch)
	}
	buf = s.appendSLOState(buf)
	buf, err := s.agg.Checkpoint(buf)
	if err != nil {
		return nil, err
	}
	if err := s.commitConsumers(); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendSLOState writes the PSC2 overload-control section: a flag byte,
// then (when SLO control is on) the controller configuration and every
// per-query controller's serialized state, sorted by query ID so the
// record is deterministic. The in-flight shed thresholds live inside
// the controller state — Restore re-actuates them, so a recovered
// system resumes shedding at the level the crashed one had reached.
func (s *System) appendSLOState(buf []byte) []byte {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	if !s.sloEnabled {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.sloTarget))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.sloMin))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.sloWindow))
	ids := make([]query.ID, 0, len(s.slos))
	for id := range s.slos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Analyst != ids[j].Analyst {
			return ids[i].Analyst < ids[j].Analyst
		}
		return ids[i].Serial < ids[j].Serial
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(id.Analyst)))
		buf = append(buf, id.Analyst...)
		buf = binary.BigEndian.AppendUint64(buf, id.Serial)
		buf = s.slos[id].AppendState(buf)
	}
	return buf
}

// restoreSLOState parses the PSC2 overload-control section, reinstalls
// the controllers, and re-actuates each query's checkpointed shed
// threshold through the registry and aggregator. Returns the remaining
// bytes (the aggregator section).
func (s *System) restoreSLOState(d []byte) ([]byte, error) {
	if len(d) < 1 {
		return nil, fmt.Errorf("%w: short system checkpoint", ErrConfig)
	}
	enabled := d[0]
	d = d[1:]
	if enabled > 1 {
		return nil, fmt.Errorf("%w: bad SLO flag %d", ErrConfig, enabled)
	}
	if enabled == 0 {
		return d, nil
	}
	if !s.cfg.MultiQuery {
		return nil, fmt.Errorf("%w: checkpoint has SLO state but MultiQuery mode is off", ErrConfig)
	}
	if len(d) < 24 {
		return nil, fmt.Errorf("%w: short system checkpoint", ErrConfig)
	}
	target := math.Float64frombits(binary.BigEndian.Uint64(d))
	shedMin := math.Float64frombits(binary.BigEndian.Uint64(d[8:]))
	window := int(binary.BigEndian.Uint32(d[16:]))
	count := binary.BigEndian.Uint32(d[20:])
	d = d[24:]
	slos := make(map[query.ID]*budget.SLOController, count)
	for i := uint32(0); i < count; i++ {
		if len(d) < 4 {
			return nil, fmt.Errorf("%w: short system checkpoint", ErrConfig)
		}
		alen := binary.BigEndian.Uint32(d)
		d = d[4:]
		if uint32(len(d)) < alen+8 {
			return nil, fmt.Errorf("%w: short system checkpoint", ErrConfig)
		}
		id := query.ID{Analyst: string(d[:alen])}
		d = d[alen:]
		id.Serial = binary.BigEndian.Uint64(d)
		d = d[8:]
		ctl, err := budget.NewSLOController(target, shedMin, window)
		if err != nil {
			return nil, err
		}
		rest, err := ctl.RestoreState(d)
		if err != nil {
			return nil, err
		}
		d = rest
		slos[id] = ctl
	}
	s.ctrlMu.Lock()
	s.sloTarget, s.sloMin, s.sloWindow = target, shedMin, window
	s.sloEnabled = true
	s.slos = slos
	s.ctrlMu.Unlock()
	// Re-actuate the checkpointed thresholds: the rebuilt registry and
	// aggregator start every query at shed 1, but the crashed system was
	// mid-shed — push each controller's threshold back through the same
	// path a live adjustment takes.
	for id, ctl := range slos {
		if shed := ctl.Shed(); shed != 1 {
			if err := s.registry.SetShed(id, shed); err != nil {
				return nil, err
			}
			if err := s.agg.SetShed(id, shed); err != nil {
				return nil, err
			}
		}
	}
	if _, err := s.follower.Sync(); err != nil {
		return nil, err
	}
	return d, nil
}

// regEpoch pairs a query with the epoch it was registered at.
type regEpoch struct {
	id    query.ID
	epoch uint64
}

// Restore rebuilds a freshly constructed System from a Checkpoint
// record: the epoch counter resumes, the drain consumers seek to the
// checkpointed cut, every client's per-subscription randomness is
// fast-forwarded through the already-answered epochs, and the
// aggregator restores its windows, watermarks, and estimator state. In
// MultiQuery mode the same queries must be re-registered (in the same
// order) before calling Restore.
func (s *System) Restore(data []byte) error {
	if !bytes.HasPrefix(data, sysCkptMagic) {
		return fmt.Errorf("%w: bad system checkpoint magic", ErrConfig)
	}
	d := data[len(sysCkptMagic):]
	if len(d) < 12 {
		return fmt.Errorf("%w: short system checkpoint", ErrConfig)
	}
	epoch := binary.BigEndian.Uint64(d)
	nconsumers := binary.BigEndian.Uint32(d[8:12])
	d = d[12:]
	if err := s.ensureConsumers(); err != nil {
		return err
	}
	if int(nconsumers) != len(s.consumers) {
		return fmt.Errorf("%w: checkpoint has %d consumers, system has %d", ErrConfig, nconsumers, len(s.consumers))
	}
	for _, c := range s.consumers {
		rest, err := c.SeekPositions(d)
		if err != nil {
			return err
		}
		d = rest
	}
	if len(d) < 4 {
		return fmt.Errorf("%w: short system checkpoint", ErrConfig)
	}
	nregs := binary.BigEndian.Uint32(d)
	d = d[4:]
	regs := make(map[query.ID]uint64, nregs)
	for i := uint32(0); i < nregs; i++ {
		if len(d) < 4 {
			return fmt.Errorf("%w: short system checkpoint", ErrConfig)
		}
		alen := binary.BigEndian.Uint32(d)
		d = d[4:]
		if uint32(len(d)) < alen+16 {
			return fmt.Errorf("%w: short system checkpoint", ErrConfig)
		}
		id := query.ID{Analyst: string(d[:alen])}
		d = d[alen:]
		id.Serial = binary.BigEndian.Uint64(d)
		regs[id] = binary.BigEndian.Uint64(d[8:16])
		d = d[16:]
	}
	d, err := s.restoreSLOState(d)
	if err != nil {
		return err
	}
	if err := s.agg.Restore(d); err != nil {
		return err
	}
	s.epoch = epoch
	// Clients resume their coin streams where the crashed process left
	// them: each subscription is fast-forwarded through exactly the
	// epochs it was live for — [its registration epoch, the checkpoint
	// epoch). Subscriptions are already in place (construction in
	// legacy mode, re-registration in MultiQuery mode).
	for id, from := range regs {
		for _, c := range s.clients {
			c.FastForwardQuery(id, from, epoch)
		}
	}
	s.ctrlMu.Lock()
	s.regEpochs = regs
	s.ctrlMu.Unlock()
	return nil
}

// resultsEqual reports whether two result sequences are identical — the
// recovery tests' byte-level comparison, shared here so experiments can
// assert the same invariant.
func resultsEqual(a, b []aggregator.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Query != b[i].Query || a[i].Responses != b[i].Responses ||
			a[i].Population != b[i].Population || a[i].Inverted != b[i].Inverted ||
			!a[i].Window.Start.Equal(b[i].Window.Start) || !a[i].Window.End.Equal(b[i].Window.End) ||
			len(a[i].Buckets) != len(b[i].Buckets) {
			return false
		}
		for j := range a[i].Buckets {
			if a[i].Buckets[j] != b[i].Buckets[j] {
				return false
			}
		}
	}
	return true
}
