package core

// System-level checkpoint/restore: the epoch counter, the per-query
// registration epochs and the overload-control state form the system
// section of the one checkpoint record every durable deployment writes
// (role.Drain.Checkpoint), beside the drain consumers' input positions
// and the aggregator's full dynamic state. Together with Config.DataDir
// (durable proxy brokers) this is the in-process statement of the
// crash-recovery protocol the networked privapprox-node deployment runs:
// checkpoint after a drain, crash at any point, rebuild the System over
// the same data directory, re-register the same queries, Restore, and
// continue — results from the resumed run are byte-identical to an
// uninterrupted one.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"privapprox/internal/budget"
	"privapprox/internal/codec"
	"privapprox/internal/query"
)

// Checkpoint serializes the system's resumable state. Call it between
// epochs (after RunEpoch returns), never concurrently with one.
//
// The system section holds the epoch counter; each query's registration
// epoch, so Restore can fast-forward each client subscription through
// exactly the epochs it answered in the previous life (a query
// registered mid-run never existed before its registration epoch and
// must not have coins skipped for it); and the overload-control state —
// a flag byte, then when SLO control is on its configuration and every
// per-query controller's state. Queries are sorted by ID, so the record
// is deterministic. The in-flight shed thresholds live inside the
// controller state: Restore re-actuates them, so a recovered system
// resumes shedding at the level the crashed one had reached.
//
// A checkpoint commits nothing: every drain has already committed the
// positions the record holds, and the brokers have dropped the shares
// below them from memory. Their WALs stay whole, so a Restore of this
// record reads back whatever later drains have released since.
func (s *System) Checkpoint() ([]byte, error) {
	buf := binary.BigEndian.AppendUint64(nil, s.epoch)
	s.ctrlMu.Lock()
	ids := sortedIDs(s.regEpochs)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = appendID(buf, id)
		buf = binary.BigEndian.AppendUint64(buf, s.regEpochs[id])
	}
	if !s.sloEnabled {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.sloTarget))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.sloMin))
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.sloWindow))
		ids = sortedIDs(s.slos)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = s.slos[id].AppendState(appendID(buf, id))
		}
	}
	s.ctrlMu.Unlock()
	return s.drainer.Checkpoint(buf, nil)
}

func sortedIDs[V any](m map[query.ID]V) []query.ID {
	return slices.SortedFunc(maps.Keys(m), func(a, b query.ID) int {
		return cmp.Or(strings.Compare(a.Analyst, b.Analyst), cmp.Compare(a.Serial, b.Serial))
	})
}

func appendID(buf []byte, id query.ID) []byte {
	return binary.BigEndian.AppendUint64(codec.AppendBytes(buf, id.Analyst), id.Serial)
}

func readID(d *codec.Reader) query.ID { return query.ID{Analyst: d.Str(), Serial: d.U64()} }

// Restore rebuilds a freshly constructed System from a Checkpoint
// record: the drain consumers seek to the checkpointed cut (the durable
// brokers read any records between it and their memory floor back from
// their WALs), the aggregator restores its windows, watermarks, and
// estimator state, the
// epoch counter resumes, and every client's per-subscription randomness
// is fast-forwarded through the already-answered epochs. The query set
// the aggregator's follower holds must match the checkpoint's, in the
// same order: register the same queries (Config.Query first) before
// calling Restore. A durable fleet replays the previous life's
// announcements to both followers at the first registration, so a
// checkpoint taken before a later registration cannot be restored once
// the control topic holds the newer set.
func (s *System) Restore(data []byte) error {
	var (
		epoch uint64
		regs  map[query.ID]uint64
		slo   *sloState
	)
	// The system section is parsed and checked before the drain seeks a
	// consumer or restores the aggregator, so a record that does not fit
	// this system leaves it untouched.
	_, err := s.drainer.Restore(data, func(section []byte) error {
		d := codec.NewReader(section, ErrConfig, "record")
		epoch = d.U64()
		regs = make(map[query.ID]uint64)
		for range d.Count(20) {
			id := readID(&d)
			regs[id] = d.U64()
		}
		var err error
		if slo, err = readSLOState(&d); err != nil {
			return err
		}
		return d.Done()
	})
	if err != nil {
		if !errors.Is(err, ErrConfig) {
			err = fmt.Errorf("%w: %w", ErrConfig, err)
		}
		return err
	}
	if err := s.resumeAnnouncements(); err != nil {
		return err
	}
	if slo != nil {
		if err := s.applySLOState(slo); err != nil {
			return err
		}
	}
	s.epoch = epoch
	// Clients resume their coin streams where the crashed process left
	// them: each subscription is fast-forwarded through exactly the
	// epochs it was live for — [its registration epoch, the checkpoint
	// epoch). The re-registrations have put the subscriptions in place.
	for id, from := range regs {
		for _, c := range s.clients.Clients() {
			c.FastForwardQuery(id, from, epoch)
		}
	}
	s.ctrlMu.Lock()
	s.regEpochs = regs
	s.ctrlMu.Unlock()
	return nil
}

// resumeAnnouncements moves the registry's version past every snapshot
// the clients' applier has taken. A durable fleet replays the previous
// life's announcements, whose versions run ahead of this life's
// registry; the newest-wins applier would otherwise ignore what this
// life announces from here on — a re-actuated or later shed threshold, a
// later registration — until the registry's counter caught up. The
// re-registered entries match the replayed ones, so nothing is
// re-announced here.
func (s *System) resumeAnnouncements() error {
	if _, err := s.sync(); err != nil {
		return err
	}
	snap := s.registry.Snapshot()
	if v := s.clients.Follower().Applier().Version(); v > snap.Version {
		snap.Version = v
		return s.registry.Bootstrap(&snap)
	}
	return nil
}

// sloState is the overload-control section of a checkpoint record,
// parsed but not yet installed.
type sloState struct {
	target, shedMin float64
	window          int
	slos            map[query.ID]*budget.SLOController
}

// readSLOState parses the overload-control section without touching the
// system; it returns nil when the record has SLO control off.
func readSLOState(d *codec.Reader) (*sloState, error) {
	switch flag := d.U8(); {
	case flag == 0:
		return nil, d.Err()
	case flag > 1:
		d.Fail("bad SLO flag %d", flag)
		return nil, d.Err()
	}
	st := &sloState{target: d.F64(), shedMin: d.F64(), window: int(d.U32()), slos: make(map[query.ID]*budget.SLOController)}
	for range d.Count(12) {
		id := readID(d)
		if st.window > d.Len()/8 {
			// The ring sizes an allocation: it must fit the record.
			d.Fail("SLO window %d beyond the record", st.window)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		ctl, err := budget.NewSLOController(st.target, st.shedMin, st.window)
		if err != nil {
			return nil, err
		}
		if err := ctl.RestoreState(d); err != nil {
			return nil, err
		}
		st.slos[id] = ctl
	}
	return st, d.Err()
}

// applySLOState reinstalls the parsed controllers and re-actuates each
// query's checkpointed shed threshold through the registry, whose
// announcement the sync carries to the clients and the aggregator.
func (s *System) applySLOState(st *sloState) error {
	s.ctrlMu.Lock()
	s.sloTarget, s.sloMin, s.sloWindow = st.target, st.shedMin, st.window
	s.sloEnabled = true
	s.slos = st.slos
	s.ctrlMu.Unlock()
	// Re-actuate the checkpointed thresholds: the rebuilt registry starts
	// every query at shed 1, but the crashed system was mid-shed — push
	// each controller's threshold back through the same path a live
	// adjustment takes.
	for id, ctl := range st.slos {
		if shed := ctl.Shed(); shed != 1 {
			if err := s.registry.SetShed(id, shed); err != nil {
				return err
			}
		}
	}
	_, err := s.sync()
	return err
}
