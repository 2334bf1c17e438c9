package core

// System-level checkpoint/restore: the system section of the one
// checkpoint record (role.Drain.Checkpoint). With Config.DataDir it is
// the in-process statement of the node's crash-recovery protocol:
// checkpoint after a drain, crash, rebuild over the same directory with
// no query, Restore, and re-drive what followed the checkpoint — results
// are byte-identical to an uninterrupted run's.

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
	"privapprox/internal/engine"
	"privapprox/internal/query"
)

// Checkpoint serializes the system's resumable state. Call it between
// epochs (after RunEpoch returns), never concurrently with one.
//
// The system section holds the epoch counter and the overload-control
// state — a flag byte, then when SLO control is on its configuration and
// every per-query controller's state. Queries are sorted by ID, so the
// record is deterministic. The shed thresholds ride in the query set at
// the record's control position.
//
// A checkpoint commits nothing: every drain has already committed the
// positions the record holds, and the brokers' WALs stay whole, so a
// Restore of this record reads back whatever later drains released.
func (s *System) Checkpoint() ([]byte, error) {
	// Both followers read to the topic's end, the one cut the record
	// holds: an epoch run before the first registration moves only the
	// clients' past the registry's first, empty announcement.
	if _, err := s.sync(); err != nil {
		return nil, err
	}
	buf := binary.BigEndian.AppendUint64(nil, s.epoch)
	s.ctrlMu.Lock()
	if !s.sloEnabled {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.sloTarget))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.sloMin))
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.sloWindow))
		ids := slices.SortedFunc(maps.Keys(s.slos), func(a, b query.ID) int {
			return cmp.Or(strings.Compare(a.Analyst, b.Analyst), cmp.Compare(a.Serial, b.Serial))
		})
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = s.slos[id].AppendState(appendID(buf, id))
		}
	}
	s.ctrlMu.Unlock()
	return s.drainer.Checkpoint(buf, nil)
}

func appendID(buf []byte, id query.ID) []byte {
	return binary.BigEndian.AppendUint64(codec.AppendBytes(buf, id.Analyst), id.Serial)
}

func readID(d *codec.Reader) query.ID { return query.ID{Analyst: d.Str(), Serial: d.U64()} }

// Restore rebuilds a System built with Config.Query nil and nothing
// registered (any other is refused with ErrConfig) from a Checkpoint
// record: the drain replays the control topic to the record's control
// position and resumes at the cut (role.Drain.Restore; durable brokers
// read back from their WALs what lies below their memory floor), the
// registry takes the cut's query set at the cut's version, both
// followers read the rest of the control topic, the aggregator, the
// epoch counter and the SLO controllers resume, and the clients replay
// the epochs before the cut (role.Clients.FastForward). Every
// announcement is stamped with the epoch it applies from, so the caller
// re-drives whatever followed the cut — epochs, registrations, stops,
// revisions, SLO actuations — as an uninterrupted run would. A refused
// restore leaves a System to close.
func (s *System) Restore(data []byte) error {
	var (
		epoch uint64
		slo   *sloState
	)
	// The system section is parsed and checked before the drain replays
	// the control topic, seeks a consumer or restores the aggregator, so
	// a record that does not fit this system leaves it untouched.
	_, err := s.drainer.Restore(data, func(section []byte) error {
		if s.cfg.Query != nil || s.registry.Version() != 0 {
			return fmt.Errorf("%w: restore into a system that has registered a query", ErrConfig)
		}
		d := codec.NewReader(section, ErrConfig, "record")
		epoch = d.U64()
		var err error
		if slo, err = readSLOState(&d); err != nil {
			return err
		}
		return d.Done()
	})
	// The registry takes the cut's query set at the cut's version, so a
	// re-driven change repeats the (From, Version) of the one the first
	// life made after the cut, which both followers read below and apply
	// at the sync that follows it, ignoring the repeat.
	cut := cmp.Or(s.drainer.Follower().Applier().Applied(), &engine.QuerySet{})
	if err == nil {
		err = s.registry.Bootstrap(&engine.QuerySet{Version: cut.Version, Entries: cut.Entries})
	}
	if err == nil {
		_, err = s.drainer.Sync(epoch, cut.Version)
	}
	if err == nil {
		_, err = s.clients.Follower().Sync()
	}
	if err == nil {
		err = s.clients.FastForward(0, epoch)
	}
	if err != nil {
		if !errors.Is(err, ErrConfig) {
			err = fmt.Errorf("%w: %w", ErrConfig, err)
		}
		return err
	}
	s.epoch = epoch
	s.registry.SetEpoch(epoch)
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	if slo != nil {
		s.sloTarget, s.sloMin, s.sloWindow = slo.target, slo.shedMin, slo.window
		s.sloEnabled = true
		s.slos = slo.slos
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
