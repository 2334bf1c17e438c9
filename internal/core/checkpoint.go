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
	"privapprox/internal/proxy"
	"privapprox/internal/query"
)

// Checkpoint serializes the system's resumable state. Call it between
// epochs (after RunEpoch returns), never concurrently with one.
//
// The system section holds the epoch counter; each query's registration
// epoch, so Restore fast-forwards each client subscription through
// exactly the epochs it answered (a query registered mid-run must not
// have coins skipped for epochs before it); and the overload-control
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

// Restore rebuilds a System built with Config.Query nil and nothing
// registered (any other is refused with ErrConfig) from a Checkpoint
// record: both followers replay the control topic to the record's
// control position, so the clients and the aggregator hold the
// checkpoint's query set; the drain consumers seek to its cut (durable
// brokers read back from their WALs what lies below their memory
// floor); the aggregator, the epoch counter and the SLO controllers
// resume; and every client is fast-forwarded through the epochs it
// answered. The caller then re-drives what followed the cut,
// registrations and SLO actuations included (see resumeControl). A
// refused restore leaves a System to close.
func (s *System) Restore(data []byte) error {
	var (
		epoch uint64
		regs  map[query.ID]uint64
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
	if err == nil {
		err = s.resumeControl()
	}
	if err != nil {
		if !errors.Is(err, ErrConfig) {
			err = fmt.Errorf("%w: %w", ErrConfig, err)
		}
		return err
	}
	s.epoch = epoch
	// Each subscription is fast-forwarded through exactly the epochs it
	// was live for: [its registration epoch, the checkpoint epoch).
	for id, from := range regs {
		for _, c := range s.clients.Clients() {
			c.FastForwardQuery(id, from, epoch)
		}
	}
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	s.regEpochs = regs
	if slo != nil {
		s.sloTarget, s.sloMin, s.sloWindow = slo.target, slo.shedMin, slo.window
		s.sloEnabled = true
		s.slos = slo.slos
	}
	return nil
}

// resumeControl replays the clients' follower to the cut and skips it to
// the topic's end. The aggregator's reads on to the end, as its first
// drain step would, so laterChange must hold. The registry takes the
// cut's set at the newest version on the topic: its next announcement wins.
func (s *System) resumeControl() error {
	drain := s.drainer.Follower()
	at, clients := drain.Position(), s.clients.Follower()
	if _, err := clients.SyncN(at - clients.Position()); clients.Position() != at {
		return errors.Join(fmt.Errorf("%w: the clients' control replay stopped short of offset %d", ErrConfig, at), err)
	}
	installed := cmp.Or(drain.Applier().Applied(), &engine.QuerySet{})
	if _, err := drain.Sync(); err != nil {
		return err
	}
	if err := laterChange(installed, drain.Applier().Applied()); err != nil {
		return err
	}
	if err := s.registry.Bootstrap(&engine.QuerySet{Version: drain.Applier().Version(), Entries: installed.Entries}); err != nil {
		return err
	}
	return s.control.Seek(proxy.TopicControl, 0, drain.Position())
}

// laterChange refuses a first life that announced more after the cut
// than one registration: the restored aggregator re-reads that life's
// shares under the newest set, so a second registration, a stop, a
// revision or a moved shed would apply to shares that predate it.
func laterChange(cut, newest *engine.QuerySet) error {
	changed := newest.Version > cut.Version+1 || len(newest.Entries) > len(cut.Entries)+1
	for _, e := range cut.Entries {
		i := slices.IndexFunc(newest.Entries, func(n engine.Entry) bool { return n.Signed.Query.QID == e.Signed.Query.QID })
		changed = changed || i < 0 || newest.Entries[i].Rev != e.Rev || newest.Entries[i].Shed != e.Shed
	}
	if changed {
		return fmt.Errorf("%w: after the checkpoint the control topic moved from version %d to %d by more than one registration", ErrConfig, cut.Version, newest.Version)
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
