package engine

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"

	"privapprox/internal/budget"
	"privapprox/internal/query"
)

// Errors reported by the registry.
var (
	// ErrUnknownAnalyst reports a submission from an analyst with no
	// trusted public key.
	ErrUnknownAnalyst = errors.New("engine: unknown analyst")
	// ErrWireCollision reports two distinct query IDs hashing to the
	// same 64-bit wire identifier — answer messages carry only the
	// hash, so colliding queries would be indistinguishable at the
	// aggregator.
	ErrWireCollision = errors.New("engine: wire query-ID collision")
	// ErrUnknownQuery reports a stop for a query that is not active.
	ErrUnknownQuery = errors.New("engine: unknown query")
)

// wireIDOf derives the compact wire identifier the registry guards
// against collisions. A package variable so the collision error path is
// unit-testable: a genuine FNV-64 collision cannot be constructed in a
// test's lifetime, but the guard must still be exercised.
var wireIDOf = func(id query.ID) uint64 { return id.Uint64() }

// ControlSink receives serialized query-set announcements —
// proxy.Fleet implements it over every proxy's control topic; tests use
// recording sinks.
type ControlSink interface {
	Announce(payload []byte) error
}

// Registry is the aggregator-side query control plane (paper §3.1): it
// accepts signed query submissions from analysts, verifies each
// signature against the analyst's trusted public key, guards the
// compact wire-ID space against collisions, and distributes versioned
// query-set snapshots to clients through its control sink.
//
// It is safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	trusted map[string]ed25519.PublicKey
	entries []Entry        // active queries, registration order
	index   map[string]int // ID.String() → position in entries
	byWire  map[uint64]query.ID
	version uint64
	from    uint64 // the epoch the next snapshot is in force from (SetEpoch)
	sink    ControlSink
	// sinkVer is the newest snapshot version the sink acknowledged (its
	// Announce returned nil); 0 means it never took one. The gap between
	// version and sinkVer is the control plane's distribution lag.
	sinkVer uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		trusted: make(map[string]ed25519.PublicKey),
		index:   make(map[string]int),
		byWire:  make(map[uint64]query.ID),
	}
}

// Trust installs (or rotates) an analyst's public key. Only trusted
// analysts can register queries.
func (r *Registry) Trust(analyst string, pub ed25519.PublicKey) error {
	if analyst == "" || len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: analyst %q with %d-byte key", query.ErrInvalidQuery, analyst, len(pub))
	}
	r.mu.Lock()
	r.trusted[analyst] = pub
	r.mu.Unlock()
	return nil
}

// Register validates and admits one signed query with its derived
// system parameters, then broadcasts the updated snapshot.
// Re-registering an active query updates its parameters and bumps the
// entry's revision (the feedback redistribution path); registering a
// distinct query whose wire ID collides with an active one is rejected
// with ErrWireCollision.
func (r *Registry) Register(signed *query.Signed, params budget.Params) error {
	if signed == nil || signed.Query == nil {
		return fmt.Errorf("%w: nil query", query.ErrInvalidQuery)
	}
	q := signed.Query
	if err := q.Validate(); err != nil {
		return err
	}
	if err := params.Validate(); err != nil {
		return err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	pub, ok := r.trusted[q.QID.Analyst]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAnalyst, q.QID.Analyst)
	}
	if err := signed.Verify(pub); err != nil {
		return err
	}
	wire := wireIDOf(q.QID)
	if prev, ok := r.byWire[wire]; ok && prev != q.QID {
		return fmt.Errorf("%w: %s and %s both map to %#x", ErrWireCollision, prev, q.QID, wire)
	}
	entry := Entry{Signed: signed, AnalystKey: pub, Params: params, Shed: 1}
	if i, ok := r.index[q.QID.String()]; ok {
		entry.Rev = r.entries[i].Rev + 1
		// Re-registration retunes parameters; the overload shed threshold
		// is orthogonal standing state and carries over.
		entry.Shed = r.entries[i].Shed
		r.entries[i] = entry
	} else {
		r.index[q.QID.String()] = len(r.entries)
		r.entries = append(r.entries, entry)
		r.byWire[wire] = q.QID
	}
	return r.broadcastLocked()
}

// SetShed sets a query's overload shed threshold ∈ (0, 1] and
// broadcasts the updated snapshot. Unlike Register it does NOT bump the
// entry's Rev: appliers forward the new threshold to clients without
// re-subscribing, so actuating the SLO controller never redraws coin
// streams. Values outside (0, 1] normalize to 1 (no shedding).
func (r *Registry) SetShed(id query.ID, shed float64) error {
	if !(shed > 0) || shed > 1 {
		shed = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[id.String()]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownQuery, id)
	}
	if r.entries[i].Shed == shed {
		return nil
	}
	r.entries[i].Shed = shed
	return r.broadcastLocked()
}

// Stop deactivates a query and broadcasts the shrunken snapshot.
func (r *Registry) Stop(id query.ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[id.String()]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownQuery, id)
	}
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	delete(r.index, id.String())
	delete(r.byWire, wireIDOf(id))
	for j := i; j < len(r.entries); j++ {
		r.index[r.entries[j].Signed.Query.QID.String()] = j
	}
	return r.broadcastLocked()
}

// Bootstrap adopts a replayed snapshot — the restart path for a control
// plane whose proxies journal their control topics: a restarted
// submitter reads the newest announced QuerySet back from a proxy and
// bootstraps its registry from it, so the version counter resumes
// *past* the replayed announcements instead of restarting at 1 (which
// appliers would ignore as duplicates forever); a restored core.System
// bootstraps from its checkpoint's cut instead, so each change it
// re-drives repeats one the topic holds. Each entry's
// signature is verified against the analyst key it carries, that key is
// installed in the trust store, and wire-ID collisions are rejected.
// Bootstrap only moves forward: a snapshot older than the registry's
// current version is rejected. An attached sink is not re-announced —
// the replayed topic already carries the snapshot.
func (r *Registry) Bootstrap(qs *QuerySet) error {
	if qs == nil {
		return fmt.Errorf("%w: nil snapshot", query.ErrInvalidQuery)
	}
	entries := make([]Entry, 0, len(qs.Entries))
	index := make(map[string]int, len(qs.Entries))
	byWire := make(map[uint64]query.ID, len(qs.Entries))
	trusted := make(map[string]ed25519.PublicKey)
	for _, e := range qs.Entries {
		if e.Signed == nil || e.Signed.Query == nil {
			return fmt.Errorf("%w: snapshot entry without query", query.ErrInvalidQuery)
		}
		q := e.Signed.Query
		if err := q.Validate(); err != nil {
			return err
		}
		if err := e.Params.Validate(); err != nil {
			return err
		}
		if len(e.AnalystKey) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: %q", ErrUnknownAnalyst, q.QID.Analyst)
		}
		if err := e.Signed.Verify(e.AnalystKey); err != nil {
			return err
		}
		wire := wireIDOf(q.QID)
		if prev, ok := byWire[wire]; ok && prev != q.QID {
			return fmt.Errorf("%w: %s and %s both map to %#x", ErrWireCollision, prev, q.QID, wire)
		}
		if _, ok := index[q.QID.String()]; ok {
			return fmt.Errorf("%w: duplicate entry %s", query.ErrInvalidQuery, q.QID)
		}
		if !(e.Shed > 0) || e.Shed > 1 {
			e.Shed = 1
		}
		index[q.QID.String()] = len(entries)
		byWire[wire] = q.QID
		entries = append(entries, e)
		trusted[q.QID.Analyst] = e.AnalystKey
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if qs.Version < r.version {
		return fmt.Errorf("%w: bootstrap snapshot version %d behind registry version %d",
			query.ErrInvalidQuery, qs.Version, r.version)
	}
	for analyst, pub := range trusted {
		r.trusted[analyst] = pub
	}
	r.entries = entries
	r.index = index
	r.byWire = byWire
	r.version = qs.Version
	return nil
}

// SetEpoch stamps every later snapshot with From e, the next epoch the
// wiring answers. Unset, snapshots apply on arrival (From 0).
func (r *Registry) SetEpoch(e uint64) {
	r.mu.Lock()
	r.from = e
	r.mu.Unlock()
}

// AttachSink sets the control sink — replacing any earlier one — and
// immediately sends it the current snapshot, so a late-joining
// distribution channel catches up.
func (r *Registry) AttachSink(s ControlSink) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink, r.sinkVer = s, 0
	return r.announceLocked()
}

// Version returns the current snapshot version.
func (r *Registry) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// Entry returns the active entry for a query ID, reporting whether it
// exists.
func (r *Registry) Entry(id query.ID) (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[id.String()]
	if !ok {
		return Entry{}, false
	}
	return r.entries[i], true
}

// Active returns the active query IDs in registration order.
func (r *Registry) Active() []query.ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]query.ID, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Signed.Query.QID
	}
	return out
}

func (r *Registry) snapshotLocked() QuerySet {
	qs := QuerySet{Version: r.version, From: r.from}
	qs.Entries = append(qs.Entries, r.entries...)
	return qs
}

// broadcastLocked bumps the version and announces the new snapshot to
// the sink. Caller holds r.mu. A sink failure is returned but does not
// roll the registration back — the next successful broadcast carries
// the full state anyway (snapshots, not deltas).
func (r *Registry) broadcastLocked() error {
	r.version++
	return r.announceLocked()
}

// announceLocked sends the current snapshot to the sink, if one is
// attached, and records its acknowledgement. Caller holds r.mu.
func (r *Registry) announceLocked() error {
	if r.sink == nil {
		return nil
	}
	snap := r.snapshotLocked()
	payload, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	if err := r.sink.Announce(payload); err != nil {
		return err
	}
	r.sinkVer = r.version
	return nil
}

// SinkVersion returns the newest snapshot version the control sink
// acknowledged (0 = never).
func (r *Registry) SinkVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkVer
}
