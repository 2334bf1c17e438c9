package engine

import (
	"cmp"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
)

// Subscriber is the surface the applier reconciles — client.Client
// implements it, and so does the aggregator role's view of its
// aggregator (role.Drain). The applier verifies each entry once and
// hands every subscriber the same query.Verified, and forwards each
// query's overload shed threshold from the snapshot.
type Subscriber interface {
	SubscribeVerified(v query.Verified, params budget.Params) error
	UnsubscribeQuery(id query.ID) bool
	SetShed(id query.ID, shed float64) bool
}

// Applier reconciles a set of subscribers — clients, or an aggregator —
// against query-set snapshots under the in-force rule (package doc),
// which makes every follower converge under reordering and duplication.
// Applying a snapshot diffs it by per-entry revision, so a client's
// per-query coin stream is only redrawn when that query's entry changed.
//
// Trust: every entry's signature is verified against its announced
// analyst key — once per snapshot, not once per client — which detects
// in-flight tampering but does not by itself authenticate the analyst:
// whoever can publish to the control topic can announce a key of their
// own making. Deployments that need the paper's "clients check the
// query really came from the claimed analyst" property pin keys with
// Trust: once any key is pinned, entries from unpinned analysts (or with
// a key that differs from the pin) are rejected wholesale.
//
// All clients managed by one applier converge to identical active sets
// in identical order, because the snapshot itself is ordered.
type Applier struct {
	clients []Subscriber
	trusted map[string]ed25519.PublicKey
	// at is the position the applier has reached in (From, Version)
	// order (only those two fields are set): every snapshot at or before
	// it is in force. It starts at From 0, every version, so a snapshot
	// from epoch 0 applies on arrival.
	at      QuerySet
	pending []pendingSet        // verified, not yet in force, in (From, Version) order
	applied *QuerySet           // the last snapshot applied, nil before the first
	revs    map[string]uint64   // ID.String() → last applied revision
	sheds   map[string]float64  // ID.String() → last applied shed threshold
	active  map[string]query.ID // currently subscribed
}

// pendingSet is a verified snapshot waiting for the start of its epoch.
type pendingSet struct {
	qs       *QuerySet
	verified []query.Verified
}

// NewApplier manages the given clients (typically every logical client
// hosted by one process).
func NewApplier(clients ...Subscriber) *Applier {
	return &Applier{
		clients: clients,
		trusted: make(map[string]ed25519.PublicKey),
		at:      QuerySet{Version: math.MaxUint64},
		revs:    make(map[string]uint64),
		sheds:   make(map[string]float64),
		active:  make(map[string]query.ID),
	}
}

// trust pins an analyst's public key. With at least one pin installed,
// snapshots carrying entries from unpinned analysts — or entries whose
// announced key differs from the pin — are rejected entirely.
func (ap *Applier) trust(analyst string, pub ed25519.PublicKey) {
	ap.trusted[analyst] = pub
}

// ActiveQueries returns how many queries are currently subscribed.
func (ap *Applier) ActiveQueries() int { return len(ap.active) }

// Applied returns the last snapshot applied — during a subscriber call,
// the one being applied — nil before the first. Its entries are
// verified; the caller must not modify it.
func (ap *Applier) Applied() *QuerySet { return ap.applied }

// order compares two snapshots by (From, Version).
func order(a, b *QuerySet) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Version, b.Version))
}

// apply verifies one snapshot and puts it in force by the in-force rule:
// at once if the applier has reached its position, else at the Advance
// that does. A snapshot not greater than the last one applied, or
// already pending, is ignored without error; a refused one changes
// nothing. An accepted snapshot is kept (see Applied), so the
// caller must not modify it afterwards.
func (ap *Applier) apply(qs *QuerySet) error {
	at, dup := slices.BinarySearchFunc(ap.pending, qs, func(p pendingSet, qs *QuerySet) int { return order(p.qs, qs) })
	if dup || ap.applied != nil && order(qs, ap.applied) <= 0 {
		return nil
	}
	// Verify and validate every entry before touching any client: a
	// snapshot either applies wholly or not at all (Verify parses the SQL
	// too, so a mid-apply subscription failure cannot leave the clients
	// half-reconciled).
	verified := make([]query.Verified, len(qs.Entries))
	for i := range qs.Entries {
		e := &qs.Entries[i]
		if e.Signed == nil || e.Signed.Query == nil {
			return fmt.Errorf("%w: snapshot entry %d without query", errControlWire, i)
		}
		id := e.Signed.Query.QID
		key := e.AnalystKey
		if len(ap.trusted) > 0 {
			pin, ok := ap.trusted[id.Analyst]
			if !ok {
				return fmt.Errorf("engine: analyst %q not pinned", id.Analyst)
			}
			if !pin.Equal(key) {
				return fmt.Errorf("engine: announced key for %q differs from pinned key", id.Analyst)
			}
		}
		v, err := query.Verify(e.Signed, key)
		if err != nil {
			return fmt.Errorf("query %s: %w", id, err)
		}
		q := v.Query()
		if err := q.Validate(); err != nil {
			return err
		}
		if err := e.Params.Validate(); err != nil {
			return err
		}
		verified[i] = v
	}
	ap.pending = slices.Insert(ap.pending, at, pendingSet{qs, verified})
	return ap.Advance(ap.at.From, ap.at.Version)
}

// Advance moves the applier to position (e, v) of the (From, Version)
// order — the start of epoch e, up to version v; it never moves back —
// and applies, in order, every pending snapshot at or before it,
// returning the first subscription failure. A follower that answers
// epoch e advances to (e, math.MaxUint64); a wiring whose registry
// re-announces what a restored topic already holds bounds v by the
// version it has announced, so each snapshot applies at the change that
// made it.
func (ap *Applier) Advance(e, v uint64) error {
	if to := (QuerySet{From: e, Version: v}); order(&to, &ap.at) > 0 {
		ap.at = to
	}
	n := 0
	var first error
	for ; n < len(ap.pending) && order(ap.pending[n].qs, &ap.at) <= 0; n++ {
		if err := ap.reconcile(ap.pending[n]); first == nil {
			first = err
		}
	}
	ap.pending = slices.Delete(ap.pending, 0, n)
	return first
}

// reconcile brings the clients from the last applied snapshot to p.
func (ap *Applier) reconcile(p pendingSet) error {
	qs := p.qs
	ap.applied = qs
	next := make(map[string]query.ID, len(qs.Entries))
	for i := range qs.Entries {
		e := &qs.Entries[i]
		id := p.verified[i].Query().QID
		key := id.String()
		next[key] = id
		shed := e.Shed
		if !(shed > 0) || shed > 1 {
			shed = 1
		}
		rev, seen := ap.revs[key]
		_, isActive := ap.active[key]
		if isActive && seen && rev == e.Rev {
			// Unchanged entry: leave the subscription (and its coin
			// stream) untouched, but forward a moved shed threshold —
			// shed changes deliberately do not bump Rev.
			if ap.sheds[key] != shed {
				ap.setShed(id, shed)
				ap.sheds[key] = shed
			}
			continue
		}
		for _, c := range ap.clients {
			if err := c.SubscribeVerified(p.verified[i], e.Params); err != nil {
				return fmt.Errorf("subscribe %s: %w", id, err)
			}
		}
		// Re-assert the snapshot's threshold after (re-)subscribing:
		// clients carry the old threshold across a re-subscription, and
		// a fresh subscription starts unshed — either way the snapshot
		// is authoritative.
		ap.setShed(id, shed)
		ap.revs[key] = e.Rev
		ap.sheds[key] = shed
		ap.active[key] = id
	}
	for key, id := range ap.active {
		if _, ok := next[key]; ok {
			continue
		}
		for _, c := range ap.clients {
			c.UnsubscribeQuery(id)
		}
		delete(ap.active, key)
		delete(ap.revs, key)
		delete(ap.sheds, key)
	}
	return nil
}

// setShed forwards one query's shed threshold to every client.
func (ap *Applier) setShed(id query.ID, shed float64) {
	for _, c := range ap.clients {
		c.SetShed(id, shed)
	}
}

// Follower drives an Applier from a pub/sub control-topic consumer. It
// is the one reader of a control topic: the client role runs one over
// its clients and the aggregator role one over its aggregator, so every
// deployment picks up queries dynamically, and the submit role runs one
// without subscribers to read the newest verified snapshot
// (Applier.Applied).
type Follower struct {
	consumer *pubsub.Consumer
	applier  *Applier
}

// NewFollower builds a follower over one control-topic consumer.
func NewFollower(consumer *pubsub.Consumer, applier *Applier) *Follower {
	return &Follower{consumer: consumer, applier: applier}
}

// Applier returns the underlying applier.
func (f *Follower) Applier() *Applier { return f.applier }

// Sync drains every control record currently available into the
// applier (Apply, by the in-force rule), returning how many records
// were observed. Records that are not decodable control payloads are
// skipped — garbage on the topic must not wedge the client. A genuine
// apply failure (bad signature, unpinned analyst, invalid query) does
// not stop the drain: the consumer has already moved past every polled
// record, so the records behind a refused snapshot are applied too, and
// the first failure is returned at the end.
func (f *Follower) Sync() (int, error) { return f.SyncN(math.MaxInt64) }

// Position returns the offset of the next control record to read.
func (f *Follower) Position() int64 {
	for _, parts := range f.consumer.Positions() {
		return parts[0]
	}
	return 0
}

// SyncN is Sync bounded to the next n control records: a restore
// replays a checkpoint's control cut with it.
func (f *Follower) SyncN(n int64) (seen int, first error) {
	for int64(seen) < n {
		runs, err := f.consumer.PollRuns(int(min(256, n-int64(seen))), 0)
		if err != nil || len(runs) == 0 {
			return seen, cmp.Or(err, first)
		}
		for _, r := range runs {
			for i := range r.Count {
				seen++
				// The payload is the consumer's memory, reused by the next
				// poll: DecodeQuerySet copies every field it keeps.
				qs, err := DecodeQuerySet(r.Val(i))
				if err == nil {
					err = f.applier.apply(qs)
				}
				if err != nil && first == nil && !errors.Is(err, errControlWire) {
					first = err
				}
			}
		}
	}
	return seen, first
}

// WaitActive blocks (polling the control topic) until at least min
// queries are active or the timeout passes.
func (f *Follower) WaitActive(min int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := f.Sync(); err != nil {
			return err
		}
		if f.applier.ActiveQueries() >= min {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("engine: %d of %d queries active after %v",
				f.applier.ActiveQueries(), min, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
