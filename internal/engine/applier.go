package engine

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
)

// Subscriber is the client-side surface the applier reconciles —
// client.Client implements it. The applier verifies each entry once and
// hands every subscriber the same query.Verified.
type Subscriber interface {
	SubscribeVerified(v query.Verified, params budget.Params) error
	UnsubscribeQuery(id query.ID) bool
}

// ShedSetter is the optional overload-control surface: subscribers that
// also implement it (client.Client does) receive per-query shed
// thresholds from snapshots. A Subscriber without it simply never
// sheds — the control plane degrades gracefully for minimal clients.
type ShedSetter interface {
	SetShed(id query.ID, shed float64) bool
}

// Applier reconciles a set of clients against query-set snapshots. It
// is the client-process half of query distribution: feed it every
// control payload observed (in any order, with duplicates and gaps) and
// it applies exactly the newest snapshot, diffing by per-entry revision
// so a client's per-query coin stream is only redrawn when that query's
// entry actually changed.
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
	version uint64
	applied bool
	revs    map[string]uint64   // ID.String() → last applied revision
	sheds   map[string]float64  // ID.String() → last applied shed threshold
	active  map[string]query.ID // currently subscribed
}

// NewApplier manages the given clients (typically every logical client
// hosted by one process).
func NewApplier(clients ...Subscriber) *Applier {
	return &Applier{
		clients: clients,
		trusted: make(map[string]ed25519.PublicKey),
		revs:    make(map[string]uint64),
		sheds:   make(map[string]float64),
		active:  make(map[string]query.ID),
	}
}

// Trust pins an analyst's public key. With at least one pin installed,
// snapshots carrying entries from unpinned analysts — or entries whose
// announced key differs from the pin — are rejected entirely.
func (ap *Applier) Trust(analyst string, pub ed25519.PublicKey) {
	ap.trusted[analyst] = pub
}

// Version returns the version of the newest applied snapshot.
func (ap *Applier) Version() uint64 { return ap.version }

// ActiveQueries returns how many queries are currently subscribed.
func (ap *Applier) ActiveQueries() int { return len(ap.active) }

// ApplyPayload decodes one control payload and applies it if it is
// newer than anything seen so far. Undecodable payloads are reported;
// stale or duplicate snapshots are ignored without error.
func (ap *Applier) ApplyPayload(payload []byte) error {
	qs, err := DecodeQuerySet(payload)
	if err != nil {
		return err
	}
	return ap.Apply(qs)
}

// Apply reconciles the clients against one snapshot. Snapshots older
// than (or equal to) the newest applied one are ignored — that single
// rule makes the applier converge under arbitrary loss, reordering,
// and duplication, as long as the newest snapshot is eventually
// observed.
func (ap *Applier) Apply(qs *QuerySet) error {
	if ap.applied && qs.Version <= ap.version {
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
			return fmt.Errorf("%w: snapshot entry %d without query", ErrControlWire, i)
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

	next := make(map[string]query.ID, len(qs.Entries))
	for i := range qs.Entries {
		e := &qs.Entries[i]
		id := verified[i].Query().QID
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
			if err := c.SubscribeVerified(verified[i], e.Params); err != nil {
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
	ap.version = qs.Version
	ap.applied = true
	return nil
}

// setShed forwards one query's shed threshold to every client that
// opts into overload control.
func (ap *Applier) setShed(id query.ID, shed float64) {
	for _, c := range ap.clients {
		if ss, ok := c.(ShedSetter); ok {
			ss.SetShed(id, shed)
		}
	}
}

// Follower drives an Applier from a pub/sub control-topic consumer —
// the piece a client process runs so networked deployments pick up
// queries dynamically.
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

// Sync drains every control record currently available and applies
// them, returning how many records were observed. Records that are not
// decodable control payloads are skipped — garbage on the topic must
// not wedge the client — but a genuine apply failure (bad signature,
// unpinned analyst, invalid query) is returned. The consumer's
// position has already advanced past the poison record, so the next
// Sync makes progress.
func (f *Follower) Sync() (int, error) {
	seen := 0
	for {
		recs, err := f.consumer.Poll(256)
		if err != nil {
			return seen, err
		}
		if len(recs) == 0 {
			return seen, nil
		}
		for _, rec := range recs {
			seen++
			if err := f.applier.ApplyPayload(rec.Value); err != nil {
				if errors.Is(err, ErrControlWire) {
					continue
				}
				return seen, err
			}
		}
	}
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
