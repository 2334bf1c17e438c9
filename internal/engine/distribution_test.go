package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/minisql"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/xorcrypt"
)

// countingSink counts shares per wire QueryID... it just counts
// submissions; clients split answers into opaque shares, so the test
// counts totals.
type countingSink struct{ n int }

func (s *countingSink) Submit(xorcrypt.Share) error {
	s.n++
	return nil
}

func newTestClient(t *testing.T, i int) *client.Client {
	t.Helper()
	db := minisql.NewDB()
	if err := db.CreateTable("rides", []string{"dist"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("rides", []minisql.Value{minisql.Number(2.5)}); err != nil {
		t.Fatal(err)
	}
	c, err := client.New(client.Config{
		ID:    fmt.Sprintf("client-%03d", i),
		DB:    db,
		Sinks: []client.ShareSink{&countingSink{}, &countingSink{}},
		Seed:  int64(i) + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryDistributionConvergesUnderLossAndReorder drives the control
// plane through an adversarial delivery model: a sequence of query-set
// announcements (registrations, a parameter update, a stop) is
// delivered to every client through an independent lossy, reordering,
// duplicating link. Every client must converge to exactly the
// registry's final active set — in the same order — before answering.
func TestQueryDistributionConvergesUnderLossAndReorder(t *testing.T) {
	pub, priv := testKey(5)
	r := NewRegistry()
	if err := r.Trust("alice", pub); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	if err := r.AttachSink(sink); err != nil {
		t.Fatal(err)
	}

	// A churny control history: register 4, retune one, stop one.
	var ids []query.ID
	for serial := uint64(1); serial <= 4; serial++ {
		s := testSigned(t, "alice", serial, priv)
		if err := r.Register(s, testParams()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.Query.QID)
	}
	retuned := testParams()
	retuned.S = 0.33
	if err := r.Register(testSigned(t, "alice", 2, priv), retuned); err != nil {
		t.Fatal(err)
	}
	if err := r.Stop(ids[0]); err != nil {
		t.Fatal(err)
	}
	wantActive := r.Active()
	if len(wantActive) != 3 {
		t.Fatalf("registry active = %v", wantActive)
	}

	const clients = 8
	var wantQueries []query.ID
	for i := 0; i < clients; i++ {
		c := newTestClient(t, i)
		ap := NewApplier(c)
		link := lossyLink{Drop: 0.4, Dup: 0.3, ReorderWindow: 3, Seed: int64(i) + 100}
		delivered, err := link.Deliver(sink.payloads)
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range delivered {
			if err := applyPayload(ap, payload); err != nil {
				t.Fatalf("client %d: apply: %v", i, err)
			}
		}
		var got []query.ID
		for _, q := range c.ActiveQueries() {
			got = append(got, q.QID)
		}
		if !reflect.DeepEqual(got, wantActive) {
			t.Fatalf("client %d converged to %v, want %v (delivered %d of %d announcements)",
				i, got, wantActive, len(delivered), len(sink.payloads))
		}
		if wantQueries == nil {
			wantQueries = got
		} else if !reflect.DeepEqual(got, wantQueries) {
			t.Fatalf("client %d active set diverges from client 0: %v vs %v", i, got, wantQueries)
		}
		if appliedVersion(ap) != r.Version() {
			t.Fatalf("client %d at version %d, registry at %d", i, appliedVersion(ap), r.Version())
		}
		// Converged clients answer every active query.
		if _, err := c.AnswerOnce(0); err != nil {
			t.Fatalf("client %d: answer after convergence: %v", i, err)
		}
	}
}

// TestApplierTrustPinning pins the client-side trust anchor: once an
// analyst key is pinned, snapshots carrying entries signed under a
// different (self-announced) key — the forged-query vector a malicious
// control-topic publisher has — are rejected wholesale.
func TestApplierTrustPinning(t *testing.T) {
	pub, priv := testKey(7)
	evilPub, evilPriv := testKey(8)

	genuine := testSigned(t, "alice", 1, priv)
	forged := testSigned(t, "alice", 2, evilPriv)

	c := newTestClient(t, 0)
	ap := NewApplier(c)
	ap.trust("alice", pub)

	ok := &QuerySet{Version: 1, Entries: []Entry{
		{Signed: genuine, AnalystKey: pub, Params: testParams()},
	}}
	if err := ap.apply(ok); err != nil {
		t.Fatalf("pinned genuine snapshot rejected: %v", err)
	}
	// Forged entry announces the attacker's own key; signature verifies
	// against it, but the pin does not match.
	bad := &QuerySet{Version: 2, Entries: []Entry{
		{Signed: genuine, AnalystKey: pub, Params: testParams()},
		{Signed: forged, AnalystKey: evilPub, Params: testParams()},
	}}
	if err := ap.apply(bad); err == nil {
		t.Fatal("forged-key snapshot accepted under pinning")
	}
	// The rejection is wholesale: the client still runs only the
	// genuine query at the old version.
	if got := c.Subscriptions(); got != 1 {
		t.Fatalf("subscriptions after rejected snapshot = %d, want 1", got)
	}
	if appliedVersion(ap) != 1 {
		t.Fatalf("version moved to %d on a rejected snapshot", appliedVersion(ap))
	}
	// An unpinned analyst is rejected too.
	unknown := &QuerySet{Version: 3, Entries: []Entry{
		{Signed: testSigned(t, "mallory", 1, evilPriv), AnalystKey: evilPub, Params: testParams()},
	}}
	if err := ap.apply(unknown); err == nil {
		t.Fatal("unpinned analyst accepted")
	}
}

// verifiedMock records the query every SubscribeVerified handed it.
type verifiedMock struct{ got []*query.Query }

func (m *verifiedMock) SubscribeVerified(v query.Verified, _ budget.Params) error {
	m.got = append(m.got, v.Query())
	return nil
}
func (m *verifiedMock) UnsubscribeQuery(query.ID) bool { return true }
func (m *verifiedMock) SetShed(query.ID, float64) bool { return true }

// TestApplierVerifiesOnce: a snapshot with one forged entry — its SQL
// rewritten after signing — fails as a whole before any client
// subscribes; a genuine snapshot is verified once per entry, and every
// client receives that one verified copy.
func TestApplierVerifiesOnce(t *testing.T) {
	pub, priv := testKey(9)
	genuine := testSigned(t, "alice", 1, priv)
	forged := testSigned(t, "alice", 2, priv)
	forged.Query.SQL = "SELECT dist FROM rides WHERE dist > 9"

	c := newTestClient(t, 0)
	mocks := []*verifiedMock{{}, {}, {}}
	ap := NewApplier(c, mocks[0], mocks[1], mocks[2])
	bad := &QuerySet{Version: 1, Entries: []Entry{
		{Signed: genuine, AnalystKey: pub, Params: testParams()},
		{Signed: forged, AnalystKey: pub, Params: testParams()},
	}}
	if err := ap.apply(bad); !errors.Is(err, query.ErrBadSignature) {
		t.Fatalf("forged snapshot: %v, want ErrBadSignature", err)
	}
	if c.Subscriptions() != 0 || len(mocks[0].got) != 0 || ap.ActiveQueries() != 0 || appliedVersion(ap) != 0 {
		t.Fatalf("forged snapshot half-applied: client has %d subscriptions, mock %d, applier %d active at version %d",
			c.Subscriptions(), len(mocks[0].got), ap.ActiveQueries(), appliedVersion(ap))
	}

	good := &QuerySet{Version: 2, Entries: []Entry{
		{Signed: genuine, AnalystKey: pub, Params: testParams()},
		{Signed: testSigned(t, "alice", 2, priv), AnalystKey: pub, Params: testParams()},
	}}
	if err := ap.apply(good); err != nil {
		t.Fatal(err)
	}
	for i, m := range mocks {
		if len(m.got) != 2 {
			t.Fatalf("mock %d got %d subscriptions, want 2", i, len(m.got))
		}
		for j, q := range m.got {
			if q != mocks[0].got[j] {
				t.Fatalf("mock %d entry %d got its own copy: verified more than once", i, j)
			}
			if q == good.Entries[j].Signed.Query {
				t.Fatalf("entry %d handed out the snapshot's own *Query", j)
			}
		}
	}
	if c.Subscriptions() != 2 {
		t.Fatalf("client subscriptions = %d, want 2", c.Subscriptions())
	}
}

// TestApplierIgnoresStaleAndDuplicateSnapshots pins the version rule
// that makes convergence work, and the revision rule that keeps
// unchanged subscriptions untouched across snapshot churn.
func TestApplierIgnoresStaleAndDuplicateSnapshots(t *testing.T) {
	pub, priv := testKey(6)
	r := NewRegistry()
	if err := r.Trust("alice", pub); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	if err := r.AttachSink(sink); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testSigned(t, "alice", 1, priv), testParams()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testSigned(t, "alice", 2, priv), testParams()); err != nil {
		t.Fatal(err)
	}

	c := newTestClient(t, 0)
	ap := NewApplier(c)
	latest := sink.payloads[len(sink.payloads)-1]
	if err := applyPayload(ap, latest); err != nil {
		t.Fatal(err)
	}
	if got := c.Subscriptions(); got != 2 {
		t.Fatalf("subscriptions = %d, want 2", got)
	}
	// Replaying the whole history afterwards — stale versions — must
	// not churn the subscriptions (a resubscribe would redraw the coin
	// stream; the revision guard makes it observable via generations,
	// so assert versions simply stay put).
	v := appliedVersion(ap)
	for _, payload := range sink.payloads {
		if err := applyPayload(ap, payload); err != nil {
			t.Fatal(err)
		}
	}
	if appliedVersion(ap) != v {
		t.Fatalf("stale replay moved version %d → %d", v, appliedVersion(ap))
	}
	if got := c.Subscriptions(); got != 2 {
		t.Fatalf("subscriptions after replay = %d, want 2", got)
	}
}

// shedMock records applier traffic: subscription counts per query and
// the last shed threshold forwarded through SetShed.
type shedMock struct {
	subs  map[string]int
	sheds map[string]float64
}

func newShedMock() *shedMock {
	return &shedMock{subs: make(map[string]int), sheds: make(map[string]float64)}
}

func (m *shedMock) SubscribeVerified(v query.Verified, _ budget.Params) error {
	m.subs[v.Query().QID.String()]++
	return nil
}

func (m *shedMock) UnsubscribeQuery(id query.ID) bool {
	delete(m.subs, id.String())
	return true
}

func (m *shedMock) SetShed(id query.ID, shed float64) bool {
	m.sheds[id.String()] = shed
	return true
}

// TestShedDistribution checks the overload-control side channel of the
// control plane: Registry.SetShed broadcasts a new snapshot whose entry
// carries the threshold but an unchanged Rev, and the applier forwards
// it through SetShed without re-subscribing — so actuating the SLO
// controller never redraws client coin streams.
func TestShedDistribution(t *testing.T) {
	pub, priv := testKey(11)
	r := NewRegistry()
	if err := r.Trust("alice", pub); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	if err := r.AttachSink(sink); err != nil {
		t.Fatal(err)
	}
	signed := testSigned(t, "alice", 1, priv)
	id := signed.Query.QID
	if err := r.Register(signed, testParams()); err != nil {
		t.Fatal(err)
	}
	rev0 := func() uint64 {
		e, ok := r.Entry(id)
		if !ok {
			t.Fatal("entry missing")
		}
		return e.Rev
	}()

	if err := r.SetShed(id, 0.4); err != nil {
		t.Fatal(err)
	}
	e, _ := r.Entry(id)
	if e.Rev != rev0 {
		t.Fatalf("SetShed bumped Rev %d → %d", rev0, e.Rev)
	}
	if e.Shed != 0.4 {
		t.Fatalf("entry shed = %v, want 0.4", e.Shed)
	}
	if err := r.SetShed(query.ID{Analyst: "ghost", Serial: 9}, 0.5); err == nil {
		t.Fatal("SetShed on unknown query succeeded")
	}

	mock := newShedMock()
	ap := NewApplier(mock)
	for _, payload := range sink.payloads {
		if err := applyPayload(ap, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := mock.subs[id.String()]; got != 1 {
		t.Fatalf("SubscribeVerified called %d times, want 1 (shed change must not re-subscribe)", got)
	}
	if got := mock.sheds[id.String()]; got != 0.4 {
		t.Fatalf("forwarded shed = %v, want 0.4", got)
	}

	// Recovery: shed back to 1 flows through the same path.
	if err := r.SetShed(id, 1); err != nil {
		t.Fatal(err)
	}
	for _, payload := range sink.payloads[len(sink.payloads)-1:] {
		if err := applyPayload(ap, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := mock.sheds[id.String()]; got != 1 {
		t.Fatalf("recovered shed = %v, want 1", got)
	}
	if got := mock.subs[id.String()]; got != 1 {
		t.Fatalf("recovery re-subscribed (%d calls)", got)
	}

	// A feedback re-registration (Rev bump) re-subscribes AND re-asserts
	// the standing threshold.
	if err := r.SetShed(id, 0.25); err != nil {
		t.Fatal(err)
	}
	retuned := testParams()
	retuned.S = 0.5
	if err := r.Register(testSigned(t, "alice", 1, priv), retuned); err != nil {
		t.Fatal(err)
	}
	for _, payload := range sink.payloads {
		if err := applyPayload(ap, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := mock.subs[id.String()]; got != 2 {
		t.Fatalf("rev bump: SubscribeVerified called %d times, want 2", got)
	}
	if got := mock.sheds[id.String()]; got != 0.25 {
		t.Fatalf("shed after re-registration = %v, want 0.25", got)
	}
}

// TestFollowerSyncAppliesPastARejectedSnapshot: a record Sync cannot use
// — an undecodable one, or a snapshot the applier refuses (an unpinned
// analyst's) — must not cost the records polled around it. With both at
// the head, the middle or the tail of one poll, every valid snapshot is
// queued: the two in force from epoch 0 apply at once, the one whose
// From is still ahead at the Advance that reaches it, and the refusal is
// returned after the whole poll.
func TestFollowerSyncAppliesPastARejectedSnapshot(t *testing.T) {
	pub, priv := testKey(12)
	evilPub, evilPriv := testKey(13)
	entry := func(serial uint64) Entry {
		return Entry{Signed: testSigned(t, "alice", serial, priv), AnalystKey: pub, Params: testParams()}
	}
	encode := func(qs *QuerySet) []byte {
		payload, err := qs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	good := [][]byte{
		encode(&QuerySet{Version: 1, Entries: []Entry{entry(1)}}),
		encode(&QuerySet{Version: 2, Entries: []Entry{entry(1), entry(2)}}),
		encode(&QuerySet{Version: 3, From: 3, Entries: []Entry{entry(2)}}),
	}
	bad := [][]byte{
		{0x51, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0},
		encode(&QuerySet{Version: 9, Entries: []Entry{{Signed: testSigned(t, "mallory", 1, evilPriv), AnalystKey: evilPub, Params: testParams()}}}),
	}
	for _, tc := range []struct {
		name string
		at   int // the position of the bad records among the good
	}{{"head", 0}, {"middle", 2}, {"tail", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			b := pubsub.NewBroker()
			defer b.Close()
			if err := b.CreateTopic("control", 1); err != nil {
				t.Fatal(err)
			}
			records := append(append(append([][]byte{}, good[:tc.at]...), bad...), good[tc.at:]...)
			for _, payload := range records {
				if err := b.PublishColumns("control", pubsub.Columns{Count: 1, ValLen: len(payload), Vals: payload}, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			cc, err := pubsub.NewConsumer(b, "clients", "control")
			if err != nil {
				t.Fatal(err)
			}
			c := newTestClient(t, 0)
			ap := NewApplier(c)
			ap.trust("alice", pub)
			f := NewFollower(cc, ap)
			if seen, err := f.Sync(); err == nil || !strings.Contains(err.Error(), "not pinned") || seen != len(records) {
				t.Fatalf("Sync = (%d, %v), want all %d records seen and the refusal reported", seen, err, len(records))
			}
			if seen, err := f.Sync(); seen != 0 || err != nil {
				t.Fatalf("second Sync = (%d, %v)", seen, err)
			}
			for _, step := range []struct {
				epoch         uint64
				version, subs int
			}{{0, 2, 2}, {2, 2, 2}, {3, 3, 1}} {
				if err := ap.Advance(step.epoch, math.MaxUint64); err != nil {
					t.Fatal(err)
				}
				if int(appliedVersion(ap)) != step.version || c.Subscriptions() != step.subs {
					t.Fatalf("at epoch %d: version %d with %d subscriptions, want version %d with %d",
						step.epoch, appliedVersion(ap), c.Subscriptions(), step.version, step.subs)
				}
			}
			if qs := ap.Applied(); qs == nil || qs.Version != 3 {
				t.Fatalf("Applied() = %+v, want the version-3 snapshot", qs)
			}
		})
	}
}

// TestFollowerSyncNStopsAtItsBound: SyncN reads no record past its
// bound, across poll sizes, a bound of zero reads nothing, and a later
// Sync carries on from where it stopped.
func TestFollowerSyncNStopsAtItsBound(t *testing.T) {
	pub, priv := testKey(14)
	b := pubsub.NewBroker()
	defer b.Close()
	if err := b.CreateTopic("control", 1); err != nil {
		t.Fatal(err)
	}
	const records = 300 // more than one poll
	for v := uint64(1); v <= records; v++ {
		qs := &QuerySet{Version: v, Entries: []Entry{{Signed: testSigned(t, "alice", 1, priv), AnalystKey: pub, Params: testParams(), Rev: v}}}
		payload, err := qs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.PublishColumns("control", pubsub.Columns{Count: 1, ValLen: len(payload), Vals: payload}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	cc, err := pubsub.NewConsumer(b, "follower", "control")
	if err != nil {
		t.Fatal(err)
	}
	ap := NewApplier()
	f := NewFollower(cc, ap)
	for _, step := range []struct {
		n           int64
		seen        int
		at, version int64
	}{{0, 0, 0, 0}, {1, 1, 1, 1}, {258, 258, 259, 259}, {0, 0, 259, 259}} {
		if seen, err := f.SyncN(step.n); err != nil || seen != step.seen || f.Position() != step.at || int64(appliedVersion(ap)) != step.version {
			t.Fatalf("SyncN(%d) = (%d, %v) at offset %d, version %d; want %d records, offset %d, version %d",
				step.n, seen, err, f.Position(), appliedVersion(ap), step.seen, step.at, step.version)
		}
	}
	if seen, err := f.Sync(); err != nil || seen != records-259 || f.Position() != records || appliedVersion(ap) != records {
		t.Fatalf("Sync after SyncN = (%d, %v) at offset %d, version %d", seen, err, f.Position(), appliedVersion(ap))
	}
}

// lossyLink is a deterministic adversarial delivery model for control-plane
// distribution tests: given a sequence of published messages, it
// produces the subsequence (with duplicates) one subscriber actually
// observes — dropping, duplicating, and locally reordering messages
// under a seeded RNG. It models a consumer's view of a durable
// pub/sub topic under transient failures: individual poll batches may
// be missed or observed out of order, but the log itself is durable,
// so a final catch-up poll always observes the tail. Receivers built on
// versioned snapshots must converge under any such delivery.
type lossyLink struct {
	// Drop is the probability a message is not observed in its slot.
	Drop float64
	// Dup is the probability an observed message is observed twice.
	Dup float64
	// ReorderWindow bounds how far an observed message may be displaced
	// from its publish position (0 = in-order delivery).
	ReorderWindow int
	// Seed fixes the delivery schedule; the same seed always yields the
	// same delivery.
	Seed int64
}

// Validate checks the link parameters.
func (l lossyLink) Validate() error {
	if l.Drop < 0 || l.Drop >= 1 || math.IsNaN(l.Drop) {
		return fmt.Errorf("lossyLink: drop %v", l.Drop)
	}
	if l.Dup < 0 || l.Dup >= 1 || math.IsNaN(l.Dup) {
		return fmt.Errorf("lossyLink: dup %v", l.Dup)
	}
	if l.ReorderWindow < 0 {
		return fmt.Errorf("lossyLink: reorder window %d", l.ReorderWindow)
	}
	return nil
}

// Deliver returns the observed sequence for one subscriber. The final
// published message is always observed last (the durable-log catch-up:
// a consumer that keeps polling eventually reads the tail), so
// convergence does not depend on luck; everything before it may be
// dropped, duplicated, or displaced by up to ReorderWindow positions.
func (l lossyLink) Deliver(msgs [][]byte) ([][]byte, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(msgs) == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(l.Seed))
	var observed [][]byte
	for _, m := range msgs[:len(msgs)-1] {
		if rng.Float64() < l.Drop {
			continue
		}
		observed = append(observed, m)
		if rng.Float64() < l.Dup {
			observed = append(observed, m)
		}
	}
	// Local reordering: displace each message within the window.
	if l.ReorderWindow > 0 {
		for i := range observed {
			j := i + rng.Intn(l.ReorderWindow+1)
			if j >= len(observed) {
				j = len(observed) - 1
			}
			observed[i], observed[j] = observed[j], observed[i]
		}
	}
	return append(observed, msgs[len(msgs)-1]), nil
}

func TestLinkDeterministicDelivery(t *testing.T) {
	msgs := make([][]byte, 20)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
	}
	link := lossyLink{Drop: 0.4, Dup: 0.3, ReorderWindow: 3, Seed: 7}
	a, err := link.Deliver(msgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := link.Deliver(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] {
			t.Fatalf("same seed diverged at position %d", i)
		}
	}
	// The tail is always delivered last (the durable-log catch-up).
	if a[len(a)-1][0] != msgs[len(msgs)-1][0] {
		t.Errorf("tail message not delivered last")
	}
	// A different seed yields a different schedule (overwhelmingly).
	other := lossyLink{Drop: 0.4, Dup: 0.3, ReorderWindow: 3, Seed: 8}
	c, err := other.Deliver(msgs)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i][0] != c[i][0] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical delivery")
	}
	// Parameter validation.
	if _, err := (lossyLink{Drop: 1.5}).Deliver(msgs); err == nil {
		t.Error("invalid drop accepted")
	}
	if _, err := (lossyLink{ReorderWindow: -1}).Deliver(msgs); err == nil {
		t.Error("negative reorder window accepted")
	}
}

// appliedVersion is the version of the last snapshot ap applied, 0
// before the first.
func appliedVersion(ap *Applier) uint64 {
	if qs := ap.Applied(); qs != nil {
		return qs.Version
	}
	return 0
}

// applyPayload decodes one control payload and applies it.
func applyPayload(ap *Applier, payload []byte) error {
	qs, err := DecodeQuerySet(payload)
	if err != nil {
		return err
	}
	return ap.apply(qs)
}
