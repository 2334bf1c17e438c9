package engine

import (
	"errors"
	"testing"

	"privapprox/internal/query"
)

// recordingSink captures every announced payload.
type recordingSink struct{ payloads [][]byte }

func (s *recordingSink) Announce(p []byte) error {
	s.payloads = append(s.payloads, append([]byte(nil), p...))
	return nil
}

func TestRegistryRegisterVerifiesAndBroadcasts(t *testing.T) {
	pub, priv := testKey(1)
	r := NewRegistry()
	sink := &recordingSink{}
	if err := r.AttachSink(sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.payloads) != 1 {
		t.Fatalf("attach did not send the initial snapshot")
	}

	signed := testSigned(t, "alice", 1, priv)

	// Unknown analyst: no trusted key yet.
	if err := r.Register(signed, testParams()); !errors.Is(err, errUnknownAnalyst) {
		t.Fatalf("Register without trust = %v, want ErrUnknownAnalyst", err)
	}
	if err := r.Trust("alice", pub); err != nil {
		t.Fatal(err)
	}

	// A query signed by the wrong key is rejected even for a trusted
	// analyst.
	_, wrongPriv := testKey(2)
	forged := testSigned(t, "alice", 2, wrongPriv)
	if err := r.Register(forged, testParams()); !errors.Is(err, query.ErrBadSignature) {
		t.Fatalf("forged Register = %v, want ErrBadSignature", err)
	}

	if err := r.Register(signed, testParams()); err != nil {
		t.Fatal(err)
	}
	if got := r.Active(); len(got) != 1 || got[0] != signed.Query.QID {
		t.Fatalf("Active = %v", got)
	}
	if len(sink.payloads) != 2 {
		t.Fatalf("broadcasts = %d, want 2", len(sink.payloads))
	}
	qs, err := DecodeQuerySet(sink.payloads[1])
	if err != nil {
		t.Fatal(err)
	}
	if qs.Version != 1 || len(qs.Entries) != 1 || qs.Entries[0].Rev != 0 {
		t.Fatalf("snapshot = v%d with %d entries", qs.Version, len(qs.Entries))
	}

	// Re-registering bumps the revision (parameter redistribution).
	p2 := testParams()
	p2.S = 0.5
	if err := r.Register(signed, p2); err != nil {
		t.Fatal(err)
	}
	qs, err = DecodeQuerySet(sink.payloads[len(sink.payloads)-1])
	if err != nil {
		t.Fatal(err)
	}
	if qs.Entries[0].Rev != 1 || qs.Entries[0].Params.S != 0.5 {
		t.Fatalf("re-register entry = rev %d params %+v", qs.Entries[0].Rev, qs.Entries[0].Params)
	}

	// Stop shrinks the set.
	if err := r.Stop(signed.Query.QID); err != nil {
		t.Fatal(err)
	}
	if got := r.Active(); len(got) != 0 {
		t.Fatalf("Active after stop = %v", got)
	}
	if err := r.Stop(signed.Query.QID); !errors.Is(err, errUnknownQuery) {
		t.Fatalf("double Stop = %v, want ErrUnknownQuery", err)
	}
}

// TestRegistryWireIDCollision exercises the collision guard: two
// distinct analyst:serial pairs whose 64-bit wire IDs coincide must be
// rejected, because the wire ID is the only demux key answer messages
// carry. A genuine FNV-64 collision cannot be constructed in test
// time, so the hash is narrowed through the package seam to force one.
func TestRegistryWireIDCollision(t *testing.T) {
	orig := wireIDOf
	defer func() { wireIDOf = orig }()
	// Truncate the hash to 8 bits: distinct IDs now collide readily —
	// exactly what a 64-bit birthday collision would look like.
	wireIDOf = func(id query.ID) uint64 { return id.Uint64() & 0xff }

	pub, priv := testKey(3)
	r := NewRegistry()
	if err := r.Trust("carol", pub); err != nil {
		t.Fatal(err)
	}

	// Probe serials until two distinct IDs collide under the truncated
	// hash.
	base := testSigned(t, "carol", 1, priv)
	if err := r.Register(base, testParams()); err != nil {
		t.Fatal(err)
	}
	baseWire := wireIDOf(base.Query.QID)
	var collided bool
	for serial := uint64(2); serial < 10_000; serial++ {
		id := query.ID{Analyst: "carol", Serial: serial}
		if wireIDOf(id) != baseWire {
			continue
		}
		err := r.Register(testSigned(t, "carol", serial, priv), testParams())
		if !errors.Is(err, errWireCollision) {
			t.Fatalf("colliding Register = %v, want ErrWireCollision", err)
		}
		collided = true
		break
	}
	if !collided {
		t.Fatal("no collision found under truncated hash (test setup broken)")
	}
	// The registry state is untouched by the rejected registration.
	if got := r.Active(); len(got) != 1 || got[0] != base.Query.QID {
		t.Fatalf("Active after rejected collision = %v", got)
	}
}

// TestRegistryBootstrapResumesVersioning: a restarted submitter that
// bootstraps from the newest replayed snapshot must continue version
// numbering past it — otherwise its next announcement would carry a
// version the newest-snapshot-wins appliers have already seen and be
// ignored forever.
func TestRegistryBootstrapResumesVersioning(t *testing.T) {
	pub, priv := testKey(1)
	orig := NewRegistry()
	if err := orig.Trust("alice", pub); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	if err := orig.AttachSink(sink); err != nil {
		t.Fatal(err)
	}
	q1 := testSigned(t, "alice", 1, priv)
	q2 := testSigned(t, "alice", 2, priv)
	if err := orig.Register(q1, testParams()); err != nil {
		t.Fatal(err)
	}
	if err := orig.Register(q2, testParams()); err != nil {
		t.Fatal(err)
	}

	// "Replay": decode the newest snapshot off the control stream, the
	// way a restarted submit process reads it back from a durable proxy.
	newest, err := DecodeQuerySet(sink.payloads[len(sink.payloads)-1])
	if err != nil {
		t.Fatal(err)
	}

	restarted := NewRegistry()
	if err := restarted.Bootstrap(newest); err != nil {
		t.Fatal(err)
	}
	if got := restarted.Version(); got != orig.Version() {
		t.Fatalf("bootstrapped version %d, want %d", got, orig.Version())
	}
	if got := restarted.Active(); len(got) != 2 || got[0] != q1.Query.QID || got[1] != q2.Query.QID {
		t.Fatalf("bootstrapped active set = %v", got)
	}
	// The analyst keys travel in the snapshot: a bootstrapped registry
	// accepts follow-up registrations from the same analyst without an
	// explicit Trust call, and numbers them past the adopted version.
	q3 := testSigned(t, "alice", 3, priv)
	sink2 := &recordingSink{}
	if err := restarted.AttachSink(sink2); err != nil {
		t.Fatal(err)
	}
	if err := restarted.Register(q3, testParams()); err != nil {
		t.Fatal(err)
	}
	qs, err := DecodeQuerySet(sink2.payloads[len(sink2.payloads)-1])
	if err != nil {
		t.Fatal(err)
	}
	if qs.Version <= newest.Version {
		t.Fatalf("post-bootstrap announcement version %d did not move past %d", qs.Version, newest.Version)
	}
	if len(qs.Entries) != 3 {
		t.Fatalf("post-bootstrap snapshot has %d entries, want 3", len(qs.Entries))
	}

	// Entry revisions survive the round trip: a parameter update before
	// the crash keeps its bumped revision after bootstrap, so appliers
	// do not needlessly redraw coin streams.
	p2 := testParams()
	p2.S = 0.5
	if err := orig.Register(q1, p2); err != nil {
		t.Fatal(err)
	}
	newest2, err := DecodeQuerySet(sink.payloads[len(sink.payloads)-1])
	if err != nil {
		t.Fatal(err)
	}
	again := NewRegistry()
	if err := again.Bootstrap(newest2); err != nil {
		t.Fatal(err)
	}
	e, ok := again.Entry(q1.Query.QID)
	if !ok || e.Rev != 1 || e.Params.S != 0.5 {
		t.Fatalf("bootstrapped entry = %+v, %v; want rev 1, S=0.5", e, ok)
	}
}

func TestRegistryBootstrapRejectsBadSnapshots(t *testing.T) {
	pub, priv := testKey(1)
	r := NewRegistry()
	if err := r.Trust("alice", pub); err != nil {
		t.Fatal(err)
	}
	signed := testSigned(t, "alice", 1, priv)
	if err := r.Register(signed, testParams()); err != nil {
		t.Fatal(err)
	}

	// Going backwards is rejected.
	if err := r.Bootstrap(&QuerySet{Version: 0}); err == nil {
		t.Fatal("bootstrap accepted a snapshot behind the registry version")
	}

	// A forged signature is rejected even though the key travels with
	// the entry (the entry must at least be self-consistent).
	_, wrongPriv := testKey(2)
	forged := testSigned(t, "alice", 9, wrongPriv)
	bad := &QuerySet{Version: 10, Entries: []Entry{{Signed: forged, AnalystKey: pub, Params: testParams()}}}
	if err := NewRegistry().Bootstrap(bad); !errors.Is(err, query.ErrBadSignature) {
		t.Fatalf("forged bootstrap entry = %v, want ErrBadSignature", err)
	}

	// Duplicate entries are rejected.
	dup := &QuerySet{Version: 10, Entries: []Entry{
		{Signed: signed, AnalystKey: pub, Params: testParams()},
		{Signed: signed, AnalystKey: pub, Params: testParams()},
	}}
	if err := NewRegistry().Bootstrap(dup); err == nil {
		t.Fatal("bootstrap accepted duplicate entries")
	}
}
