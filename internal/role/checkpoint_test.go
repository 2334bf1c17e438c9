package role

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/engine"
	"privapprox/internal/proxy"
	"privapprox/internal/query"
	"privapprox/internal/stats"
	"privapprox/internal/stream"
	"privapprox/internal/workload"
)

// sampleRecord exercises every section: two consumers, several topics,
// a control position, an inverted result and a +Inf margin among the
// fired windows.
func sampleRecord() *record {
	origin := time.Unix(1_700_000_000, 0)
	return &record{
		positions: []map[string]map[int]int64{
			{"answer": {0: 3, 1: 0, 2: 7, 3: 1}},
			{"key": {0: 5}, "lineage": {0: 2}},
		},
		control: 4,
		system:  []byte("system section"),
		results: []aggregator.Result{
			{
				Query:      query.ID{Analyst: "alice", Serial: 3},
				Window:     stream.Window{Start: origin, End: origin.Add(4 * time.Second)},
				Responses:  17,
				Population: 40,
				Inverted:   true,
				Buckets: []aggregator.BucketEstimate{
					{Label: "[0,1)", ObservedYes: 9, Truthful: 8.25,
						Estimate: stats.ConfidenceInterval{Estimate: 19.4, Margin: 2.5, Confidence: 0.95}},
					{Label: "rest", Estimate: stats.ConfidenceInterval{Confidence: 0.95, Margin: math.Inf(1)}},
				},
			},
			{
				Query:      query.ID{Analyst: "bob", Serial: 1},
				Window:     stream.Window{Start: origin.Add(4 * time.Second), End: origin.Add(8 * time.Second)},
				Population: 40,
			},
		},
		state: []byte("PAC4 aggregator state"),
	}
}

// TestRecordRoundTrip: a record decodes to what was encoded — results
// included, bit for bit — and an empty one round-trips too. A record
// under any other magic is refused: the PSC2 and PNC1 records the
// in-process system and the node wrote before there was one record among
// them, and the PCR1 record written before it held the control position.
func TestRecordRoundTrip(t *testing.T) {
	for _, r := range []*record{{}, sampleRecord()} {
		enc := r.append(nil)
		got, err := decodeRecord(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.append(nil), enc) {
			t.Fatal("a decoded record does not re-encode to its bytes")
		}
	}
	want := sampleRecord()
	got, err := decodeRecord(want.append(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.results {
		// Times must compare Equal (the location may differ after the
		// round trip); normalize before DeepEqual.
		if !got.results[i].Window.Start.Equal(want.results[i].Window.Start) || !got.results[i].Window.End.Equal(want.results[i].Window.End) {
			t.Fatalf("window %d did not round-trip", i)
		}
		got.results[i].Window = want.results[i].Window
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record did not round-trip:\ngot  %+v\nwant %+v", got, want)
	}
	enc := sampleRecord().append(nil)
	for _, magic := range []string{"PSC2", "PNC1", "PCR1", "PSC9"} {
		if _, err := decodeRecord(append([]byte(magic), enc[len(recordMagic):]...)); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("a %s record decoded: %v", magic, err)
		}
	}
}

// TestDrainRestoreChecksSystemFirst: a record whose system section the
// wiring refuses leaves the drain as it was — no consumer moves, the
// control follower included, and the aggregator keeps its state — and
// the same record then restores whole into the restarted aggregator,
// which registers nothing first. Its teardown checks the share ledger
// over both lives.
func TestDrainRestoreChecksSystemFirst(t *testing.T) {
	positions := func(r *rig) []map[string]map[int]int64 {
		var out []map[string]map[int]int64
		for _, c := range r.drain.Consumers() {
			out = append(out, c.Positions())
		}
		return out
	}
	a := newRig(t, 40)
	if _, _, err := a.clients.Epoch(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.drain.Dry(); err != nil {
		t.Fatal(err)
	}
	rec, err := a.drain.Checkpoint([]byte("system section"), nil)
	if err != nil {
		t.Fatal(err)
	}

	b := a.restart(t)
	fresh := positions(b)
	refused := errors.New("system section refused")
	var seen []byte
	if _, err := b.drain.Restore(rec, func(section []byte) error { seen = section; return refused }); !errors.Is(err, refused) {
		t.Fatalf("Restore with a refused system section: %v", err)
	}
	if string(seen) != "system section" {
		t.Fatalf("the system check saw %q", seen)
	}
	if got := positions(b); !reflect.DeepEqual(got, fresh) || b.drain.Follower().Position() != 0 || b.agg.Stats().Decoded != 0 {
		t.Fatalf("a refused record moved the drain: positions %v, control %d, %d decoded", got, b.drain.Follower().Position(), b.agg.Stats().Decoded)
	}
	if _, err := b.drain.Restore(rec, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := positions(b), positions(a); !reflect.DeepEqual(got, want) || b.agg.Stats().Decoded != a.agg.Stats().Decoded {
		t.Fatalf("restored positions %v with %d decoded, want %v with %d", got, b.agg.Stats().Decoded, want, a.agg.Stats().Decoded)
	}
	if _, err := b.drain.Restore(rec, nil); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("a second Restore into a drain that has read its control topic: %v, want ErrCheckpoint", err)
	}
}

// recordingSink keeps every announcement a registry makes, for a test to
// publish in an order of its own.
type recordingSink [][]byte

func (r *recordingSink) Announce(payload []byte) error {
	*r = append(*r, bytes.Clone(payload))
	return nil
}

// TestDrainRestoreReplaysLikeSync: Restore reads the control topic below
// the record's control position as Follower.Sync read it in the first
// life. With an undecodable record and a snapshot whose signature was
// tampered with at the head, the middle or the tail of the replayed
// range, the restored aggregator holds exactly the query set, in the
// same order, that the first life's follower held.
func TestDrainRestoreReplaysLikeSync(t *testing.T) {
	var announced recordingSink
	reg := engine.NewRegistry()
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	if err := reg.Trust("role", key.Public().(ed25519.PublicKey)); err != nil {
		t.Fatal(err)
	}
	if err := reg.AttachSink(&announced); err != nil {
		t.Fatal(err)
	}
	for serial := uint64(1); serial <= 2; serial++ {
		q, err := workload.TaxiQuery("role", serial, time.Second, 4*time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		signed, err := query.Sign(q, key)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(signed, rigParams); err != nil {
			t.Fatal(err)
		}
	}
	// announced holds versions 0 (empty), 1 and 2. The tampered snapshot
	// is version 2's set at version 9, so it is refused wherever it lands.
	snap, err := engine.DecodeQuerySet(announced[2])
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = 9
	snap.Entries[0].Signed.Signature[0] ^= 1
	tampered, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	junk := []byte("not a snapshot")

	for name, records := range map[string][][]byte{
		"head":   {junk, tampered, announced[0], announced[1], announced[2]},
		"middle": {announced[0], announced[1], junk, tampered, announced[2]},
		"tail":   {announced[0], announced[1], announced[2], junk, tampered},
	} {
		t.Run(name, func(t *testing.T) {
			fleet, err := proxy.NewFleet(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			for _, rec := range records {
				if err := fleet.Announce(rec); err != nil {
					t.Fatal(err)
				}
			}
			drain := func(group string) (*Drain, *aggregator.Aggregator) {
				agg, err := aggregator.NewMulti(aggregator.Config{Params: rigParams, Population: 4, Proxies: 2, Origin: time.Unix(0, 0), Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				consumers, err := fleet.Consumers(group)
				if err != nil {
					t.Fatal(err)
				}
				control, err := fleet.Proxy(0).ControlConsumer(group + "-control")
				if err != nil {
					t.Fatal(err)
				}
				return NewDrain(agg, consumers, control), agg
			}
			first, firstAgg := drain("first")
			if _, err := first.sync(); err == nil || !strings.Contains(err.Error(), "signature") {
				t.Fatalf("the first life's sync: %v, want the tampered snapshot's refusal", err)
			}
			rec, err := first.Checkpoint(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			restored, restoredAgg := drain("restored")
			if _, err := restored.Restore(rec, nil); err != nil {
				t.Fatal(err)
			}
			want, got := first.Follower().Applier().Applied(), restored.Follower().Applier().Applied()
			if restored.Follower().Position() != int64(len(records)) || !reflect.DeepEqual(got, want) || len(want.Entries) != 2 {
				t.Fatalf("restored follower at offset %d holds %+v, want offset %d and %+v", restored.Follower().Position(), got, len(records), want)
			}
			for _, e := range want.Entries {
				id := e.Signed.Query.QID
				if g, w := restoredAgg.QueryOrder()(id), firstAgg.QueryOrder()(id); g != w || w < 0 {
					t.Fatalf("query %s is at %d in the restored aggregator, at %d in the first", id, g, w)
				}
			}
		})
	}
}

// FuzzCheckpointRecord: decoding never panics, whatever it accepts
// re-encodes to the same bytes, every truncation of an accepted record
// fails, and every failure is ErrCheckpoint.
func FuzzCheckpointRecord(f *testing.F) {
	full := sampleRecord().append(nil)
	f.Add(full)
	f.Add((&record{}).append(nil))
	f.Add(append([]byte("PSC2"), full[len(recordMagic):]...))
	f.Add(append([]byte("PNC1"), full[len(recordMagic):]...))
	f.Add(append([]byte("PCR1"), full[len(recordMagic):]...))
	f.Add([]byte("PCR3\xff\xff\xff\xff"))
	// PCR2's core system section held registration epochs: refused.
	f.Add(append([]byte("PCR2"), full[len(recordMagic):]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
		if err == nil && !bytes.HasPrefix(data, []byte("PCR3")) {
			t.Fatalf("a %q record decoded", data[:4])
		}
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("refused with %v, not ErrCheckpoint", err)
			}
			return
		}
		if !bytes.Equal(r.append(nil), data) {
			t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", data, r.append(nil))
		}
		for n := range data {
			if _, err := decodeRecord(data[:n]); !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("truncation to %d of %d bytes: %v", n, len(data), err)
			}
		}
	})
}
