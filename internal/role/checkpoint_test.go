package role

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/query"
	"privapprox/internal/stats"
	"privapprox/internal/stream"
)

// sampleRecord exercises every section: two consumers, several topics,
// an inverted result and a +Inf margin among the fired windows.
func sampleRecord() *record {
	origin := time.Unix(1_700_000_000, 0)
	return &record{
		positions: []map[string]map[int]int64{
			{"answer": {0: 3, 1: 0, 2: 7, 3: 1}},
			{"key": {0: 5}, "lineage": {0: 2}},
		},
		system: []byte("system section"),
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
// under any other magic, the PSC2 and PNC1 records the in-process system
// and the node wrote before there was one record among them, is refused.
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
	for _, magic := range []string{"PSC2", "PNC1", "PSC9"} {
		if _, err := decodeRecord(append([]byte(magic), enc[len(recordMagic):]...)); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("a %s record decoded: %v", magic, err)
		}
	}
}

// TestDrainRestoreChecksSystemFirst: a record whose system section the
// wiring refuses leaves the drain as it was — no consumer moves and the
// aggregator keeps its state — and the same record then restores whole.
func TestDrainRestoreChecksSystemFirst(t *testing.T) {
	positions := func(r *rig) []map[string]map[int]int64 {
		var out []map[string]map[int]int64
		for _, c := range r.drain.Consumers() {
			out = append(out, c.Positions())
		}
		return out
	}
	a := newRig(t, 40, 1)
	if _, err := a.clients.Epoch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.drain.Dry(); err != nil {
		t.Fatal(err)
	}
	rec, err := a.drain.Checkpoint([]byte("system section"), nil)
	if err != nil {
		t.Fatal(err)
	}

	b := newRig(t, 40, 1)
	b.restored = true
	// Restore needs the checkpoint's query set at the aggregator.
	if _, err := b.drain.Sync(); err != nil {
		t.Fatal(err)
	}
	fresh := positions(b)
	refused := errors.New("system section refused")
	var seen []byte
	if _, err := b.drain.Restore(rec, func(section []byte) error { seen = section; return refused }); !errors.Is(err, refused) {
		t.Fatalf("Restore with a refused system section: %v", err)
	}
	if string(seen) != "system section" {
		t.Fatalf("the system check saw %q", seen)
	}
	if got := positions(b); !reflect.DeepEqual(got, fresh) || b.agg.Stats().Decoded != 0 {
		t.Fatalf("a refused record moved the drain: positions %v, %d decoded", got, b.agg.Stats().Decoded)
	}
	if _, err := b.drain.Restore(rec, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := positions(b), positions(a); !reflect.DeepEqual(got, want) || b.agg.Stats().Decoded != a.agg.Stats().Decoded {
		t.Fatalf("restored positions %v with %d decoded, want %v with %d", got, b.agg.Stats().Decoded, want, a.agg.Stats().Decoded)
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
	f.Add([]byte("PCR1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
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
