package pubsub

import (
	"bytes"
	"errors"
	"testing"
)

// testCols builds count uniform-stride records with distinct keys and
// values.
func testCols(count, keyLen, valLen int) Columns {
	cols := Columns{Count: count, KeyLen: keyLen, ValLen: valLen}
	for i := 0; i < count; i++ {
		for j := 0; j < keyLen; j++ {
			cols.Keys = append(cols.Keys, byte(i*31+j))
		}
		for j := 0; j < valLen; j++ {
			cols.Vals = append(cols.Vals, byte(i*17+j+1))
		}
	}
	return cols
}

// head returns the first n records of cols.
func head(cols Columns, n int) Columns {
	cols.Count = n
	cols.Keys = cols.Keys[:n*cols.KeyLen]
	cols.Vals = cols.Vals[:n*cols.ValLen]
	return cols
}

// fetchAll drains every partition of a broker topic.
func fetchAll(t *testing.T, b *Broker, topic string) [][]Record {
	t.Helper()
	n, err := b.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Record, n)
	for p := 0; p < n; p++ {
		recs, err := fetch(b, topic, p, 0, 1<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = recs
	}
	return out
}

// sameRecords compares two per-partition record sets on key, value,
// partition, and offset (timestamps differ across publishes).
func sameRecords(t *testing.T, got, want [][]Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("partition counts diverge: %d vs %d", len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("partition %d: %d records vs %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			g, w := got[p][i], want[p][i]
			if !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) ||
				g.Partition != w.Partition || g.Offset != w.Offset {
				t.Fatalf("partition %d record %d: %+v vs %+v", p, i, g, w)
			}
		}
	}
}

// TestPublishColumnsRoutesByKeyHash is the routing reference: every
// record of a batch lands in the partition the FNV-1a hash of its key
// selects (hash/fnv's, which fnv1a32 spells out), in batch order within
// it — in-process and over TCP. A keyless record hashes the empty key,
// so a keyless batch lands whole in one partition. DrainUpTo's
// seeded-MID determinism depends on this routing.
func TestPublishColumnsRoutesByKeyHash(t *testing.T) {
	keyed := testCols(23, 16, 21)
	keyless := Columns{Count: 5, ValLen: 3, Vals: []byte("abcdefghijklmno")}
	// want is the log the two batches make, published in turn.
	want := make([][]Record, 4)
	for _, cols := range []Columns{keyed, keyless} {
		for i := 0; i < cols.Count; i++ {
			p := partitionForKey(cols.Key(i), len(want))
			want[p] = append(want[p], Record{Partition: p, Offset: int64(len(want[p])), Key: cols.Key(i), Value: cols.val(i)})
		}
	}
	if p := partitionForKey(nil, len(want)); len(want[p]) < keyless.Count {
		t.Fatalf("the keyless batch is not whole in partition %d", p)
	}

	colB := newTestBroker(t, "answers")
	tcpB, _, cli := startServer(t)
	if err := tcpB.CreateTopic("answers", len(want)); err != nil {
		t.Fatal(err)
	}
	for _, cols := range []Columns{keyed, keyless} {
		if err := colB.PublishColumns("answers", cols, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := cli.PublishColumns("answers", cols, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	sameRecords(t, fetchAll(t, colB, "answers"), want)
	sameRecords(t, fetchAll(t, tcpB, "answers"), want)

	// Records fetched from the columnar path must be deep copies: mutating
	// them cannot corrupt the shared lane copy backing sibling records.
	for _, p := range fetchAll(t, colB, "answers") {
		for i := range p {
			for j := range p[i].Value {
				p[i].Value[j] = 0xee
			}
		}
	}
	sameRecords(t, fetchAll(t, colB, "answers"), want)
}

// TestBrokerPublishColumnsAllOrNothing: a columnar batch overflowing any
// target partition is refused whole — no partial append, full rejection
// accounting.
func TestBrokerPublishColumnsAllOrNothing(t *testing.T) {
	b := newTestBroker(t, "answers")
	if err := b.SetTopicCapacity("answers", 4); err != nil {
		t.Fatal(err)
	}
	cols := testCols(30, 8, 8)
	if err := b.PublishColumns("answers", cols, 0, 0); !errors.Is(err, errPartitionFull) {
		t.Fatalf("oversized batch: %v", err)
	}
	for p, recs := range fetchAll(t, b, "answers") {
		if len(recs) != 0 {
			t.Fatalf("partition %d holds %d records after refused batch", p, len(recs))
		}
	}
	if s := b.Stats(); s.Rejected != int64(cols.Count) {
		t.Fatalf("Stats.Rejected = %d, want %d", s.Rejected, cols.Count)
	}
	if err := b.PublishColumns("answers", head(cols, 3), 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsValidate: lane geometry checks.
func TestColumnsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cols Columns
		ok   bool
	}{
		{"empty", Columns{}, true},
		{"valid", Columns{Count: 2, KeyLen: 1, ValLen: 2, Keys: []byte{1, 2}, Vals: []byte{1, 2, 3, 4}}, true},
		{"negative count", Columns{Count: -1}, false},
		{"keyless", Columns{Count: 2, ValLen: 1, Vals: []byte{1, 2}}, true},
		{"empty values", Columns{Count: 1, KeyLen: 1, Keys: []byte{1}}, true},
		{"zero stride", Columns{Count: 1}, false},
		{"negative key stride", Columns{Count: 1, KeyLen: -1, ValLen: 2, Vals: []byte{1}}, false},
		{"short key lane", Columns{Count: 2, KeyLen: 2, ValLen: 1, Keys: []byte{1}, Vals: []byte{1, 2}}, false},
		{"long val lane", Columns{Count: 1, KeyLen: 1, ValLen: 1, Keys: []byte{1}, Vals: []byte{1, 2}}, false},
	} {
		err := tc.cols.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, errWire) {
			t.Errorf("%s: err=%v", tc.name, err)
		}
	}
}

// columnsFrame encodes an opPublishColumns request without validating
// anything, so tests can frame geometry the client refuses to send.
func columnsFrame(topic string, pid, seq uint64, count, keyLen, valLen uint32, keys, vals []byte) []byte {
	var e enc
	e.byte(opPublishColumns)
	e.str(topic)
	e.uint64(pid)
	e.uint64(seq)
	e.uint32(count)
	e.uint32(keyLen)
	e.uint32(valLen)
	e.bytes(keys)
	e.bytes(vals)
	return e.buf
}

// FuzzFrameV2RoundTrip drives the server's one columnar publish handler
// two ways: arbitrary bytes must never panic (only answer with a status
// frame), and frames built from fuzzed geometry must be accepted exactly
// when the geometry and session tag are valid — landing the same records
// as an in-process PublishColumns of the same lanes — and rejected with
// nothing applied otherwise.
func FuzzFrameV2RoundTrip(f *testing.F) {
	seed := testCols(2, 3, 4)
	f.Add(columnsFrame("answers", 7, 1, 2, 3, 4, seed.Keys, seed.Vals)[1:])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Lying count, lying stride, short value lane, sequence without pid.
	f.Add(columnsFrame("answers", 7, 1, 1<<30, 3, 4, seed.Keys, seed.Vals)[1:])
	f.Add(columnsFrame("answers", 7, 1, 2, 1<<31, 4, seed.Keys, seed.Vals)[1:])
	f.Add(columnsFrame("answers", 7, 1, 2, 3, 4, seed.Keys, seed.Vals[:5])[1:])
	f.Add(columnsFrame("answers", 0, 9, 2, 3, 4, seed.Keys, seed.Vals)[1:])

	newBroker := func(t *testing.T) *Broker { return newTestBroker(t, "answers") }
	total := func(t *testing.T, b *Broker) int {
		n := 0
		for _, recs := range fetchAll(t, b, "answers") {
			n += len(recs)
		}
		return n
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary payload bytes through the handler: must not panic,
		// must always produce a status frame. A dedicated broker, because
		// a fuzz input that happens to be a valid frame lands for real.
		resp := (&Server{broker: newBroker(t)}).handle(append([]byte{opPublishColumns}, data...))
		if len(resp) == 0 {
			t.Fatal("columnar handler returned an empty response")
		}

		// Structured: reinterpret the input as a session tag, lane
		// geometry, a lie to tell about it, and lane bytes.
		if len(data) < 6 {
			return
		}
		pid, seq := uint64(data[0]%3), uint64(data[1]%3)
		keyLen := int(data[2]%8) + 1
		valLen := int(data[3]%8) + 1
		count := int(data[4] % 16)
		lie := data[5] % 5
		lanes := data[6:]
		if len(lanes) < count*(keyLen+valLen) {
			count = len(lanes) / (keyLen + valLen)
		}
		cols := Columns{
			Count:  count,
			KeyLen: keyLen,
			ValLen: valLen,
			Keys:   lanes[:count*keyLen],
			Vals:   lanes[count*keyLen : count*(keyLen+valLen)],
		}
		if err := cols.validate(); err != nil {
			t.Fatalf("fuzz-built columns invalid: %v", err)
		}
		claimCount, claimKey, vals := uint32(count), uint32(keyLen), cols.Vals
		valid := pid != 0 || seq == 0
		switch {
		case count == 0:
		case lie == 1:
			claimCount, valid = uint32(count+1), false
		case lie == 2:
			claimKey, valid = uint32(keyLen+1), false
		case lie == 3:
			vals, valid = vals[:len(vals)-1], false
		}

		b := newBroker(t)
		resp = (&Server{broker: b}).handle(columnsFrame("answers", pid, seq, claimCount, claimKey, uint32(valLen), cols.Keys, vals))
		if !valid {
			if len(resp) < 1 || resp[0] != 1 {
				t.Fatalf("malformed frame (lie %d, pid %d, seq %d) acked: % x", lie, pid, seq, resp)
			}
			if n := total(t, b); n != 0 {
				t.Fatalf("rejected frame applied %d records", n)
			}
			return
		}
		if !bytes.Equal(resp, []byte{0}) {
			t.Fatalf("well-formed frame answered % x, want the bare ok status", resp)
		}
		ref := newBroker(t)
		if err := ref.PublishColumns("answers", cols, pid, seq); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, fetchAll(t, b, "answers"), fetchAll(t, ref, "answers"))
	})
}
