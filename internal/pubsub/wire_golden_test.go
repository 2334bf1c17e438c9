package pubsub

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"privapprox/internal/wal"
)

// The vectors below were captured from the tree before the row-batch,
// unsessioned-columnar and feature-probe opcodes were deleted (the
// request the client's sessioned columnar publish wrote, and the
// records the partition journal appended): byte-identity to that output
// is what replaces the old-vs-new equivalence tests.
var (
	goldenCols = Columns{Count: 2, KeyLen: 4, ValLen: 3, Keys: []byte("k000k001"), Vals: []byte("v00v01")}
	goldenPID  = uint64(0x0102030405060708)
	goldenSeq  = uint64(0x1112131415161718)
	goldenTS   = time.Unix(0, 0x0123456789abcdef)
)

const (
	// op | topic "answer" | pid | seq | count 2 | keyLen 4 | valLen 3 |
	// key lane | value lane.
	goldenFrame = "0c" + "00000006616e73776572" + "0102030405060708" + "1112131415161718" +
		"00000002" + "00000004" + "00000003" + "000000086b3030306b303031" + "00000006763030763031"
	// 0xF5 | pid | seq | timestamp | key length | key | value.
	goldenTagged = "f5" + "0102030405060708" + "1112131415161718" + "0123456789abcdef" + "000000046b303030" + "763030"
	// timestamp | key length | key | value.
	goldenUntagged = "0123456789abcdef" + "000000046b303031" + "763031"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenPublishColumnsFrame: the exact bytes Client.PublishColumns
// puts on the wire for a fixed (topic, cols, pid, seq).
func TestGoldenPublishColumnsFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		got <- req
		writeFrame(conn, []byte{0})
	}()
	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.PublishColumns("answer", goldenCols, goldenPID, goldenSeq); err != nil {
		t.Fatal(err)
	}
	if frame := <-got; !bytes.Equal(frame, unhex(t, goldenFrame)) {
		t.Fatalf("request frame\n got %x\nwant %s", frame, goldenFrame)
	}
}

// TestGoldenPartitionRecords: the exact partition-WAL bytes of one
// session-tagged and one untagged record — from the framing functions
// under a fixed timestamp, and from a durable broker's journal (its
// clock-drawn timestamp bytes overwritten with the fixed one) for both
// publish calls.
func TestGoldenPartitionRecords(t *testing.T) {
	tagged := appendPartitionRecord(appendSessionTag(nil, goldenPID, goldenSeq), goldenTS, goldenCols.Key(0), goldenCols.Val(0))
	if !bytes.Equal(tagged, unhex(t, goldenTagged)) {
		t.Fatalf("tagged record\n got %x\nwant %s", tagged, goldenTagged)
	}
	untagged := appendPartitionRecord(appendSessionTag(nil, 0, 0), goldenTS, goldenCols.Key(1), goldenCols.Val(1))
	if !bytes.Equal(untagged, unhex(t, goldenUntagged)) {
		t.Fatalf("untagged record\n got %x\nwant %s", untagged, goldenUntagged)
	}

	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("answer", goldenCols, goldenPID, goldenSeq); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("answer", goldenCols, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Publish("answer", goldenCols.Key(1), goldenCols.Val(1)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	w, err := wal.Open(filepath.Join(dir, "topic-answer", "p0000"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var journal [][]byte
	if err := w.Replay(0, func(_ uint64, payload []byte) error {
		journal = append(journal, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journal) != 5 {
		t.Fatalf("journal holds %d records, want 5", len(journal))
	}
	tsAt := map[int]int{0: sessionTagLen, 3: 0, 4: 0}
	want := map[int][]byte{0: tagged, 3: untagged, 4: untagged}
	for i, rec := range want {
		got := journal[i]
		if len(got) != len(rec) {
			t.Fatalf("journal record %d is %d bytes, want %d: %x", i, len(got), len(rec), got)
		}
		copy(got[tsAt[i]:tsAt[i]+8], rec[tsAt[i]:tsAt[i]+8])
		if !bytes.Equal(got, rec) {
			t.Fatalf("journal record %d\n got %x\nwant %x", i, got, rec)
		}
	}
}

// goldenFetchBroker returns a broker whose one-partition topic "t" holds
// a three-record columnar batch, a keyed Publish and a keyless Publish:
// three runs.
func goldenFetchBroker(tb testing.TB) *Broker {
	tb.Helper()
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		tb.Fatal(err)
	}
	cols := Columns{Count: 3, KeyLen: 4, ValLen: 3, Keys: []byte("k000k001k002"), Vals: []byte("v00v01v02")}
	if err := b.PublishColumns("t", cols, 0, 0); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := b.Publish("t", []byte("key"), []byte("value")); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := b.Publish("t", nil, []byte("keyless")); err != nil {
		tb.Fatal(err)
	}
	return b
}

// goldenFetch is the opFetch response to goldenFetchBroker's partition
// from offset 0: status | 3 runs, each u64 first offset | u64 unix-nanos
// | u32 keyLen | u32 valLen | u32 count | count × (key‖value).
const goldenFetch = "00" + "00000003" +
	"0000000000000000" + "0123456789abcdef" + "00000004" + "00000003" + "00000003" + "6b303030763030" + "6b303031763031" + "6b303032763032" +
	"0000000000000003" + "0123456789abcdef" + "00000003" + "00000005" + "00000001" + "6b6579" + "76616c7565" +
	"0000000000000004" + "0123456789abcdef" + "00000000" + "00000007" + "00000001" + "6b65796c657373"

// TestGoldenFetchResponse: the exact bytes a server answers a fetch of a
// partition holding a columnar batch, a keyed and a keyless record (each
// run's clock-drawn timestamp overwritten with a fixed one), and the
// client's decode of them: the records Broker.Fetch returns.
func TestGoldenFetchResponse(t *testing.T) {
	b := goldenFetchBroker(t)
	var req enc
	req.byte(opFetch)
	req.str("t")
	req.uint32(0)
	req.uint64(0)
	req.uint32(10)
	req.uint32(0)
	got := (&Server{broker: b}).handle(req.buf)
	want := unhex(t, goldenFetch)
	if len(got) != len(want) {
		t.Fatalf("response is %d bytes, want %d: %x", len(got), len(want), got)
	}
	for _, at := range []int{13, 62, 98} {
		copy(got[at:at+8], want[at:at+8])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fetch response\n got %x\nwant %s", got, goldenFetch)
	}

	recs, err := decodeFetch(&dec{buf: unhex(t, goldenFetch)[1:]}, "t", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := b.Fetch("t", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(fetched) {
		t.Fatalf("decoded %d records, the broker holds %d", len(recs), len(fetched))
	}
	for i, r := range recs {
		f := fetched[i]
		if r.Topic != f.Topic || r.Partition != f.Partition || r.Offset != f.Offset || !r.Timestamp.Equal(goldenTS) ||
			(r.Key == nil) != (f.Key == nil) || !bytes.Equal(r.Key, f.Key) || !bytes.Equal(r.Value, f.Value) {
			t.Errorf("record %d decodes as %+v, the broker holds %+v", i, r, f)
		}
	}
}

// FuzzPartitionRecord drives the partition-WAL record decoder — the
// bytes a restarting broker reads back from disk, session tag included —
// with arbitrary payloads: it must never panic, must never yield a
// tagged record with a zero producer id, and whatever it accepts must
// re-encode to exactly the bytes it was given.
func FuzzPartitionRecord(f *testing.F) {
	for _, s := range []string{goldenTagged, goldenUntagged} {
		b, err := hex.DecodeString(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{sessionTag})
	f.Add(append([]byte{sessionTag}, make([]byte, 28)...))                  // zero pid
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 'k', 'v'}) // key length past the end

	f.Fuzz(func(t *testing.T, payload []byte) {
		ts, key, value, pid, seq, err := decodePartitionRecord(payload)
		if err != nil {
			if !errors.Is(err, ErrDurable) {
				t.Fatalf("decode error %v does not wrap ErrDurable", err)
			}
			return
		}
		if tagged := payload[0] == sessionTag; tagged != (pid != 0) {
			t.Fatalf("tag byte %#x decoded to producer id %d", payload[0], pid)
		}
		if pid == 0 && seq != 0 {
			t.Fatalf("untagged record carries sequence %d", seq)
		}
		if again := appendPartitionRecord(appendSessionTag(nil, pid, seq), ts, key, value); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded record\n got %x\nwant %x", again, payload)
		}
	})
}
