package pubsub

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privapprox/internal/wal"
)

// goldenFrame was captured from the tree before the row-batch,
// unsessioned-columnar and feature-probe opcodes were deleted (the
// request the client's sessioned columnar publish wrote): byte-identity
// to that output is what replaces the old-vs-new equivalence tests. The
// partition journal's run records were captured when the journal began
// writing one record per run.
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
	// runSession | pid | seq | timestamp | keyLen 4 | valLen 3 | two
	// records: goldenCols published under (goldenPID, goldenSeq).
	goldenSessionRun = "01" + "0102030405060708" + "1112131415161718" + "0123456789abcdef" + "00000004" + "00000003" +
		"6b303030763030" + "6b303031763031"
	// runPlain | timestamp | keyLen 4 | valLen 3 | one record: goldenCols'
	// second record published alone.
	goldenPlainRun = "00" + "0123456789abcdef" + "00000004" + "00000003" + "6b303031763031"
)

func unhex(t testing.TB, s string) []byte {
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

// TestGoldenPartitionRecords: the exact partition-journal bytes of a
// session-tagged and a plain run record — from the encoder under a fixed
// timestamp, and from a durable broker's journal (its clock-drawn
// timestamp bytes overwritten with the fixed one) for a sessioned and an
// unsessioned columnar batch, one record per batch, and a Publish: three
// frames covering offsets [0, 2), [2, 4) and [4, 5).
func TestGoldenPartitionRecords(t *testing.T) {
	run := func(pid, seq uint64, recs ...int) []byte {
		buf := appendRunRecord(nil, pid, seq, goldenTS.UnixNano(), goldenCols.KeyLen, goldenCols.ValLen)
		for _, i := range recs {
			buf = append(append(buf, goldenCols.Key(i)...), goldenCols.Val(i)...)
		}
		return buf
	}
	if got := run(goldenPID, goldenSeq, 0, 1); !bytes.Equal(got, unhex(t, goldenSessionRun)) {
		t.Fatalf("session run record\n got %x\nwant %s", got, goldenSessionRun)
	}
	if got := run(0, 0, 1); !bytes.Equal(got, unhex(t, goldenPlainRun)) {
		t.Fatalf("plain run record\n got %x\nwant %s", got, goldenPlainRun)
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
	var frames []string
	if err := w.Replay(0, func(lsn uint64, n int, payload []byte) error {
		got := bytes.Clone(payload)
		at := 1 // the timestamp follows the kind byte, and a session tag
		if got[0] == runSession {
			at += 16
		}
		copy(got[at:at+8], unhex(t, "0123456789abcdef"))
		frames = append(frames, fmt.Sprintf("%d+%d:%x", lsn, n, got))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"0+2:" + goldenSessionRun, fmt.Sprintf("2+2:%x", run(0, 0, 0, 1)), "4+1:" + goldenPlainRun}
	if strings.Join(frames, "\n") != strings.Join(want, "\n") {
		t.Fatalf("journal frames\n got %s\nwant %s", strings.Join(frames, "\n     "), strings.Join(want, "\n     "))
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

	d := wireReader(unhex(t, goldenFetch)[1:])
	runs, err := decodeFetch(&d, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := runRecords("t", 0, runs)
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

// FuzzPartitionRecord drives the partition-journal record decoder — the
// bytes a restarting broker reads back from disk, under a frame covering
// n offsets — with arbitrary records: it must never panic, must refuse
// with an error wrapping ErrDurable a run whose body is not n records of
// its strides, a session record with a zero producer id or an unknown
// kind byte, and whatever it accepts must re-encode to exactly the bytes
// it was given — through the encoder, and through a slab.
func FuzzPartitionRecord(f *testing.F) {
	session, plain := unhex(f, goldenSessionRun), unhex(f, goldenPlainRun)
	f.Add(session, uint32(2))
	f.Add(session[:len(session)/2], uint32(2))
	f.Add(session, uint32(3)) // count mismatch
	f.Add(plain, uint32(1))
	f.Add(plain[:len(plain)/2], uint32(1))
	f.Add([]byte{}, uint32(1))
	f.Add(append([]byte{runSession}, make([]byte, 32)...), uint32(1))                           // zero pid
	f.Add(append([]byte{0x02}, plain[1:]...), uint32(1))                                        // unknown kind
	f.Add(append([]byte{runPlain}, make([]byte, runHeaderLen)...), uint32(5))                   // five empty records
	f.Add(append([]byte{runPlain}, unhex(f, "0000000000000001ffffffff00000000")...), uint32(1)) // key length past the end

	f.Fuzz(func(t *testing.T, payload []byte, n uint32) {
		r, pid, seq, err := decodeRunRecord(payload, int(n))
		if err != nil {
			if !errors.Is(err, ErrDurable) {
				t.Fatalf("decode error %v does not wrap ErrDurable", err)
			}
			return
		}
		if session := payload[0] == runSession; session != (pid != 0) {
			t.Fatalf("kind %#x decoded to producer id %d", payload[0], pid)
		}
		if pid == 0 && seq != 0 {
			t.Fatalf("plain record carries sequence %d", seq)
		}
		if r.Count != int(n) {
			t.Fatalf("a frame of %d decodes to a run of %d", n, r.Count)
		}
		again := append(appendRunRecord(nil, pid, seq, r.Nanos, r.KeyLen, r.ValLen), r.Body...)
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded record\n got %x\nwant %x", again, payload)
		}
		if r.Count > 1024 {
			return
		}
		p := newPartitionLog()
		p.putRun(r)
		var body []byte
		p.each(0, p.count, func(sr Run) {
			if sr.Nanos != r.Nanos || sr.KeyLen != r.KeyLen || sr.ValLen != r.ValLen {
				t.Fatalf("slab run t=%d %d+%d, want t=%d %d+%d", sr.Nanos, sr.KeyLen, sr.ValLen, r.Nanos, r.KeyLen, r.ValLen)
			}
			body = append(body, sr.Body...)
		})
		if p.count != int64(r.Count) || !bytes.Equal(body, r.Body) {
			t.Fatalf("the slab holds %d records of %x, want %d of %x", p.count, body, r.Count, r.Body)
		}
	})
}
