package pubsub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Publish edge cases over the wire. ---

// TestTCPPublishNilAndEmptyKeys: a nil and an empty key are the same
// keyless record, routed by the hash of the empty key — both land in one
// partition, one after the other — and survive the wire as zero-length.
func TestTCPPublishNilAndEmptyKeys(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := publish(cli, "t", nil, []byte("nilkey")); err != nil {
		t.Fatal(err)
	}
	if err := publish(cli, "t", []byte{}, []byte("emptykey")); err != nil {
		t.Fatal(err)
	}
	part := partitionForKey(nil, 2)
	recs, err := fetch(b, "t", part, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != nil || recs[1].Key != nil ||
		string(recs[0].Value) != "nilkey" || string(recs[1].Value) != "emptykey" {
		t.Errorf("keyless records in partition %d = %+v", part, recs)
	}
}

func TestTCPPublishColumnsEmpty(t *testing.T) {
	_, _, cli := startServer(t)
	if err := cli.PublishColumns("missing", Columns{}, 0, 0); err != nil {
		t.Fatalf("empty batch = %v", err)
	}
}

func TestTCPPublishColumnsErrorPropagates(t *testing.T) {
	_, _, cli := startServer(t)
	if err := cli.PublishColumns("missing", testCols(1, 2, 2), 0, 0); !errors.Is(err, ErrNoTopic) {
		t.Errorf("missing-topic batch error = %v", err)
	}
}

// --- Pipelining and the connection pool. ---

func TestTCPPipelinedConcurrentRequests(t *testing.T) {
	b, srv, _ := startServer(t)
	cli, err := DialOptions(srv.Addr(), Options{Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const each = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := []byte(fmt.Sprintf("g%d-%d", g, i))
				if err := publish(cli, "t", key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for p := 0; p < 4; p++ {
		end, err := cli.EndOffset("t", p)
		if err != nil {
			t.Fatal(err)
		}
		total += int(end)
	}
	if total != goroutines*each {
		t.Errorf("total = %d, want %d", total, goroutines*each)
	}
}

// A blocking fetch parked on one pool connection must not stall a
// publish issued through the same Client.
func TestTCPPoolBlockingFetchDoesNotStallPublishes(t *testing.T) {
	b, srv, _ := startServer(t)
	cli, err := DialOptions(srv.Addr(), Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan []Record, 1)
	go func() {
		recs, err := fetch(cli, "t", 0, 0, 10, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- recs
	}()
	time.Sleep(30 * time.Millisecond) // let the fetch park server-side
	if err := publish(cli, "t", nil, []byte("unstick")); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 {
			t.Errorf("parked fetch = %v", recs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish did not unpark the blocking fetch")
	}
}

// --- Satellite: sub-millisecond waits must stay blocking. ---

func TestWaitToMillisRoundsUp(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Nanosecond, 1},
		{200 * time.Microsecond, 1},
		{999 * time.Microsecond, 1},
		{time.Millisecond, 1},
		{time.Millisecond + 1, 2},
		{1500 * time.Millisecond, 1500},
		{math.MaxInt64, math.MaxUint32},
	}
	for _, c := range cases {
		if got := waitToMillis(c.in); got != c.want {
			t.Errorf("waitToMillis(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestTCPSubMillisecondWaitBlocks(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	// A 500µs wait on an empty partition must block (for its rounded-up
	// 1ms) instead of degrading into an instant non-blocking fetch. The
	// elapsed lower bound is what the old truncating code violated.
	start := time.Now()
	recs, err := fetch(cli, "t", 0, 0, 10, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("records on empty topic: %v", recs)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Microsecond {
		t.Errorf("sub-ms wait returned after %v, want a blocking wait", elapsed)
	}
}

// --- Satellite: server error paths. ---

// rawConn dials the server for hand-rolled frames.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func readStatusError(t *testing.T, conn net.Conn) string {
	t.Helper()
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	d := wireReader(resp)
	if status := d.U8(); status != 1 {
		t.Fatalf("status = %d, want error", status)
	}
	msg := d.Str()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestTCPServerEmptyFrame(t *testing.T) {
	_, srv, _ := startServer(t)
	conn := rawConn(t, srv.Addr())
	if err := writeFrame(conn, nil); err != nil {
		t.Fatal(err)
	}
	if msg := readStatusError(t, conn); !strings.Contains(msg, "short frame") {
		t.Errorf("empty frame error = %q", msg)
	}
}

func TestTCPServerUnknownOpcode(t *testing.T) {
	_, srv, _ := startServer(t)
	conn := rawConn(t, srv.Addr())
	if err := writeFrame(conn, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if msg := readStatusError(t, conn); !strings.Contains(msg, "unknown opcode") {
		t.Errorf("unknown opcode error = %q", msg)
	}
	// The connection survives a bad opcode: a valid request still works.
	var e enc
	e.byte(opPartitions)
	e.str("missing")
	if err := writeFrame(conn, e.buf); err != nil {
		t.Fatal(err)
	}
	if msg := readStatusError(t, conn); !strings.Contains(msg, "no such topic") {
		t.Errorf("post-recovery error = %q", msg)
	}
}

func TestTCPServerShortPayloads(t *testing.T) {
	_, srv, _ := startServer(t)
	cases := map[string]struct {
		req  []byte
		want string
	}{
		// The retired topic creation: opcode 1 is unassigned, so a frame
		// cut off inside its topic name is refused as an unknown opcode.
		"truncated topic name": {[]byte{1, 0, 0, 0, 10}, "wire protocol error: unknown opcode 1"},
		// opFetch cut off before the offset.
		"truncated fetch": {[]byte{opFetch, 0, 0, 0, 1, 't', 0, 0, 0, 0}, "wire protocol error"},
		// opPublishColumns whose count promises more records than framed.
		"lying batch count": {columnsFrame("t", 0, 0, 5, 1, 1, []byte("k"), []byte("v")), "wire protocol error"},
		// The retired single-record publish: opcode 2 is unassigned, so
		// a well-formed frame and the two malformed ones the old decoder
		// refused are all refused as an unknown opcode.
		"retired publish opcode": {[]byte{2, 0, 0, 0, 1, 't', 0, 0, 0, 0, 1, 'v'}, "wire protocol error: unknown opcode 2"},
		// A key length pointing past the frame end.
		"truncated publish key": {[]byte{2, 0, 0, 0, 1, 't', 1, 0, 0, 0, 99}, "wire protocol error: unknown opcode 2"},
		// An invalid optional-key marker.
		"bad key marker": {[]byte{2, 0, 0, 0, 1, 't', 7}, "wire protocol error: unknown opcode 2"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			conn := rawConn(t, srv.Addr())
			if err := writeFrame(conn, tc.req); err != nil {
				t.Fatal(err)
			}
			if msg := readStatusError(t, conn); !strings.Contains(msg, tc.want) {
				t.Errorf("error = %q, want %q", msg, tc.want)
			}
			// The connection keeps serving: a valid request still works.
			var e enc
			e.byte(opPartitions)
			e.str("missing")
			if err := writeFrame(conn, e.buf); err != nil {
				t.Fatal(err)
			}
			if msg := readStatusError(t, conn); !strings.Contains(msg, "no such topic") {
				t.Errorf("after the refused frame: error = %q, want no such topic", msg)
			}
		})
	}
}

func TestTCPServerOversizedFrameClosesConn(t *testing.T) {
	_, srv, _ := startServer(t)
	conn := rawConn(t, srv.Addr())
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The stream cannot be resynchronized, so the server must hang up
	// rather than answer.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != io.EOF {
		t.Errorf("read after oversized frame = %v, want EOF", err)
	}
}

func TestTCPServerCloseDuringInflightWaitFetch(t *testing.T) {
	b, srv, cli := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := fetch(cli, "t", 0, 0, 10, 30*time.Second)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the fetch park server-side
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Close must not be pinned for the fetch's full 30s timeout: the
	// server-side wait is sliced and observes the close promptly.
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close stuck behind an in-flight WaitFetch")
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Error("in-flight WaitFetch returned no error after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight WaitFetch never returned after Close")
	}
}

func TestTCPClientCloseFailsOutstandingRequests(t *testing.T) {
	b, srv, _ := startServer(t)
	cli, err := DialOptions(srv.Addr(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := fetch(cli, "t", 0, 0, 10, 30*time.Second)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cli.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("outstanding request survived client Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("outstanding request never unblocked after client Close")
	}
}

// --- Transport symmetry: consumers run unchanged over TCP. ---

func TestTransportConsumerOverTCP(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := cli.PublishColumns("t", testCols(20, 1, 1), 0, 0); err != nil {
		t.Fatal(err)
	}
	c, err := NewConsumer(cli, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := c.PollRuns(100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(runRecords("t", 0, runs)); n != 20 {
		t.Fatalf("polled %d records, want 20", n)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second consumer in the same group resumes past everything.
	c2, err := NewConsumer(cli, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c2.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("committed consumer re-read %d records", len(recs))
	}
	lag, err := c2.Lag()
	if err != nil || lag != 0 {
		t.Errorf("Lag = %d, %v", lag, err)
	}
}

// namedFrame is a request frame and what it asks for.
type namedFrame struct {
	name string
	req  []byte
}

// requestFrames returns one valid request frame per opcode, against a
// broker holding topic "t" with one partition and a record at offset 0;
// applied in order, each succeeds.
func requestFrames() []namedFrame {
	frame := func(op byte, fields func(e *enc)) []byte {
		var e enc
		e.byte(op)
		fields(&e)
		return e.buf
	}
	return []namedFrame{
		{"publish columns", columnsFrame("t", 7, 1, 2, 1, 1, []byte("ab"), []byte("cd"))},
		{"fetch", frame(opFetch, func(e *enc) {
			e.str("t")
			e.uint32(0)
			e.uint64(0)
			e.uint32(10)
			e.uint32(0)
		})},
		{"end offset", frame(opEndOffset, func(e *enc) { e.str("t"); e.uint32(0) })},
		{"committed", frame(opCommitted, func(e *enc) { e.str("g"); e.str("t"); e.uint32(0) })},
		{"partitions", frame(opPartitions, func(e *enc) { e.str("t") })},
		{"commit", frame(opCommit, func(e *enc) {
			e.str("g")
			e.str("t")
			e.uint32(0)
			e.uint64(1)
		})},
	}
}

// TestTCPServerRefusesTrailingBytes: the server accepts exactly the
// frames a client writes. Each opcode's request with one byte after its
// fields is refused with a wire protocol error and applies nothing, and
// the same request without the byte then succeeds.
func TestTCPServerRefusesTrailingBytes(t *testing.T) {
	b, srv, _ := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := publish(b, "t", nil, []byte("r0")); err != nil {
		t.Fatal(err)
	}
	conn := rawConn(t, srv.Addr())
	for _, r := range requestFrames() {
		if err := writeFrame(conn, append(bytes.Clone(r.req), 0)); err != nil {
			t.Fatal(err)
		}
		if msg := readStatusError(t, conn); !strings.Contains(msg, "wire protocol error: 1 trailing bytes") {
			t.Errorf("%s with a trailing byte: %q, want a wire protocol error", r.name, msg)
		}
		if end, _ := b.EndOffset("t", 0); end != 1 || len(b.topicNames()) != 1 {
			t.Fatalf("%s with a trailing byte was applied: end offset %d, topics %v", r.name, end, b.topicNames())
		}
		if off, _ := b.CommittedOffset("g", "t", 0); off != 0 {
			t.Fatalf("%s with a trailing byte was applied: committed %d", r.name, off)
		}
	}
	for _, r := range requestFrames() {
		if got := srv.handle(r.req); len(got) == 0 || got[0] != 0 {
			t.Errorf("%s: status %x, want ok", r.name, got)
		}
	}
}

// TestTCPClientRefusesTrailingBytes: the client accepts exactly the
// replies a server writes. Against a server that appends one byte to
// every reply, each call fails with errWire.
func TestTCPClientRefusesTrailingBytes(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	srv := &Server{broker: b}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			req, err := readFrame(conn)
			if err != nil {
				return
			}
			if writeFrame(conn, append(srv.handle(req), 0xEE)) != nil {
				return
			}
		}
	}()
	cli, err := DialOptions(ln.Addr().String(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	calls := map[string]func() error{
		"publish": func() error {
			err := publish(cli, "t", nil, []byte("v"))
			return err
		},
		"publish columns": func() error { return cli.PublishColumns("t", testCols(2, 1, 1), 0, 0) },
		"fetch": func() error {
			_, err := fetch(cli, "t", 0, 0, 10, 0)
			return err
		},
		"end offset": func() error {
			_, err := cli.EndOffset("t", 0)
			return err
		},
		"commit": func() error { return cli.CommitOffset("g", "t", 0, 1) },
		"committed": func() error {
			_, err := cli.CommittedOffset("g", "t", 0)
			return err
		},
		"partitions": func() error {
			_, err := cli.Partitions("t")
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, errWire) {
			t.Errorf("%s against a reply with a trailing byte: %v, want ErrWire", name, err)
		}
	}
}

// FuzzServerRequest drives Server.respond with arbitrary request frames
// against an in-memory broker holding a two-partition topic with a
// record in it. It must never panic and must answer with a status frame,
// and every error it answers must come back through wireError as errWire
// or another broker sentinel. A frame whose opcode is unassigned — the
// retired topic creation (1) and single-record publish (2) among them —
// is refused as that unknown opcode, whatever follows it.
func FuzzServerRequest(f *testing.F) {
	for _, r := range requestFrames() {
		f.Add(r.req)
		f.Add(append(bytes.Clone(r.req), 0))
		f.Add(r.req[:len(r.req)-1])
	}
	// The retired topic creation, asking for 2²⁴ partitions.
	var e enc
	e.byte(1)
	e.str("huge-part")
	e.uint32(1 << 24)
	f.Add(e.buf) // 18 bytes
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	// The retired single-record publish, and the retired topic creation
	// as its client wrote it: whole, with a trailing byte, and cut short.
	for _, retired := range [][]byte{
		{2, 0, 0, 0, 1, 't', 0, 0, 0, 0, 1, 'v'},
		{1, 0, 0, 0, 3, 'n', 'e', 'w', 0, 0, 0, 1},
	} {
		f.Add(retired)
		f.Add(append(bytes.Clone(retired), 0))
		f.Add(retired[:len(retired)-1])
	}
	assigned := []byte{opFetch, opEndOffset, opCommit, opCommitted, opPartitions, opPublishColumns}
	f.Fuzz(func(t *testing.T, req []byte) {
		b := NewBroker()
		if err := b.CreateTopic("t", 2); err != nil {
			t.Fatal(err)
		}
		if err := publish(b, "t", nil, []byte("r0")); err != nil {
			t.Fatal(err)
		}
		// A closed server ends a blocking fetch after one wait slice.
		srv := &Server{broker: b, closed: true}
		d := wireReader(srv.handle(req))
		unassigned := len(req) > 0 && !slices.Contains(assigned, req[0])
		switch status := d.U8(); status {
		case 0:
			if unassigned {
				t.Fatalf("opcode %d answered ok", req[0])
			}
		case 1:
			msg := d.Str()
			if err := d.Done(); err != nil {
				t.Fatalf("error reply: %v", err)
			}
			err := wireError(msg)
			if !slices.ContainsFunc(wireSentinels, func(s error) bool { return errors.Is(err, s) }) {
				t.Fatalf("error reply %q maps to no sentinel", msg)
			}
			if unassigned {
				if want := fmt.Sprintf("wire protocol error: unknown opcode %d", req[0]); !strings.HasSuffix(msg, want) {
					t.Fatalf("opcode %d: error reply %q, want %q", req[0], msg, want)
				}
			}
		default:
			t.Fatalf("reply status %d", status)
		}
	})
}
