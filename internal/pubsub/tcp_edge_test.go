package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Publish edge cases over the wire. ---

func TestTCPPublishNilAndEmptyKeys(t *testing.T) {
	b, _, cli := startServer(t)
	if err := cli.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Publish("t", nil, []byte("roundrobin")); err != nil {
		t.Fatal(err)
	}
	part, off, err := cli.Publish("t", []byte{}, []byte("emptykey"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.Fetch("t", part, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	// An empty (non-nil) key is hashed, not round-robined, and survives
	// the wire as zero-length.
	if len(recs) != 1 || len(recs[0].Key) != 0 || part != partitionForKey(nil, 2) {
		t.Errorf("empty-key record = %+v in partition %d", recs, part)
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
	_, srv, _ := startServer(t)
	cli, err := DialPool(srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.CreateTopic("t", 4); err != nil {
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
				if _, _, err := cli.Publish("t", key, []byte("v")); err != nil {
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
	_, srv, _ := startServer(t)
	cli, err := DialPool(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan []Record, 1)
	go func() {
		recs, err := cli.Fetch("t", 0, 0, 10, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- recs
	}()
	time.Sleep(30 * time.Millisecond) // let the fetch park server-side
	if _, _, err := cli.Publish("t", nil, []byte("unstick")); err != nil {
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
	_, _, cli := startServer(t)
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	// A 500µs wait on an empty partition must block (for its rounded-up
	// 1ms) instead of degrading into an instant non-blocking fetch. The
	// elapsed lower bound is what the old truncating code violated.
	start := time.Now()
	recs, err := cli.Fetch("t", 0, 0, 10, 500*time.Microsecond)
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
	d := &dec{buf: resp}
	status, err := d.byte()
	if err != nil {
		t.Fatal(err)
	}
	if status != 1 {
		t.Fatalf("status = %d, want error", status)
	}
	msg, err := d.str()
	if err != nil {
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
	cases := map[string][]byte{
		// opPublish with a key length pointing past the frame end.
		"truncated publish key": {opPublish, 0, 0, 0, 1, 't', 1, 0, 0, 0, 99},
		// opCreateTopic with a topic-name length but no bytes.
		"truncated topic name": {opCreateTopic, 0, 0, 0, 10},
		// opFetch cut off before the offset.
		"truncated fetch": {opFetch, 0, 0, 0, 1, 't', 0, 0, 0, 0},
		// opPublishColumns whose count promises more records than framed.
		"lying batch count": columnsFrame("t", 0, 0, 5, 1, 1, []byte("k"), []byte("v")),
		// opPublish with an invalid optional-key marker.
		"bad key marker": {opPublish, 0, 0, 0, 1, 't', 7},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			conn := rawConn(t, srv.Addr())
			if err := writeFrame(conn, payload); err != nil {
				t.Fatal(err)
			}
			msg := readStatusError(t, conn)
			if !strings.Contains(msg, "wire protocol error") && !strings.Contains(msg, "short frame") {
				t.Errorf("error = %q, want a wire protocol error", msg)
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
	_, srv, cli := startServer(t)
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := cli.Fetch("t", 0, 0, 10, 30*time.Second)
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
	_, srv, _ := startServer(t)
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := cli.Fetch("t", 0, 0, 10, 30*time.Second)
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
	_, _, cli := startServer(t)
	if err := cli.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := cli.PublishColumns("t", testCols(20, 1, 1), 0, 0); err != nil {
		t.Fatal(err)
	}
	c, err := NewTransportConsumer(cli, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.PollWait(100, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("polled %d records, want 20", len(recs))
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// A second consumer in the same group resumes past everything.
	c2, err := NewTransportConsumer(cli, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	recs, err = c2.Poll(100)
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
