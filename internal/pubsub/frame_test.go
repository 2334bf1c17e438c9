package pubsub

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// writeFrame writes payload as one frame, length prefix and body in one
// write, as the client and server do.
func writeFrame(w io.Writer, payload []byte) error {
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, frameHeader+len(payload)), uint32(len(payload)))
	_, err := w.Write(append(frame, payload...))
	return err
}

// readFrame reads one frame into a buffer of its own, unbuffered, so a
// test can hand the rest of the stream to another reader.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrWire, n)
	}
	return appendFrameBody(r, nil, int(n))
}

// pipeClient is a one-connection Client over net.Pipe, whose writes
// reach the other end exactly as they were cut; the test plays the
// server on the returned end.
func pipeClient(t *testing.T) (*Client, net.Conn) {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	c := &Client{opts: Options{}.withDefaults()}
	cc := &clientConn{addr: "pipe", opts: &c.opts, jitter: &c.jitter, conn: cliEnd}
	c.conns = []*clientConn{cc}
	go cc.readLoop(cliEnd)
	t.Cleanup(func() {
		c.Close()
		srvEnd.Close()
	})
	return c, srvEnd
}

// pipeServer serves b on one end of a net.Pipe and returns the other,
// whose writes reach the server exactly as they were cut.
func pipeServer(t *testing.T, b *Broker) net.Conn {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	srv := &Server{broker: b}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serve(srvEnd, make(names))
		srvEnd.Close()
	}()
	t.Cleanup(func() {
		cliEnd.Close()
		<-done
	})
	return cliEnd
}

// framed returns body behind its length prefix.
func framed(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// endOffsetRequest is the body of an opEndOffset request.
func endOffsetRequest(topic string, part uint32) []byte {
	var e enc
	e.byte(opEndOffset)
	e.str(topic)
	e.uint32(part)
	return e.buf
}

// TestFramesSplitAtEveryByte cuts a request frame, then a reply frame,
// at every byte boundary — the length prefix included — into two
// writes: the server answers the request and the client reads the
// reply as if each had arrived whole.
func TestFramesSplitAtEveryByte(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		b := NewBroker()
		defer b.Close()
		if err := b.CreateTopic("t", 2); err != nil {
			t.Fatal(err)
		}
		if err := publish(b, "t", nil, []byte("r0")); err != nil {
			t.Fatal(err)
		}
		body := endOffsetRequest("t", 0)
		want := (&Server{broker: b}).handle(body)
		conn := pipeServer(t, b)
		frame := framed(body)
		for k := 1; k < len(frame); k++ {
			for _, part := range [][]byte{frame[:k], frame[k:]} {
				if _, err := conn.Write(part); err != nil {
					t.Fatal(err)
				}
			}
			got, err := readFrame(conn)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("request cut at byte %d: reply %x (%v), want %x", k, got, err, want)
			}
		}
	})
	t.Run("reply", func(t *testing.T) {
		cli, conn := pipeClient(t)
		reply := framed(binary.BigEndian.AppendUint64([]byte{0}, 0x0102030405060708))
		served := make(chan error, 1)
		go func() {
			for k := 1; k < len(reply); k++ {
				if _, err := readFrame(conn); err != nil {
					served <- err
					return
				}
				for _, part := range [][]byte{reply[:k], reply[k:]} {
					if _, err := conn.Write(part); err != nil {
						served <- err
						return
					}
				}
			}
			served <- nil
		}()
		for k := 1; k < len(reply); k++ {
			if off, err := cli.EndOffset("t", 0); err != nil || off != 0x0102030405060708 {
				t.Fatalf("reply cut at byte %d: %#x, %v", k, off, err)
			}
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	})
}

// TestFramesCoalescedInOneWrite sends many frames in one write: the
// server answers each request in order, and the client matches each
// reply to its own request.
func TestFramesCoalescedInOneWrite(t *testing.T) {
	const n = 40
	t.Run("requests", func(t *testing.T) {
		b := NewBroker()
		defer b.Close()
		conn := pipeServer(t, b)
		if err := b.CreateTopic("t", 1); err != nil {
			t.Fatal(err)
		}
		var stream []byte
		for i := range n {
			var end enc
			end.byte(opEndOffset)
			end.str("t")
			end.uint32(0)
			stream = append(append(stream, framed(columnsFrame("t", 0, 0, 1, 0, 1, nil, []byte{byte(i)}))...), framed(end.buf)...)
		}
		written := make(chan error, 1)
		go func() {
			_, err := conn.Write(stream)
			written <- err
		}()
		for i := range n {
			if got, err := readFrame(conn); err != nil || !bytes.Equal(got, []byte{0}) {
				t.Fatalf("publish %d: reply %x, %v", i, got, err)
			}
			got, err := readFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			d := wireReader(got)
			if status, end := d.U8(), d.U64(); status != 0 || end != uint64(i+1) || d.Done() != nil {
				t.Fatalf("end offset after publish %d: reply %x, want %d", i, got, i+1)
			}
		}
		if err := <-written; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("replies", func(t *testing.T) {
		cli, conn := pipeClient(t)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if off, err := cli.EndOffset(fmt.Sprintf("t%d", i), 0); err != nil || off != int64(i) {
					t.Errorf("end offset of t%d = %d, %v; want %d", i, off, err, i)
				}
			}()
		}
		// Read every request, then answer them all in one write, each
		// with the number in its topic.
		var replies []byte
		for range n {
			req, err := readFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			d := wireReader(req)
			d.U8()
			var i uint64
			fmt.Sscanf(string(d.Bytes()), "t%d", &i)
			replies = append(replies, framed(binary.BigEndian.AppendUint64([]byte{0}, i))...)
		}
		if _, err := conn.Write(replies); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	})
}

// TestKilledConnRecyclesReplyChannels kills a connection with n requests
// in flight: each fails with ErrAmbiguous, exactly once, and every
// request after the redial gets its own reply — a second send to a
// waiter would sit in its recycled reply channel and hand a later round
// trip a stale result. Run it under -race -count=20.
func TestKilledConnRecyclesReplyChannels(t *testing.T) {
	const n, rounds = 16, 5
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	served := make(chan struct{})
	go func() {
		defer close(served)
		// The first connection takes n requests and dies unanswered.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for range n {
			if _, err := readFrame(conn); err != nil {
				break
			}
		}
		conn.Close()
		// The next answers every EndOffset with the number in its topic.
		if conn, err = ln.Accept(); err != nil {
			return
		}
		defer conn.Close()
		for {
			req, err := readFrame(conn)
			if err != nil {
				return
			}
			d := wireReader(req)
			d.U8()
			var i uint64
			fmt.Sscanf(string(d.Bytes()), "t%d", &i)
			if writeFrame(conn, binary.BigEndian.AppendUint64([]byte{0}, i)) != nil {
				return
			}
		}
	}()
	cli, err := DialOptions(ln.Addr().String(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		<-served
	})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.EndOffset(fmt.Sprintf("t%d", i), 0); !errors.Is(err, ErrAmbiguous) {
				t.Errorf("request %d in flight on a killed connection: %v, want ErrAmbiguous", i, err)
			}
		}()
	}
	wg.Wait()
	if p := cli.conns[0].pending(); p != 0 {
		t.Fatalf("%d waiters left on a failed connection", p)
	}
	for round := range rounds {
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				off, err := cli.EndOffset(fmt.Sprintf("t%d", i), 0)
				if err != nil || off != int64(i) {
					t.Errorf("round %d, request %d after the redial: %d, %v; want its own reply %d", round, i, off, err, i)
				}
			}()
		}
		wg.Wait()
	}
}

// TestTCPRoundTripZeroAllocs pins a round trip over loopback at zero
// allocations in steady state, client and server together: a fetch that
// finds nothing, a commit, an end-offset lookup and a publish of a fixed
// batch. A per-call reply channel, frame header or decoded name would
// each show here, where a per-answer ratio could hide it.
func TestTCPRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled reply channels and buffers at random")
	}
	b, _, cli := startServer(t)
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	cols := testCols(64, 16, 24)
	var (
		runs []Run
		mem  = make([]byte, 0, 4096)
		seq  uint64
	)
	calls := []struct {
		name string
		call func() error
	}{
		{"FetchWait finding nothing", func() error {
			end, err := b.EndOffset("answer", 0)
			if err != nil {
				return err
			}
			runs, mem, err = cli.FetchWait("answer", 0, end, 4096, 0, runs[:0], mem[:0])
			if err == nil && len(runs) != 0 {
				err = fmt.Errorf("%d runs past the end", len(runs))
			}
			return err
		}},
		{"CommitOffset", func() error {
			end, err := b.EndOffset("answer", 0)
			if err != nil {
				return err
			}
			return cli.CommitOffset("aggregator", "answer", 0, end)
		}},
		{"EndOffset", func() error {
			_, err := cli.EndOffset("answer", 0)
			return err
		}},
		{"PublishColumns", func() error {
			seq++
			return cli.PublishColumns("answer", cols, 1, seq)
		}},
	}
	for _, c := range calls {
		for range 50 {
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	for _, c := range calls {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := c.call(); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s over loopback allocates %.2f times per call, want 0", c.name, allocs)
		}
	}
}

// TestFrameGrowsWithArrivedBytes: a peer that sends a header claiming
// maxFrame, a few body bytes and then closes must not make the other end
// allocate the claimed size — on the server, and on the client.
func TestFrameGrowsWithArrivedBytes(t *testing.T) {
	const limit = 4 << 20
	liar := append(binary.BigEndian.AppendUint32(nil, maxFrame), "a few body bytes"...)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	t.Run("server", func(t *testing.T) {
		_, srv, _ := startServer(t)
		conn := rawConn(t, srv.Addr())
		got := allocated(func() {
			if _, err := conn.Write(liar); err != nil {
				t.Fatal(err)
			}
			conn.(*net.TCPConn).CloseWrite()
			// The server drops the connection once the body runs dry.
			if _, err := io.ReadAll(conn); err != nil {
				t.Fatal(err)
			}
		})
		if got >= limit {
			t.Errorf("the server allocated %d bytes for a frame of %d body bytes, want < %d", got, len(liar)-frameHeader, limit)
		}
	})
	t.Run("client", func(t *testing.T) {
		cli, conn := pipeClient(t)
		go func() {
			if _, err := readFrame(conn); err == nil {
				conn.Write(liar)
			}
			conn.Close()
		}()
		var err error
		got := allocated(func() { _, err = cli.EndOffset("t", 0) })
		if !errors.Is(err, ErrAmbiguous) {
			t.Fatalf("a reply cut short: %v, want ErrAmbiguous", err)
		}
		if got >= limit {
			t.Errorf("the client allocated %d bytes for a reply of %d body bytes, want < %d", got, len(liar)-frameHeader, limit)
		}
	})
}

// FuzzServeStream writes an arbitrary byte stream into a served
// connection, cut into writes at arbitrary points. The server must never
// panic. It must answer every whole frame in order — each reply the one
// a server that was handed the frames one by one gives — up to a length
// prefix above maxFrame, where it closes the connection, and its name
// table must stay within its cap. Replies are compared by status and
// length, and error replies byte for byte: a fetch reply carries publish
// timestamps, and a blocking fetch's outcome depends on the clock, so
// its reply is only read.
func FuzzServeStream(f *testing.F) {
	var stream []byte
	for _, r := range requestFrames() {
		stream = append(stream, framed(r.req)...)
	}
	f.Add(stream, []byte{0})
	f.Add(stream, []byte{2, 250, 6})
	f.Add(stream[:len(stream)-3], []byte{})
	f.Add(append(framed(endOffsetRequest("t", 0)), binary.BigEndian.AppendUint32(nil, maxFrame+1)...), []byte{1})
	var many []byte
	for i := range maxNames + 8 {
		many = append(many, framed(endOffsetRequest(fmt.Sprintf("n%d", i), 0))...)
	}
	f.Add(many, []byte{40})
	newBroker := func(t *testing.T) *Broker {
		b := NewBroker()
		t.Cleanup(b.Close)
		if err := b.CreateTopic("t", 1); err != nil {
			t.Fatal(err)
		}
		if err := publish(b, "t", nil, []byte("r0")); err != nil {
			t.Fatal(err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var frames [][]byte
		for rest := stream; len(rest) >= frameHeader; {
			n := binary.BigEndian.Uint32(rest)
			if n > maxFrame || len(rest)-frameHeader < int(n) {
				break
			}
			frames = append(frames, rest[frameHeader:frameHeader+int(n)])
			rest = rest[frameHeader+int(n):]
		}
		// Closed servers end a blocking fetch after one wait slice.
		srv := &Server{broker: newBroker(t), closed: true}
		ref := &Server{broker: newBroker(t), closed: true}
		cliEnd, srvEnd := net.Pipe()
		table := make(names)
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serve(srvEnd, table)
			srvEnd.Close()
		}()
		go func() {
			for i, rest := 0, stream; len(rest) > 0; i++ {
				n := len(rest)
				if len(cuts) > 0 {
					n = min(n, int(cuts[i%len(cuts)])+1)
				}
				if _, err := cliEnd.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
		}()
		for i, frame := range frames {
			got, err := readFrame(cliEnd)
			if err != nil {
				t.Fatalf("frame %d of %d unanswered: %v", i, len(frames), err)
			}
			want := ref.handle(frame)
			d := wireReader(frame)
			blocking := d.U8() == opFetch && func() bool { d.Bytes(); d.U32(); d.U64(); d.U32(); return d.U32() > 0 }()
			switch {
			case len(got) == 0 || got[0] > 1:
				t.Fatalf("frame %d: reply %x is no status frame", i, got)
			case blocking:
			case got[0] != want[0] || len(got) != len(want) || got[0] == 1 && !bytes.Equal(got, want):
				t.Fatalf("frame %d (%x): reply %x, want %x", i, frame, got, want)
			}
		}
		cliEnd.Close()
		<-served
		if len(table) > maxNames {
			t.Fatalf("a connection interned %d names, cap %d", len(table), maxNames)
		}
	})
}

// TestWaiterQueueReusesItsArray: the waiter queue stays FIFO while it is
// pushed and popped, a queue that never drains stays within twice its
// largest depth instead of growing with every request, and one that
// drains keeps its array for the next requests.
func TestWaiterQueueReusesItsArray(t *testing.T) {
	var cc clientConn
	tags := make([]chan connResult, 64)
	for i := range tags {
		tags[i] = make(chan connResult)
	}
	next, want := 0, 0
	push := func() {
		cc.push(waiter{ch: tags[next%len(tags)]})
		next++
	}
	pop := func() {
		w, ok := cc.pop()
		if !ok || w.ch != tags[want%len(tags)] {
			t.Fatalf("pop %d: got another waiter (ok %v)", want, ok)
		}
		want++
	}
	for range 3 {
		push()
	}
	for range 10_000 { // three in flight, never drained
		push()
		pop()
	}
	if cap(cc.queue) > 8 {
		t.Errorf("a queue three deep grew to %d slots", cap(cc.queue))
	}
	for range 3 {
		pop()
	}
	if _, ok := cc.pop(); ok || cc.head != 0 || len(cc.queue) != 0 {
		t.Fatalf("a drained queue: head %d, len %d", cc.head, len(cc.queue))
	}
	array := unsafe.SliceData(cc.queue[:1])
	push()
	if unsafe.SliceData(cc.queue) != array {
		t.Error("a drained queue dropped its array")
	}
}
