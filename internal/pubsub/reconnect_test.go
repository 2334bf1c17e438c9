package pubsub

import (
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// waitConnDead polls until cc has detached its connection (the read
// loop noticed the death) or the deadline passes. Given the connection
// the test closed, it also returns once a request has redialed cc since.
func waitConnDead(t *testing.T, cc *clientConn, closed net.Conn) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		cc.mu.Lock()
		dead := cc.conn == nil || (closed != nil && cc.conn != closed)
		cc.mu.Unlock()
		if dead {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never detected as dead")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconnectAfterServerRestart: a client survives its server going
// away and coming back on the same address — requests during the outage
// fail (ambiguously if in flight, plainly if the dial fails), and the
// first request after the restart redials and succeeds without a new
// Client.
func TestReconnectAfterServerRestart(t *testing.T) {
	b := NewBroker()
	t.Cleanup(b.Close)
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli, err := DialOptions(addr, Options{Conns: 1, RedialBackoff: time.Millisecond, RedialBackoffMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitConnDead(t, cli.conns[0], nil)

	srv2, err := Serve(b, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	// The redial backoff window from any failed attempt is short; a few
	// tries must get through.
	var lastErr error
	for i := 0; i < 50; i++ {
		if lastErr = publish(cli, "t", []byte("k"), []byte("v")); lastErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("publish never succeeded after restart: %v", lastErr)
	}
	if end, err := cli.EndOffset("t", 0); err != nil || end != 1 {
		t.Fatalf("EndOffset = %d, %v; want 1", end, err)
	}
}

// TestInFlightFailsAmbiguous: a request that reached the wire before
// the connection died must fail wrapping ErrAmbiguous — the caller
// cannot know whether the broker applied it.
func TestInFlightFailsAmbiguous(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()
	cli, err := DialOptions(ln.Addr().String(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	srvConn := <-accepted
	// Sever the connection after the request frame arrives, before any
	// response: the client's waiter must observe ErrAmbiguous.
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := srvConn.Read(buf); err != nil {
				return
			}
			srvConn.Close()
			return
		}
	}()
	err = publish(cli, "t", []byte("k"), []byte("v"))
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("in-flight failure: %v, want ErrAmbiguous", err)
	}
}

// TestFetchArenaHandoff: a TCP fetch reads its reply into the caller's
// memory, and the caller gets that memory back only once nothing writes
// it any more. A fake server answers the first fetch with a malformed
// reply, which must leave the caller's runs and memory as they were.
// It answers the next fetch with a frame header and half its body, and
// once the client's reader has taken the fetch's waiter off the queue,
// the reply dies: the server kills the connection, or the client is
// closed. The fetch must fail, and the caller must get its memory back
// unchanged. The test then writes over all of it, which under -race
// (make race) catches a reader that still fills it.
func TestFetchArenaHandoff(t *testing.T) {
	for _, death := range []string{"server kill", "client close"} {
		t.Run(death, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			halfSent, kill := make(chan struct{}), make(chan struct{})
			served := make(chan struct{})
			go func() {
				defer close(served)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := readFrame(conn); err != nil {
					return
				}
				// status 0, one run and nothing behind it
				if writeFrame(conn, []byte{0, 0, 0, 0, 1}) != nil {
					return
				}
				if _, err := readFrame(conn); err != nil {
					return
				}
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], 1000)
				if _, err := conn.Write(append(hdr[:], make([]byte, 500)...)); err != nil {
					return
				}
				close(halfSent)
				<-kill
			}()
			cli, err := DialOptions(ln.Addr().String(), Options{Conns: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cli.Close() })

			mem := append(make([]byte, 0, 4096), "prior"...)
			runs := []Run{{Offset: 7, Count: 1, ValLen: 5, Body: mem[:5:5]}}
			gotRuns, gotMem, err := cli.FetchWait("t", 0, 8, 10, 0, runs, mem)
			if !errors.Is(err, ErrWire) || len(gotRuns) != 1 || gotRuns[0].Offset != 7 ||
				string(gotMem) != "prior" || unsafe.SliceData(gotMem) != unsafe.SliceData(mem) {
				t.Fatalf("a malformed reply = %d runs, mem %q, %v; want the prior run and memory back and ErrWire", len(gotRuns), gotMem, err)
			}

			type fetched struct {
				mem []byte
				err error
			}
			done := make(chan fetched, 1)
			go func() {
				_, mem, err := cli.FetchWait("t", 0, 8, 10, 0, runs, mem)
				done <- fetched{mem, err}
			}()
			<-halfSent
			for cli.conns[0].pending() > 0 {
				time.Sleep(time.Millisecond)
			}
			if death == "server kill" {
				close(kill)
			} else {
				cli.Close()
				close(kill)
			}
			var f fetched
			select {
			case f = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("a fetch whose reply died never returned")
			}
			if !errors.Is(f.err, ErrAmbiguous) || string(f.mem) != "prior" {
				t.Fatalf("a reply that died mid-body = mem %q, %v; want the prior memory back and ErrAmbiguous", f.mem, f.err)
			}
			whole := f.mem[:cap(f.mem)]
			for i := range whole {
				whole[i] = 'Z'
			}
			<-served
			if i := slices.IndexFunc(whole, func(b byte) bool { return b != 'Z' }); i >= 0 {
				t.Fatalf("byte %d of the caller's memory changed after the fetch returned", i)
			}
		})
	}
}

// TestDialFailureIsUnambiguous: when no connection can be established,
// nothing reached the wire, so the error must NOT claim ambiguity.
func TestDialFailureIsUnambiguous(t *testing.T) {
	b := NewBroker()
	t.Cleanup(b.Close)
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialOptions(srv.Addr(), Options{Conns: 1, RedialBackoff: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitConnDead(t, cli.conns[0], nil)
	// First attempt dials (refused — plain error); an immediate second
	// attempt is inside the backoff window and fails fast.
	err = publish(cli, "t", []byte("k"), []byte("v"))
	if err == nil || errors.Is(err, ErrAmbiguous) {
		t.Fatalf("dial failure: %v, want a plain (unambiguous) error", err)
	}
	err = publish(cli, "t", []byte("k"), []byte("v"))
	if err == nil || !strings.Contains(err.Error(), "backing off") {
		t.Fatalf("within backoff window: %v, want fast redial-backoff failure", err)
	}
	if errors.Is(err, ErrAmbiguous) {
		t.Fatalf("backoff failure claims ambiguity: %v", err)
	}
}

// TestLazyDialComesUpWithServerDown: with LazyDial a client is usable
// before its server exists — requests fail fast (plainly, under
// backoff) while it's down, and succeed via on-demand redial once it
// arrives. Without LazyDial the same dial fails outright.
func TestLazyDialComesUpWithServerDown(t *testing.T) {
	// Reserve an address with no listener behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	if _, err := DialOptions(addr, Options{Conns: 1}); err == nil {
		t.Fatal("eager dial to a dead address succeeded")
	}
	cli, err := DialOptions(addr, Options{Conns: 1, LazyDial: true, RedialBackoff: time.Millisecond, RedialBackoffMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("lazy dial to a dead address failed: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := publish(cli, "t", []byte("k"), []byte("v")); err == nil {
		t.Fatal("publish with server still down succeeded")
	} else if errors.Is(err, ErrAmbiguous) {
		t.Fatalf("nothing reached the wire, yet error claims ambiguity: %v", err)
	}

	b := NewBroker()
	t.Cleanup(b.Close)
	srv, err := Serve(b, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 50; i++ {
		if _, lastErr = cli.Partitions("t"); lastErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("lazy client never recovered once the server came up: %v", lastErr)
	}
	if err := publish(cli, "t", []byte("k"), []byte("v")); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
}

// TestDialPoolSurvivesConnDeath is the regression test for the dead-
// pool-member bug: one pool connection dies mid-pipeline and every
// subsequent request must keep succeeding — first routed around the
// corpse while other conns live, and via on-demand redial once the
// whole pool is down.
func TestDialPoolSurvivesConnDeath(t *testing.T) {
	b := NewBroker()
	t.Cleanup(b.Close)
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialOptions(srv.Addr(), Options{Conns: 3, RedialBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}

	// Publish through a producer session while a goroutine murders one
	// connection mid-stream: the batches in flight on the dying conn
	// fail ambiguously and the producer's retry lands them exactly once.
	prod := NewProducer(cli, RetryPolicy{Attempts: 8, Backoff: time.Millisecond})
	var wg sync.WaitGroup
	var killed net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		cc := cli.conns[0]
		cc.mu.Lock()
		killed = cc.conn
		cc.mu.Unlock()
		if killed != nil {
			killed.Close()
		}
	}()
	const batches, per = 40, 5
	for i := 0; i < batches; i++ {
		if err := prod.PublishColumns("t", sessionCols(byte('0'+i), per)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	wg.Wait()
	// The killer closed conns[0] behind the pool's back: until its reader
	// marks it dead, pick may still route topicEnd's requests onto it, and
	// they fail as ambiguous.
	waitConnDead(t, cli.conns[0], killed)
	if end := topicEnd(t, cli, "t"); end != batches*per {
		t.Fatalf("topic holds %d records, want %d (exactly-once through conn death)", end, batches*per)
	}

	// Kill every connection: the next request has no live conn to prefer
	// and must redial on demand.
	for _, cc := range cli.conns {
		cc.mu.Lock()
		conn := cc.conn
		cc.mu.Unlock()
		if conn != nil {
			conn.Close()
			waitConnDead(t, cc, conn)
		}
	}
	var lastErr error
	for i := 0; i < 50; i++ {
		if _, lastErr = cli.Partitions("t"); lastErr == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("whole-pool redial never recovered: %v", lastErr)
	}
}

// TestPickPrefersLiveConns: with one member down, no request may be
// routed onto the corpse while siblings live (the pre-fix behavior sent
// it the least-loaded share of traffic, which all failed).
func TestPickPrefersLiveConns(t *testing.T) {
	b := NewBroker()
	t.Cleanup(b.Close)
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialOptions(srv.Addr(), Options{Conns: 2, RedialBackoff: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cc := cli.conns[0]
	cc.mu.Lock()
	conn := cc.conn
	cc.mu.Unlock()
	conn.Close()
	waitConnDead(t, cc, conn)
	// With a one-minute redial backoff the dead conn cannot recover
	// during the loop, so any request routed to it would fail.
	for i := 0; i < 100; i++ {
		if err := publish(cli, "t", []byte("k"), []byte("v")); err != nil {
			t.Fatalf("publish %d routed to the dead conn: %v", i, err)
		}
	}
}
