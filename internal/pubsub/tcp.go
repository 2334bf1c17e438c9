package pubsub

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/codec"
)

// Server exposes a Broker over TCP with the frame protocol in wire.go,
// so proxies and the aggregator can run as separate processes. Requests
// on one connection are handled strictly in order and answered in the
// same order — clients may pipeline any number of requests without
// waiting for responses, and match responses to requests FIFO.
type Server struct {
	broker *Broker
	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts serving the broker on addr (e.g. "127.0.0.1:0") and
// returns immediately; Addr reports the bound address.
func Serve(b *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pubsub: listen: %w", err)
	}
	s := &Server{broker: b, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections. Handlers blocked in a
// server-side blocking fetch observe the close within one wait slice, so
// Close returns promptly even with long client fetch timeouts in
// flight.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn answers one accepted connection until it fails or the
// server closes, then forgets it.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.serve(conn, make(names))
}

// serve answers conn's requests strictly in order: read → respond →
// write. Frames are read through one buffered reader per connection
// into one request buffer, and each reply is built behind its reserved
// length prefix and sent in one Write; the broker copies what it keeps
// of a request, so the two buffers serve the whole connection. Topic
// and group names resolve through names, the connection's intern table.
func (s *Server) serve(conn net.Conn, names names) {
	br := bufio.NewReader(conn)
	var req, resp []byte
	for {
		n, err := readFrameLen(br)
		if err != nil {
			// Includes oversized frames: the payload was never read, so
			// the stream cannot be resynchronized — drop the connection.
			return
		}
		if req, err = appendFrameBody(br, req[:0], n); err != nil {
			return
		}
		resp = s.respond(append(resp[:0], 0, 0, 0, 0), req, names)
		putFrameLen(resp)
		if _, err := conn.Write(resp); err != nil {
			return
		}
		// One outsized frame must not pin its buffer to an idle connection.
		if cap(req) > maxBatchBytes || cap(resp) > maxBatchBytes {
			req, resp = nil, nil
		}
	}
}

// maxNames caps a connection's intern table, and maxNameLen the names
// it keeps: past either, a name is allocated per request, so a peer
// cannot grow server memory through the names it sends.
const (
	maxNames   = 64
	maxNameLen = 256
)

// names interns the topic and group names one connection sends: a
// request for a known name reads it without allocating.
type names map[string]string

// str returns b as a string, the table's copy when it holds one. A nil
// table interns nothing.
func (t names) str(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if t != nil && len(t) < maxNames && len(s) <= maxNameLen {
		t[s] = s
	}
	return s
}

// respond answers one request frame, appending to resp: status 0 and
// the operation's results, or status 1 and the error text.
func (s *Server) respond(resp, req []byte, names names) []byte {
	e := &enc{buf: resp}
	d := wireReader(req)
	if err := s.dispatch(e, &d, names); err != nil {
		e.buf = resp
		e.byte(1)
		e.str(err.Error())
	}
	return e.buf
}

// dispatch decodes one request from d — its fields and nothing after
// them — applies it to the broker and, on success, encodes the ok
// response into e.
func (s *Server) dispatch(e *enc, d *codec.Reader, names names) error {
	op := d.U8()
	switch op {
	case opPublishColumns:
		// The lanes are views into the request frame; the broker copies
		// each record once into its slab, and validates the lane geometry
		// against the declared strides first, so a lying count or stride
		// is refused. The ack is the bare status byte.
		topic, pid, seq := names.str(d.Bytes()), d.U64(), d.U64()
		cols := Columns{Count: int(d.U32()), KeyLen: int(d.U32()), ValLen: int(d.U32()), Keys: d.Bytes(), Vals: d.Bytes()}
		if err := d.Done(); err != nil {
			return err
		}
		if err := s.broker.PublishColumns(topic, cols, pid, seq); err != nil {
			return err
		}
		e.byte(0)
	case opFetch:
		topic, part, off, max, waitMs := names.str(d.Bytes()), int(d.U32()), int64(d.U64()), int(d.U32()), d.U32()
		if err := d.Done(); err != nil {
			return err
		}
		if waitMs > 0 {
			if err := s.awaitRecord(topic, part, off, time.Duration(waitMs)*time.Millisecond); err != nil {
				return err
			}
		}
		return s.broker.encodeFetch(e, topic, part, off, max)
	case opEndOffset:
		topic, part := names.str(d.Bytes()), int(d.U32())
		if err := d.Done(); err != nil {
			return err
		}
		off, err := s.broker.EndOffset(topic, part)
		if err != nil {
			return err
		}
		e.byte(0)
		e.uint64(uint64(off))
	case opCommit:
		group, topic, part, off := names.str(d.Bytes()), names.str(d.Bytes()), int(d.U32()), int64(d.U64())
		if err := d.Done(); err != nil {
			return err
		}
		if err := s.broker.CommitOffset(group, topic, part, off); err != nil {
			return err
		}
		e.byte(0)
	case opCommitted:
		group, topic, part := names.str(d.Bytes()), names.str(d.Bytes()), int(d.U32())
		if err := d.Done(); err != nil {
			return err
		}
		off, err := s.broker.CommittedOffset(group, topic, part)
		if err != nil {
			return err
		}
		e.byte(0)
		e.uint64(uint64(off))
	case opPartitions:
		topic := names.str(d.Bytes())
		if err := d.Done(); err != nil {
			return err
		}
		n, err := s.broker.Partitions(topic)
		if err != nil {
			return err
		}
		e.byte(0)
		e.uint32(uint32(n))
	default:
		d.Fail("unknown opcode %d", op)
		return d.Err()
	}
	return nil
}

// awaitRecord is the server side of a blocking fetch: it returns once
// the partition holds a record at off or the wait has passed. The wait
// is sliced so a handler parked in the broker observes Server.Close
// within one slice instead of pinning Close for the client's full
// timeout.
func (s *Server) awaitRecord(topic string, part int, off int64, wait time.Duration) error {
	const slice = 20 * time.Millisecond
	deadline := time.Now().Add(wait)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		if remain > slice {
			remain = slice
		}
		if ok, err := s.broker.awaitRecord(topic, part, off, remain); err != nil || ok {
			return err
		}
		if s.isClosed() {
			return ErrClosed
		}
	}
}

// fetchRunHeaderLen is the head of a run in an opFetch response: u64
// first offset | u64 unix-nanos | u32 keyLen | u32 valLen | u32 count.
const fetchRunHeaderLen = 28

// encodeFetch appends the opFetch response for what FetchWait would
// append — status | u32 runs, then per run its header
// (fetchRunHeaderLen) and count × (key‖value) — straight from the slabs
// under the partition lock, each run's records in one copy.
func (b *Broker) encodeFetch(e *enc, topic string, partition int, offset int64, max int) error {
	e.byte(0)
	at := len(e.buf)
	e.uint32(0)
	return b.readSpan(topic, partition, offset, max, func(p *partitionLog, end int64) (size int) {
		runs := 0
		p.each(offset, end, func(r Run) {
			e.uint64(uint64(r.Offset))
			e.uint64(uint64(r.Nanos))
			e.uint32(uint32(r.KeyLen))
			e.uint32(uint32(r.ValLen))
			e.uint32(uint32(r.Count))
			e.buf = append(e.buf, r.Body...)
			size += len(r.Body)
			runs++
		})
		binary.BigEndian.PutUint32(e.buf[at:], uint32(runs))
		return size
	})
}

// ErrAmbiguous reports a request whose outcome is unknown: it was
// written (at least partially) to a connection that died before its
// response arrived. The broker may or may not have applied it. Blind
// retries of ambiguous publishes can double-publish; retry them only
// through an idempotent path (Producer sessions), or treat the data as
// possibly lost. Requests that failed before anything reached the wire
// (dial failure, closed client) return plain errors, never ErrAmbiguous.
var ErrAmbiguous = errors.New("pubsub: request outcome unknown")

// Options configures the TCP client transport. The zero value of every
// field selects a default: a 5 s dial timeout, 25 ms→1 s redial
// backoff, and no jitter.
type Options struct {
	// Conns is the connection pool size (1 when <= 0). Requests pick
	// the least-loaded connection, so blocking fetches and bulk
	// publishes spread out instead of queueing head-of-line.
	Conns int
	// DialTimeout bounds each dial attempt (initial and redials).
	DialTimeout time.Duration
	// RedialBackoff / RedialBackoffMax shape the capped exponential
	// backoff between redial attempts after a connection failure: while
	// a conn is backing off, requests routed to it fail fast with the
	// last dial error instead of stacking up behind a dial.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// Seed, when nonzero, enables deterministic jitter (±50%) on redial
	// backoff, so a fleet of clients does not redial in lockstep. Zero
	// keeps every delay fixed.
	Seed int64
	// LazyDial tolerates initial dial failures: the connection is kept
	// in its dead state (requests fail fast and redial on demand under
	// backoff) instead of failing DialOptions. Degraded-mode callers
	// use this to come up while a proxy is still down.
	LazyDial bool
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 25 * time.Millisecond
	}
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = time.Second
	}
	return o
}

// jitterState seeds the shared xorshift jitter stream; zero (no Seed)
// disables jitter.
func jitterState(seed int64) uint64 {
	if seed == 0 {
		return 0
	}
	// SplitMix64 scramble so nearby seeds give unrelated streams.
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// jitterDur spreads d over [d/2, 3d/2) using the shared xorshift state;
// a zero state returns d unchanged.
func jitterDur(state *atomic.Uint64, d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	for {
		old := state.Load()
		if old == 0 {
			return d
		}
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if state.CompareAndSwap(old, x) {
			return d/2 + time.Duration(x%uint64(d))
		}
	}
}

// Client is a remote handle on a broker served over TCP. It is safe for
// concurrent use and pipelines: a request is written and its response
// awaited without blocking other goroutines' requests, which flow on
// the same connections back to back. With Options.Conns > 1 requests
// spread over a small pool, so a server-side blocking fetch parked on
// one connection does not stall unrelated requests.
//
// Connections self-heal: when one dies, its in-flight requests fail
// with ErrAmbiguous (they were on the wire; the outcome is unknown) and
// the conn redials on the next request, with capped exponential backoff
// between failed dial attempts. Close is final — a closed client never
// redials.
type Client struct {
	conns []*clientConn
	rr    atomic.Uint64
	opts  Options
	// jitter is the shared xorshift state for redial-backoff jitter;
	// zero when Options.Seed is unset.
	jitter atomic.Uint64
}

// DialOptions connects to a broker server with the given transport
// options. Every connection is dialed eagerly, so an unreachable server
// fails the call rather than the first request.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{conns: make([]*clientConn, 0, opts.Conns), opts: opts}
	c.jitter.Store(jitterState(opts.Seed))
	for i := 0; i < opts.Conns; i++ {
		cc := &clientConn{addr: addr, opts: &c.opts, jitter: &c.jitter}
		if err := cc.redial(); err != nil && !opts.LazyDial {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, cc)
	}
	return c, nil
}

// Close closes all connections; outstanding requests fail and no
// connection redials afterwards.
func (c *Client) Close() error {
	var err error
	for _, cc := range c.conns {
		if e := cc.close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// clientConn is one pipelined connection: requests are framed under mu
// (which also fixes their FIFO position in queue), each in one Write,
// and a dedicated reader goroutine per live conn reads the reply frames
// through a buffered reader and matches each to the oldest waiter,
// taking the waiter off the queue before it reads the frame's body into
// the waiter's memory. The live waiters are queue[head:]: the reader
// pops by advancing head, and the queue restarts at [:0] when it drains,
// so a steady stream of round trips reuses one array. conn is nil
// between a failure and the next successful redial; the conn value
// doubles as a generation token so a stale reader (or a late fail) of a
// replaced conn cannot touch the new one's queue.
type clientConn struct {
	addr   string
	opts   *Options
	jitter *atomic.Uint64

	// dialMu serializes redials so only one goroutine dials while others
	// fail fast; it is never held together with mu across a blocking
	// call, so pick()/pending() stay responsive during a slow dial.
	dialMu sync.Mutex

	mu        sync.Mutex
	conn      net.Conn
	queue     []waiter
	head      int
	closed    bool
	lastErr   error
	dialFails int
	nextDial  time.Time
}

// waiter is one request on the wire awaiting its reply: the reply frame
// is appended to mem and delivered on ch.
//
// A queued waiter gets exactly one send on ch: from readLoop, once it
// has popped the waiter off the queue, or from fail or close, which take
// the whole queue under mu. Nothing else holds ch, so once roundTrip has
// made its one receive the channel is empty and unreferenced, and it
// goes back to replies for the next round trip.
type waiter struct {
	ch  chan connResult
	mem []byte
}

type connResult struct {
	resp []byte // the waiter's mem with the reply frame appended
	err  error
}

// replies recycles reply channels (see waiter).
var replies = sync.Pool{New: func() any { return make(chan connResult, 1) }}

func (cc *clientConn) pending() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.queue) - cc.head
}

// push queues w behind the live waiters. A full array whose head has
// moved on is compacted in place rather than grown, so a queue that
// never drains does not grow without bound. Caller holds cc.mu.
func (cc *clientConn) push(w waiter) {
	if len(cc.queue) == cap(cc.queue) && cc.head > 0 {
		n := copy(cc.queue, cc.queue[cc.head:])
		clear(cc.queue[n:])
		cc.queue, cc.head = cc.queue[:n], 0
	}
	cc.queue = append(cc.queue, w)
}

// pop takes the oldest live waiter off the queue, or reports there is
// none. Caller holds cc.mu.
func (cc *clientConn) pop() (waiter, bool) {
	if cc.head == len(cc.queue) {
		return waiter{}, false
	}
	w := cc.queue[cc.head]
	cc.queue[cc.head] = waiter{} // the queue must not pin the waiter's memory
	if cc.head++; cc.head == len(cc.queue) {
		cc.queue, cc.head = cc.queue[:0], 0
	}
	return w, true
}

// detach takes every live waiter off the queue, leaving the conn with a
// fresh one. Caller holds cc.mu.
func (cc *clientConn) detach() []waiter {
	waiters := cc.queue[cc.head:]
	cc.queue, cc.head = nil, 0
	return waiters
}

// fail retires one dead connection generation: if conn is still
// current, it is detached and closed, and every queued waiter — whose
// request was already on the wire — fails with ErrAmbiguous. A fail for
// a stale generation is a no-op.
func (cc *clientConn) fail(conn net.Conn, err error) {
	cc.mu.Lock()
	if cc.conn != conn {
		cc.mu.Unlock()
		return
	}
	cc.conn = nil
	cc.lastErr = err
	waiters := cc.detach()
	cc.mu.Unlock()
	conn.Close()
	werr := fmt.Errorf("%w: %v", ErrAmbiguous, err)
	for _, w := range waiters {
		w.ch <- connResult{err: werr}
	}
}

// close shuts the conn down for good: in-flight requests fail
// (ambiguously — they were written), and subsequent roundTrips return
// ErrClosed instead of redialing.
func (cc *clientConn) close() error {
	cc.mu.Lock()
	cc.closed = true
	conn := cc.conn
	cc.conn = nil
	waiters := cc.detach()
	cc.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	werr := fmt.Errorf("%w: %v", ErrAmbiguous, ErrClosed)
	for _, w := range waiters {
		w.ch <- connResult{err: werr}
	}
	return err
}

// redial establishes a fresh connection if none is live, honoring the
// backoff window: during the window it fails fast with the last error
// so callers (and their retry policies) pace themselves instead of
// stacking up behind a dial.
func (cc *clientConn) redial() error {
	cc.dialMu.Lock()
	defer cc.dialMu.Unlock()
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return ErrClosed
	}
	if cc.conn != nil {
		cc.mu.Unlock()
		return nil
	}
	if !cc.nextDial.IsZero() && time.Now().Before(cc.nextDial) {
		err := cc.lastErr
		cc.mu.Unlock()
		return fmt.Errorf("pubsub: %s: redial backing off: %w", cc.addr, err)
	}
	timeout := cc.opts.DialTimeout
	cc.mu.Unlock()
	conn, err := net.DialTimeout("tcp", cc.addr, timeout)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		if err == nil {
			conn.Close()
		}
		return ErrClosed
	}
	if err != nil {
		cc.dialFails++
		cc.lastErr = err
		cc.nextDial = time.Now().Add(cc.backoffLocked())
		return fmt.Errorf("pubsub: dial %s: %w", cc.addr, err)
	}
	cc.dialFails = 0
	cc.nextDial = time.Time{}
	cc.lastErr = nil
	cc.conn = conn
	go cc.readLoop(conn)
	return nil
}

// backoffLocked returns the next redial backoff: base << failures,
// capped, jittered. Caller holds cc.mu.
func (cc *clientConn) backoffLocked() time.Duration {
	d := cc.opts.RedialBackoff
	for i := 1; i < cc.dialFails && d < cc.opts.RedialBackoffMax; i++ {
		d *= 2
	}
	if d > cc.opts.RedialBackoffMax {
		d = cc.opts.RedialBackoffMax
	}
	return jitterDur(cc.jitter, d)
}

// readLoop matches the connection's reply frames to its waiters in
// order, reading them through one buffered reader. Once a frame's length
// has arrived, its waiter leaves the queue and only this loop wakes it —
// after the body has landed in its memory or the read has failed — so a
// concurrent fail or close can never release a waiter whose buffer is
// still being written.
func (cc *clientConn) readLoop(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		n, err := readFrameLen(br)
		if err != nil {
			cc.fail(conn, err)
			return
		}
		cc.mu.Lock()
		if cc.conn != conn {
			// A failure raced us and this generation is already retired;
			// the response matches a waiter that was failed. Drop it.
			cc.mu.Unlock()
			return
		}
		w, ok := cc.pop()
		cc.mu.Unlock()
		if !ok {
			cc.fail(conn, fmt.Errorf("%w: unsolicited response", ErrWire))
			return
		}
		resp, err := appendFrameBody(br, w.mem, n)
		if err != nil {
			w.ch <- connResult{err: fmt.Errorf("%w: %v", ErrAmbiguous, err)}
			cc.fail(conn, err)
			return
		}
		w.ch <- connResult{resp: resp}
	}
}

// roundTrip sends one request frame in one Write and appends its reply
// frame's body to mem. It returns a reader over the body of an ok reply
// and mem with the body appended; an error reply comes back as the
// error it carries. Once it returns, nothing writes mem. Its reply
// channel comes from replies and goes back there: roundTrip makes the
// one receive that empties it, or never queues it.
func (cc *clientConn) roundTrip(frame, mem []byte) (codec.Reader, []byte, error) {
	ch := replies.Get().(chan connResult)
	defer replies.Put(ch)
	cc.mu.Lock()
	for cc.conn == nil {
		if cc.closed {
			cc.mu.Unlock()
			return codec.Reader{}, mem, ErrClosed
		}
		cc.mu.Unlock()
		// Nothing has reached the wire yet, so a dial failure here is
		// unambiguous: the request was definitely not applied.
		if err := cc.redial(); err != nil {
			return codec.Reader{}, mem, err
		}
		cc.mu.Lock()
	}
	conn := cc.conn
	cc.push(waiter{ch: ch, mem: mem})
	_, err := conn.Write(frame)
	cc.mu.Unlock()
	if err != nil {
		// The request may be half-framed on the wire; this generation is
		// unusable. fail() wakes every queued waiter — including ours,
		// unless the reader already took it and wakes it itself — with
		// ErrAmbiguous (a concurrent failure may already have done so).
		cc.fail(conn, err)
	}
	r := <-ch
	if r.err != nil {
		return codec.Reader{}, mem, r.err
	}
	d := wireReader(r.resp[len(mem):])
	switch status := d.U8(); status {
	case 0:
		return d, r.resp, d.Err()
	case 1:
		msg := d.Str()
		if err := d.Done(); err != nil {
			return d, r.resp, err
		}
		return d, r.resp, wireError(msg)
	default:
		d.Fail("reply status %d", status)
		return d, r.resp, d.Err()
	}
}

// done is a bodiless reply: the bare ok status, nothing after it.
func done(d codec.Reader, err error) error {
	if err != nil {
		return err
	}
	return d.Done()
}

// wireSentinels are the broker errors re-attached on the client side of
// the TCP transport: the server serializes an error as its message
// string, and the matching sentinel is recovered by prefix so
// errors.Is keeps working across the wire — ErrPartitionFull so
// publishers can tell backpressure from a fatal error, ErrNoTopic so
// advisory publishers (lineage stamps) can tolerate a broker without
// their topic, ErrWire so a Producer never retries a frame the server
// rejected as malformed.
var wireSentinels = []error{
	ErrPartitionFull, ErrNoTopic, ErrTopicExists, ErrNoPartition, ErrBadOffset, ErrClosed, ErrWire,
}

func wireError(msg string) error {
	for _, s := range wireSentinels {
		text := s.Error()
		if msg == text {
			return s
		}
		if strings.HasPrefix(msg, text+":") {
			return fmt.Errorf("%w%s", s, msg[len(text):])
		}
	}
	return errors.New(msg)
}

// pick returns the live connection with the fewest in-flight requests,
// breaking ties round-robin. Dead conns (failed, awaiting redial) are
// passed over while any live conn exists, so one dead pool member never
// swallows least-loaded traffic; with the whole pool down, a dead conn
// is returned and its roundTrip redials on demand.
func (c *Client) pick() *clientConn {
	if len(c.conns) == 1 {
		return c.conns[0]
	}
	start := int(c.rr.Add(1))
	var best *clientConn
	bestLoad := -1
	for i := 0; i < len(c.conns); i++ {
		cc := c.conns[(start+i)%len(c.conns)]
		cc.mu.Lock()
		live := cc.conn != nil
		load := len(cc.queue) - cc.head
		cc.mu.Unlock()
		if !live {
			continue
		}
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = cc, load
			if load == 0 {
				break
			}
		}
	}
	if best == nil {
		return c.conns[start%len(c.conns)]
	}
	return best
}

// roundTrip sends e's request frame and reads the reply into e's reply
// memory: the reader it returns views e, and is valid until putEnc(e).
func (c *Client) roundTrip(e *enc) (codec.Reader, error) {
	d, reply, err := c.pick().roundTrip(e.frame(), e.reply[:0])
	e.reply = reply
	return d, err
}

// maxBatchBytes caps one columnar publish frame well under maxFrame;
// Producer splits larger batches into chunks of at most this size.
const maxBatchBytes = 8 << 20

// PublishColumns mirrors Broker.PublishColumns over TCP. The whole batch
// travels as exactly one opPublishColumns frame — both lanes encoded
// behind the header into a pooled buffer and sent in one write, no
// per-record slicing, one round-trip. It never chunks: a session
// sequence covers one atomic broker batch, so callers bound the batch
// size (Producer does).
func (c *Client) PublishColumns(topic string, cols Columns, pid, seq uint64) error {
	if err := cols.Validate(); err != nil {
		return err
	}
	if cols.Count == 0 {
		return nil
	}
	e := newRequest(opPublishColumns)
	defer putEnc(e)
	e.str(topic)
	e.uint64(pid)
	e.uint64(seq)
	e.uint32(uint32(cols.Count))
	e.uint32(uint32(cols.KeyLen))
	e.uint32(uint32(cols.ValLen))
	e.bytes(cols.Keys)
	e.bytes(cols.Vals)
	return done(c.roundTrip(e))
}

// waitToMillis converts a fetch wait to whole milliseconds for the
// wire, rounding up so a sub-millisecond wait stays a blocking wait
// instead of silently degrading into a non-blocking fetch.
func waitToMillis(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	// Clamp before rounding so the ceiling addition cannot overflow.
	if d >= math.MaxUint32*time.Millisecond {
		return math.MaxUint32
	}
	return uint32((d + time.Millisecond - 1) / time.Millisecond)
}

// FetchWait mirrors Broker.FetchWait: the socket read appends the reply
// frame to mem, and the runs' bodies view it there. A reply that fails,
// is refused or holds no record gives mem back as it was, its capacity
// perhaps grown.
func (c *Client) FetchWait(topic string, partition int, offset int64, max int, wait time.Duration, runs []Run, mem []byte) ([]Run, []byte, error) {
	e := newRequest(opFetch)
	e.str(topic)
	e.uint32(uint32(partition))
	e.uint64(uint64(offset))
	e.uint32(uint32(max))
	e.uint32(waitToMillis(wait))
	d, grown, err := c.pick().roundTrip(e.frame(), mem)
	putEnc(e)
	had := len(runs)
	if err == nil {
		runs, err = decodeFetch(&d, offset, uint32(max), runs)
	}
	if err != nil || len(runs) == had {
		return runs, grown[:len(mem)], err
	}
	return runs, grown, nil
}

// decodeFetch reads the body of an opFetch response (after the status
// byte) for a request at offset for at most max records, appending its
// runs, which view d's frame, to runs. The runs must start at offset and
// follow each other without a gap, fill the frame exactly, and hold no
// more than max records between them, none empty — a zero-stride run
// (no publish writes one, but an old journal may hold it) takes no body
// bytes, so the frame alone cannot bound the count. A response that
// breaks any of these appends nothing.
func decodeFetch(d *codec.Reader, offset int64, max uint32, runs []Run) ([]Run, error) {
	n := d.Count(fetchRunHeaderLen)
	had, next, total := len(runs), offset, uint64(0)
	for range n {
		r := nextFetchRun(d)
		if r.Offset != next || r.Count == 0 {
			d.Fail("fetch run of %d at offset %d, want one or more at %d", r.Count, r.Offset, next)
		}
		if total += uint64(r.Count); total > uint64(max) {
			d.Fail("%d+ records in a fetch response for %d", total, max)
		}
		if d.Err() != nil {
			break
		}
		next += int64(r.Count)
		runs = append(runs, r)
	}
	if err := d.Done(); err != nil {
		clear(runs[had:])
		return runs[:had], err
	}
	return runs, nil
}

// nextFetchRun reads one run of a fetch response: its header, and a view
// of its records, whose count the header's strides must fit in the rest
// of the frame.
func nextFetchRun(d *codec.Reader) (r Run) {
	r.Offset, r.Nanos = int64(d.U64()), int64(d.U64())
	r.KeyLen, r.ValLen = int(d.U32()), int(d.U32())
	r.Count = d.Count(r.KeyLen + r.ValLen)
	r.Body = d.Take(r.Count * (r.KeyLen + r.ValLen))
	return r
}

// EndOffset mirrors Broker.EndOffset.
func (c *Client) EndOffset(topic string, partition int) (int64, error) {
	e := newRequest(opEndOffset)
	defer putEnc(e)
	e.str(topic)
	e.uint32(uint32(partition))
	return offsetReply(c.roundTrip(e))
}

// Partitions mirrors Broker.Partitions.
func (c *Client) Partitions(topic string) (int, error) {
	e := newRequest(opPartitions)
	defer putEnc(e)
	e.str(topic)
	d, err := c.roundTrip(e)
	if err != nil {
		return 0, err
	}
	n := d.U32()
	return int(n), d.Done()
}

// CommitOffset mirrors Broker.CommitOffset.
func (c *Client) CommitOffset(group, topic string, partition int, offset int64) error {
	e := newRequest(opCommit)
	defer putEnc(e)
	e.str(group)
	e.str(topic)
	e.uint32(uint32(partition))
	e.uint64(uint64(offset))
	return done(c.roundTrip(e))
}

// CommittedOffset mirrors Broker.CommittedOffset.
func (c *Client) CommittedOffset(group, topic string, partition int) (int64, error) {
	e := newRequest(opCommitted)
	defer putEnc(e)
	e.str(group)
	e.str(topic)
	e.uint32(uint32(partition))
	return offsetReply(c.roundTrip(e))
}

// offsetReply reads the u64 offset of an ok reply, nothing after it.
func offsetReply(d codec.Reader, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	off := d.U64()
	return int64(off), d.Done()
}
