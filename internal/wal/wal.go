// Package wal is the durability substrate under PrivApprox's long-lived
// services: a segmented, checksummed append-only commit log. Broker
// partitions journal every published run of records through it,
// consumer-group commits and topic metadata ride a meta log, the
// aggregator's checkpoint/restore cycle serializes its per-query state
// into it, and the historical response store is one — so a SIGKILLed
// proxy or aggregator restarts from its data directory instead of
// losing every in-flight epoch and registered query.
//
// # Format
//
// A log is a directory of segment files named wal-<firstLSN:016x>.log.
// Records are framed as
//
//	u32 length | u32 n | u32 crc32c(n ‖ payload) | payload
//
// and numbered by a monotonically increasing log sequence number (LSN):
// a frame covers the n LSNs [lsn, lsn+n). A partition journal writes a
// run of n records as one frame, so a record's LSN is its partition
// offset; every other log writes n = 1. A segment's file name carries
// the LSN of its first frame, so replay and retention work at
// whole-segment granularity without an index.
//
// A directory that holds wal-*.seg segments was written in the retired
// format of one u32 length | u32 crc32c frame per LSN. Open refuses it
// with ErrOldFormat before touching anything; there is no reader for it.
//
// # Durability contract
//
// Append writes the frame with a single write(2) before returning, so an
// acknowledged frame survives a process crash (SIGKILL) under every
// fsync policy; the policy only decides when data reaches stable storage
// and therefore what an *operating-system* crash can lose:
//
//   - PolicyNever: never fsync (fastest; OS crash may lose the tail).
//   - PolicyInterval: a background goroutine fsyncs every SyncInterval.
//   - PolicyEveryBatch: fsync before every Append/AppendBatch returns.
//
// # Recovery
//
// Open scans the final segment and truncates it at the first torn or
// corrupt frame — a crash mid-write never prevents a restart, and it
// never leaves part of a frame's n LSNs behind. A bad frame in any
// non-final segment is real corruption, not a torn tail, and Replay
// fails loudly with ErrCorrupt rather than silently skipping records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/telemetry"
)

// Errors reported by the log.
var (
	ErrClosed    = errors.New("wal: closed")
	ErrCorrupt   = errors.New("wal: corrupt record")
	ErrTooLarge  = errors.New("wal: record too large")
	ErrBadPolicy = errors.New("wal: unknown fsync policy")
	// ErrOldFormat reports a directory written in the retired
	// one-frame-per-LSN format (wal-*.seg segments).
	ErrOldFormat = errors.New("wal: segment in the retired one-frame-per-LSN format")
)

// Policy selects when appends reach stable storage.
type Policy int

const (
	// PolicyNever performs no fsync; the OS flushes the page cache at
	// its leisure. Acknowledged records still survive process crashes.
	PolicyNever Policy = iota
	// PolicyInterval fsyncs from a background goroutine every
	// Options.SyncInterval.
	PolicyInterval
	// PolicyEveryBatch fsyncs before every Append/AppendBatch returns:
	// an acknowledged record survives an OS crash.
	PolicyEveryBatch
)

// String renders the policy in the form ParsePolicy accepts.
func (p Policy) String() string {
	switch p {
	case PolicyNever:
		return "never"
	case PolicyInterval:
		return "interval"
	case PolicyEveryBatch:
		return "every-batch"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name: "never", "interval", "every-batch".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "never", "":
		return PolicyNever, nil
	case "interval":
		return PolicyInterval, nil
	case "every-batch":
		return PolicyEveryBatch, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrBadPolicy, s)
	}
}

// Options tunes a log. The zero value is usable: 8 MiB segments, no
// fsync. A log keeps every record until its owner truncates it
// (TruncateFront).
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this size
	// (minimum 4 KiB; 0 defaults to 8 MiB).
	SegmentBytes int64
	// Policy is the fsync policy; see the package comment.
	Policy Policy
	// SyncInterval is the PolicyInterval period; 0 defaults to 50ms.
	SyncInterval time.Duration
	// AppendHist/FsyncHist, when non-nil, receive append-call and fsync
	// latencies (SetLatencyHistograms). Many logs may share one pair —
	// a durable fleet's partition logs all feed the same process-level
	// series.
	AppendHist *telemetry.Histogram
	FsyncHist  *telemetry.Histogram
}

// frameHeader is u32 length | u32 n | u32 crc32c(n ‖ payload).
const frameHeader = 12

// maxRecordBytes bounds one record so a corrupt length field cannot
// drive a multi-gigabyte allocation during recovery.
const maxRecordBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is a segmented append-only commit log. It is safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	seg      *os.File // active segment
	segStart uint64   // LSN of the active segment's first frame
	segBytes int64
	firstLSN uint64 // oldest retained LSN
	nextLSN  uint64 // LSN the next frame starts at
	encBuf   []byte // reusable frame-encoding buffer
	closed   bool
	syncErr  error // sticky background-sync failure, surfaced on the next append
	// failed poisons the log after a short or failed segment write: the
	// tail may hold a torn frame, so accepting further appends would
	// hand out acknowledgments that recovery later truncates away. Only
	// a reopen (which rewinds to the last intact frame) clears it.
	failed error

	stopSync chan struct{}
	syncDone chan struct{}

	// appendLat/fsyncLat, when set, observe append-call and fsync wall
	// times (telemetry.go); nil costs one atomic load per operation.
	appendLat atomic.Pointer[telemetry.Histogram]
	fsyncLat  atomic.Pointer[telemetry.Histogram]
}

// Open creates or recovers a log in dir. Recovery truncates the final
// segment at the first torn or corrupt frame (a crash mid-append must
// never refuse to start) and positions the log to append after the last
// intact frame. A directory holding segments of the retired format is
// refused with ErrOldFormat, and nothing in it is changed.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = 8 << 20
	}
	if opts.SegmentBytes < 4096 {
		return nil, fmt.Errorf("wal: segment size %d below 4KiB", opts.SegmentBytes)
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = 50 * time.Millisecond
	}
	if old, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(old) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrOldFormat, old[0])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	l.SetLatencyHistograms(opts.AppendHist, opts.FsyncHist)
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.openSegmentLocked(0); err != nil {
			return nil, err
		}
	} else {
		l.firstLSN = segLSNOf(segs[0])
		last := segs[len(segs)-1]
		start := segLSNOf(last)
		count, good, err := scanTail(last)
		if err != nil {
			return nil, err
		}
		// Truncate the torn tail so the next append lands on a clean
		// frame boundary.
		if err := os.Truncate(last, good); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.seg = f
		l.segStart = start
		l.segBytes = good
		l.nextLSN = start + count
	}
	if opts.Policy == PolicyInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// scanTail walks one segment's intact frames; it returns the LSNs they
// cover and the byte offset of the first torn/corrupt frame (== file
// size when the segment is clean).
func scanTail(path string) (lsns uint64, good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var payload []byte
	for {
		var n int
		n, payload, err = readFrame(f, payload)
		if err != nil {
			return lsns, good, nil // clean EOF, or a torn or corrupt frame
		}
		lsns += uint64(n)
		good += frameHeader + int64(len(payload))
	}
}

// readFrame reads the next frame from r, reusing buf for its payload. It
// returns io.EOF at a clean end of the segment and another error, saying
// what is wrong, at a torn or corrupt frame.
func readFrame(r io.Reader, buf []byte) (n int, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, buf, io.EOF
		}
		return 0, buf, errors.New("torn header")
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	count := binary.BigEndian.Uint32(hdr[4:8])
	if length > maxRecordBytes {
		return 0, buf, fmt.Errorf("%d-byte frame", length)
	}
	if cap(buf) < int(length) {
		buf = make([]byte, length)
	}
	payload = buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, buf, errors.New("torn payload")
	}
	if frameSum(hdr[4:8], payload) != binary.BigEndian.Uint32(hdr[8:12]) {
		return 0, buf, errors.New("checksum mismatch")
	}
	if count == 0 {
		return 0, buf, errors.New("frame covering no LSN")
	}
	return int(count), payload, nil
}

// Append writes one frame covering the n LSNs [lsn, lsn+n), applying
// the fsync policy, and returns lsn. A log whose payloads are not runs
// appends with n = 1.
func (l *Log) Append(n int, payload []byte) (uint64, error) {
	return l.append(n, payload)
}

// AppendBatch writes a batch of records, one frame of n = 1 each, with
// one write(2) and (under PolicyEveryBatch) one fsync, returning the LSN
// of the first. The batch lands in one segment, so it replays together.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	return l.append(1, payloads...)
}

// append writes one frame covering n LSNs per payload with one write(2),
// applies the fsync policy, and returns the first frame's LSN.
func (l *Log) append(n int, payloads ...[]byte) (uint64, error) {
	if n < 1 || uint64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("wal: a frame covering %d LSNs", n)
	}
	h := l.appendLat.Load()
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.checkUsableLocked(); err != nil {
		return 0, err
	}
	var total int
	for _, p := range payloads {
		if len(p) > maxRecordBytes {
			return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p))
		}
		total += frameHeader + len(p)
	}
	if l.segBytes > 0 && l.segBytes+int64(total) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	buf := l.encBuf[:0]
	for _, p := range payloads {
		buf = appendFrame(buf, uint32(n), p)
	}
	l.encBuf = buf[:0]
	first := l.nextLSN
	written, err := l.seg.Write(buf)
	l.segBytes += int64(written)
	if err != nil {
		return 0, l.failWriteLocked(err)
	}
	l.nextLSN += uint64(n) * uint64(len(payloads))
	err = l.policySyncLocked()
	if h != nil && err == nil {
		h.Observe(int64(time.Since(t0)))
	}
	return first, err
}

// failWriteLocked poisons the log after a short or failed write: the
// segment tail may now hold a torn frame, and any frame appended after
// it would be truncated by the next recovery scan despite having been
// acknowledged. Refusing further appends until a reopen keeps the
// "acknowledged means durable" contract honest.
func (l *Log) failWriteLocked(err error) error {
	l.failed = fmt.Errorf("wal: append failed, log requires reopen: %w", err)
	return l.failed
}

// checkUsableLocked surfaces a poisoned log or a (cleared-on-read)
// background-sync failure.
func (l *Log) checkUsableLocked() error {
	if l.failed != nil {
		return l.failed
	}
	return l.takeSyncErrLocked()
}

func appendFrame(buf []byte, n uint32, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, n)
	buf = binary.BigEndian.AppendUint32(buf, frameSum(buf[len(buf)-4:], payload))
	return append(buf, payload...)
}

// frameSum is a frame's checksum: CRC-32C over its n field and payload.
func frameSum(n, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(n, castagnoli), castagnoli, payload)
}

// policySyncLocked applies the fsync policy after an append.
func (l *Log) policySyncLocked() error {
	if l.opts.Policy != PolicyEveryBatch {
		return nil
	}
	if err := l.syncSegLocked(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// syncSegLocked fsyncs the active segment, feeding the fsync latency
// histogram when one is attached.
func (l *Log) syncSegLocked() error {
	h := l.fsyncLat.Load()
	if h == nil {
		return l.seg.Sync()
	}
	t0 := time.Now()
	err := l.seg.Sync()
	h.Observe(int64(time.Since(t0)))
	return err
}

// takeSyncErrLocked surfaces (and clears) a background-sync failure.
func (l *Log) takeSyncErrLocked() error {
	err := l.syncErr
	l.syncErr = nil
	return err
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.syncSegLocked(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.syncSegLocked(); err != nil && l.syncErr == nil {
					l.syncErr = fmt.Errorf("wal: background sync: %w", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// rotateLocked seals the active segment and opens a fresh one named by
// the next LSN.
func (l *Log) rotateLocked() error {
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	l.seg = nil
	return l.openSegmentLocked(l.nextLSN)
}

func (l *Log) openSegmentLocked(firstLSN uint64) error {
	name := filepath.Join(l.dir, segName(firstLSN))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.seg = f
	l.segStart = firstLSN
	l.segBytes = 0
	if l.nextLSN < firstLSN {
		l.nextLSN = firstLSN
	}
	return nil
}

// Replay invokes fn for every frame that covers an LSN ≥ from, in LSN
// order — the first may start below from — stopping at the first error
// fn returns. payload is valid only for the duration of the call.
// Segments whose frames all lie below from are not read: the next
// segment's name says where they end. A bad frame in any segment it
// reads but the (already recovered) tail is interior corruption and
// fails with ErrCorrupt — frames are never silently skipped. Replay
// holds the log's lock, so appends wait for it.
func (l *Log) Replay(from uint64, fn func(lsn uint64, n int, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segLSNOf(segs[i+1]) <= from {
			continue
		}
		if err := l.replaySegment(seg, from, fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(path string, from uint64, fn func(uint64, int, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	lsn := segLSNOf(path)
	var payload []byte
	for {
		n, p, err := readFrame(f, payload)
		payload = p
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %v at lsn %d in %s", ErrCorrupt, err, lsn, filepath.Base(path))
		}
		if lsn+uint64(n) > from {
			if err := fn(lsn, n, payload); err != nil {
				return err
			}
		}
		lsn += uint64(n)
	}
}

// FirstLSN returns the oldest retained LSN.
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLSN
}

// NextLSN returns the LSN the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// SegmentCount returns the number of on-disk segments.
func (l *Log) SegmentCount() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := l.segments()
	return len(segs), err
}

// TruncateFront drops whole sealed segments every record of which is
// below keepFrom — the explicit retention hook for callers that know
// their low-water mark (e.g. a checkpointer that has superseded older
// state). The active segment is never dropped.
func (l *Log) TruncateFront(keepFrom uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		// Segment i's records all precede segment i+1's first LSN.
		if segLSNOf(segs[i+1]) > keepFrom {
			break
		}
		if err := l.dropSegmentLocked(segs[i], segLSNOf(segs[i+1])); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) dropSegmentLocked(path string, nextFirst uint64) error {
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("wal: drop segment: %w", err)
	}
	l.firstLSN = nextFirst
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stopSync
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.seg.Sync(); err != nil {
		l.seg.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

func (l *Log) segments() ([]string, error) {
	segs, err := filepath.Glob(filepath.Join(l.dir, "wal-*.log"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(segs)
	return segs, nil
}

func segName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstLSN)
}

func segLSNOf(path string) uint64 {
	var lsn uint64
	fmt.Sscanf(filepath.Base(path), "wal-%016x.log", &lsn)
	return lsn
}
