package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// collect replays the whole log into a slice.
func collect(t *testing.T, l *Log, from uint64) []struct {
	lsn     uint64
	payload []byte
} {
	t.Helper()
	var out []struct {
		lsn     uint64
		payload []byte
	}
	err := l.Replay(from, func(lsn uint64, _ int, payload []byte) error {
		out = append(out, struct {
			lsn     uint64
			payload []byte
		}{lsn, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		lsn, err := l.Append(1, p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("append %d got lsn %d", i, lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and replay: every record intact, in order.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 100 {
		t.Fatalf("NextLSN after reopen = %d, want 100", got)
	}
	recs := collect(t, l2, 0)
	if len(recs) != 100 {
		t.Fatalf("replayed %d records, want 100", len(recs))
	}
	for i, r := range recs {
		if r.lsn != uint64(i) || !bytes.Equal(r.payload, want[i]) {
			t.Fatalf("record %d: lsn=%d payload=%q", i, r.lsn, r.payload)
		}
	}
	// Partial replay honors the from cursor.
	if n := len(collect(t, l2, 60)); n != 40 {
		t.Fatalf("replay from 60 returned %d records, want 40", n)
	}
}

func TestAppendBatchAssignsContiguousLSNs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	first, err := l.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("batch first lsn = %d, want 1", first)
	}
	if got := l.NextLSN(); got != 4 {
		t.Fatalf("NextLSN = %d, want 4", got)
	}
	recs := collect(t, l, 0)
	if len(recs) != 4 || string(recs[3].payload) != "c" {
		t.Fatalf("unexpected replay: %+v", recs)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 512)
	for i := 0; i < 40; i++ { // ~20 KiB → several segments
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	n, err := l.segmentCount()
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("expected ≥ 3 segments after 20KiB of 4KiB segments, got %d", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := collect(t, l2, 0); len(recs) != 40 {
		t.Fatalf("replayed %d records across segments, want 40", len(recs))
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1]
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: write half a frame at the tail.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x20, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery must never refuse to start: %v", err)
	}
	if got := l2.NextLSN(); got != 5 {
		t.Fatalf("NextLSN after torn-tail recovery = %d, want 5", got)
	}
	// The log must be fully usable again: appends land after the
	// truncation point and replay cleanly.
	if _, err := l2.Append(1, []byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2, 0)
	if len(recs) != 6 || string(recs[5].payload) != "after-crash" {
		t.Fatalf("unexpected post-recovery replay: %d records", len(recs))
	}
	l2.Close()
}

func TestRecoveryTornTailMidPayload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A full header promising 100 bytes, but only 3 bytes of payload.
	seg := lastSegment(t, dir)
	f, _ := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{0, 0, 0, 100, 1, 2, 3, 4, 9, 9, 9})
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 1 {
		t.Fatalf("NextLSN = %d, want 1", got)
	}
	if recs := collect(t, l2, 0); len(recs) != 1 || string(recs[0].payload) != "intact" {
		t.Fatalf("unexpected replay after mid-payload tear: %+v", recs)
	}
}

func TestRecoveryEmptyFinalSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash right after rotation leaves a fresh, empty segment.
	if err := os.WriteFile(filepath.Join(dir, segName(3)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("empty final segment must not block recovery: %v", err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 3 {
		t.Fatalf("NextLSN = %d, want 3", got)
	}
	if lsn, err := l2.Append(1, []byte("resumed")); err != nil || lsn != 3 {
		t.Fatalf("append after empty-segment recovery: lsn=%d err=%v", lsn, err)
	}
	if recs := collect(t, l2, 0); len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
}

func TestReplayFailsLoudlyOnInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x55}, 512)
	for i := 0; i < 20; i++ { // forces ≥ 2 segments
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("need ≥ 2 segments, got %d", len(segs))
	}
	// Flip one payload byte in the middle of the FIRST (interior)
	// segment: that is real corruption, not a torn tail.
	first := segs[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err) // open only recovers the tail; it must still start
	}
	defer l2.Close()
	err = l2.Replay(0, func(uint64, int, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption must fail replay loudly, got %v", err)
	}
}

// TestReplaySkipsSegmentsBelowFrom: a replay from an LSN opens only the
// segments holding records at or above it — a sealed segment wholly
// below from is never read, so corruption there does not fail it, while
// a replay from 0 still reads every segment and fails with ErrCorrupt.
func TestReplaySkipsSegmentsBelowFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0x33}, 512)
	for i := 0; i < 40; i++ {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// From the second segment's first LSN on, and from inside it: the
	// corrupt first segment lies wholly below either.
	second := segLSNOf(segs[1])
	for _, from := range []uint64{second, second + 1} {
		if recs := collect(t, l, from); uint64(len(recs)) != 40-from || recs[0].lsn != from {
			t.Fatalf("replay from %d: %d records from lsn %d, want %d from %d", from, len(recs), recs[0].lsn, 40-from, from)
		}
	}
	if err := l.Replay(second-1, func(uint64, int, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay from inside the corrupt segment: %v, want ErrCorrupt", err)
	}
	if err := l.Replay(0, func(uint64, int, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay from 0: %v, want ErrCorrupt", err)
	}
}

func TestTruncateFrontDropsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{1}, 512)
	for i := 0; i < 40; i++ {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := l.segmentCount()
	if before < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", before)
	}
	if err := l.TruncateFront(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	after, _ := l.segmentCount()
	if after >= before {
		t.Fatalf("TruncateFront dropped nothing: %d → %d segments", before, after)
	}
	first := l.FirstLSN()
	if first == 0 {
		t.Fatal("FirstLSN did not advance")
	}
	// Replay from the new low-water mark still works, and the record
	// count is consistent with the retained range.
	recs := collect(t, l, first)
	if uint64(len(recs)) != l.NextLSN()-first {
		t.Fatalf("replayed %d records, want %d", len(recs), l.NextLSN()-first)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"never": PolicyNever, "": PolicyNever, "interval": policyInterval, "every-batch": PolicyEveryBatch}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("Policy(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParsePolicy("sometimes"); !errors.Is(err, errBadPolicy) {
		t.Fatalf("ParsePolicy(sometimes) = %v, want ErrBadPolicy", err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []Policy{PolicyNever, policyInterval, PolicyEveryBatch} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Policy: pol, SyncInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := l.Append(1, []byte("p")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := l.AppendBatch([][]byte{[]byte("q"), []byte("r")}); err != nil {
				t.Fatal(err)
			}
			if pol == policyInterval {
				time.Sleep(20 * time.Millisecond) // let the background sync tick
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if recs := collect(t, l2, 0); len(recs) != 12 {
				t.Fatalf("policy %v lost records: %d/12", pol, len(recs))
			}
		})
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, workers)
	for w := 0; w < workers; w++ {
		seen[w] = make(map[uint64]bool)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(1, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				seen[w][lsn] = true
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	all := make(map[uint64]bool)
	for _, m := range seen {
		for lsn := range m {
			if all[lsn] {
				t.Fatalf("duplicate lsn %d", lsn)
			}
			all[lsn] = true
		}
	}
	if len(all) != workers*per {
		t.Fatalf("%d unique LSNs, want %d", len(all), workers*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := collect(t, l2, 0); len(recs) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*per)
	}
}

// TestFramesCoverRuns: a frame of n covers the LSNs [lsn, lsn+n) — the
// next frame starts n later, across a reopen too — and a replay from an
// LSN inside a frame yields that whole frame first.
func TestFramesCoverRuns(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{1, 5, 1, 3} {
		lsn, err := l.Append(n, []byte{byte(i)})
		if err != nil || lsn != []uint64{0, 1, 6, 7}[i] {
			t.Fatalf("frame %d of %d lands at lsn %d (%v)", i, n, lsn, err)
		}
	}
	if _, err := l.Append(0, []byte("none")); err == nil {
		t.Fatal("a frame covering no LSN was accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.NextLSN(); got != 10 {
		t.Fatalf("NextLSN after reopen = %d, want 10", got)
	}
	for from, want := range map[uint64]string{0: "0/1 1/5 6/1 7/3", 1: "1/5 6/1 7/3", 4: "1/5 6/1 7/3", 6: "6/1 7/3", 9: "7/3", 10: ""} {
		var got []string
		if err := l.Replay(from, func(lsn uint64, n int, _ []byte) error {
			got = append(got, fmt.Sprintf("%d/%d", lsn, n))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, " ") != want {
			t.Errorf("replay from %d yields frames %v, want %s", from, got, want)
		}
	}
}

// TestOpenRefusesOldFormat: a directory written in the retired
// one-frame-per-LSN format — the checked-in meta and partition segments
// of a durable broker — is refused by name before anything is read or
// truncated, and its files are left as they were.
func TestOpenRefusesOldFormat(t *testing.T) {
	for _, sub := range []string{"meta", filepath.Join("topic-t", "p0000")} {
		src := filepath.Join("testdata", "old-format-broker", sub, "wal-0000000000000000.seg")
		want, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		seg := filepath.Join(dir, filepath.Base(src))
		if err := os.WriteFile(seg, want, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := Open(dir, Options{}); !errors.Is(err, ErrOldFormat) {
			if err == nil {
				l.Close()
			}
			t.Fatalf("%s: Open = %v, want ErrOldFormat", sub, err)
		}
		got, err := os.ReadFile(seg)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the refused segment changed (%v)", sub, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%s: a refused Open left %d files", sub, len(entries))
		}
	}
}

// FuzzWALRecordRoundTrip fuzzes the frame format: any payload —
// including empty and binary-garbage ones — framed to cover 1 + n%64
// LSNs must survive an append/close/reopen/replay cycle bit for bit,
// between two single-LSN frames, and a replay from the LSN at inside the
// frame must yield it whole.
func FuzzWALRecordRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint8(0), uint8(0))
	f.Add([]byte(""), uint8(3), uint8(2))
	f.Add([]byte("hello"), uint8(4), uint8(9))
	f.Add(bytes.Repeat([]byte{0xFF}, 1000), uint8(63), uint8(63))
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF}, uint8(1), uint8(1)) // looks like a frame header
	f.Fuzz(func(t *testing.T, payload []byte, n, at uint8) {
		span := 1 + int(n)%64
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(1, []byte("pre")); err != nil {
			t.Fatal(err)
		}
		lsn, err := l.Append(span, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(1, []byte("post")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if got := l2.NextLSN(); got != lsn+uint64(span)+1 {
			t.Fatalf("NextLSN after reopen = %d, want %d", got, lsn+uint64(span)+1)
		}
		for _, from := range []uint64{0, lsn + uint64(int(at)%span)} {
			var got []byte
			frames, found := 0, false
			err = l2.Replay(from, func(rlsn uint64, rn int, p []byte) error {
				if frames++; rlsn == lsn {
					got, found = append([]byte(nil), p...), rn == span
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := 2 + int(lsn-min(from, lsn)); frames != want { // "pre" only from 0
				t.Fatalf("replay from %d yields %d frames, want %d", from, frames, want)
			}
			if !found || !bytes.Equal(got, payload) {
				t.Fatalf("replay from %d: payload did not round-trip: found=%v got=%x want=%x", from, found, got, payload)
			}
		}
	})
}
