package histstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privapprox/internal/wal"
)

func openTemp(t *testing.T, maxSeg int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxSeg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendScanRoundTrip(t *testing.T) {
	s := openTemp(t, 0)
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		if err := s.Append(base.Add(time.Duration(i)*time.Second), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	st, err := s.Scan(base, base.Add(time.Hour), func(ts time.Time, payload []byte) error {
		got = append(got, payload...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 10 {
		t.Errorf("stats = %+v", st)
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("payloads = %v", got)
	}
}

func TestScanRangeFilter(t *testing.T) {
	s := openTemp(t, 0)
	base := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		if err := s.Append(base.Add(time.Duration(i)*time.Second), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// [3s, 7s): records 3..6. The range is inclusive-exclusive.
	var got []byte
	st, err := s.Scan(base.Add(3*time.Second), base.Add(7*time.Second), func(ts time.Time, p []byte) error {
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 4 || !bytes.Equal(got, []byte{3, 4, 5, 6}) {
		t.Errorf("range scan = %v (%+v)", got, st)
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 1024)
	for i := 0; i < 20; i++ {
		if err := s.Append(time.Unix(int64(i), 0), payload); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) < 3 {
		t.Errorf("segments = %d, want several", len(segs))
	}
	st, err := s.Scan(time.Unix(0, 0), time.Unix(100, 0), func(time.Time, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 20 {
		t.Errorf("records across segments = %d", st.Records)
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(time.Unix(1, 0), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Append(time.Unix(2, 0), []byte("b")); err != nil {
		t.Fatal(err)
	}
	st, err := s2.Scan(time.Unix(0, 0), time.Unix(10, 0), func(time.Time, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 {
		t.Errorf("records after reopen = %d, want 2", st.Records)
	}
}

// TestCorruptTailRecovery: a record torn by a crash mid-write is
// truncated when the store is reopened, and the records before it scan.
func TestCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Append(time.Unix(int64(i), 0), []byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: truncate the tail of the segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments = %d", len(segs))
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got []string
	st, err := s2.Scan(time.Unix(0, 0), time.Unix(100, 0), func(_ time.Time, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 4 {
		t.Errorf("stats = %+v", st)
	}
	if len(got) != 4 || got[3] != "rec3" {
		t.Errorf("recovered = %v", got)
	}
}

// TestCorruptChecksumStopsSegment: a final record whose checksum fails is
// a torn tail under the WAL's recovery rule — Open truncates it.
func TestCorruptChecksumStopsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(time.Unix(1, 0), []byte("good"))
	s.Append(time.Unix(2, 0), []byte("bad!"))
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a payload byte of the second record
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Scan(time.Unix(0, 0), time.Unix(10, 0), func(time.Time, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScanCallbackErrorPropagates(t *testing.T) {
	s := openTemp(t, 0)
	s.Append(time.Unix(1, 0), []byte("x"))
	boom := errors.New("boom")
	_, err := s.Scan(time.Unix(0, 0), time.Unix(10, 0), func(time.Time, []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestClosedStoreRejectsAppend(t *testing.T) {
	s := openTemp(t, 0)
	s.Close()
	if err := s.Append(time.Unix(1, 0), []byte("x")); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
	if err := s.Sync(); !errors.Is(err, wal.ErrClosed) {
		t.Errorf("sync after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(t.TempDir(), 100); err == nil {
		t.Error("expected error for tiny segment size")
	}
}

func TestScanSeesUnsyncedWrites(t *testing.T) {
	s := openTemp(t, 0)
	s.Append(time.Unix(1, 0), []byte("fresh"))
	st, err := s.Scan(time.Unix(0, 0), time.Unix(10, 0), func(time.Time, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 {
		t.Errorf("records = %d, want freshly appended data visible", st.Records)
	}
}

// TestInteriorCorruptionFailsScan: a corrupt record in a sealed segment
// is not a torn tail — Scan fails with wal.ErrCorrupt rather than
// silently skipping records.
func TestInteriorCorruptionFailsScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Append(time.Unix(int64(i), 0), bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("segments = %d, want several", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Scan(time.Unix(0, 0), time.Unix(100, 0), func(time.Time, []byte) error { return nil }); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("scan over a corrupt sealed segment: %v, want wal.ErrCorrupt", err)
	}
}

// TestOpenRefusesOldFormat: a directory holding a segment of the store's
// retired own format is refused, and the segment is left as it was.
func TestOpenRefusesOldFormat(t *testing.T) {
	dir := t.TempDir()
	// ts(8) | len(4) | crc32(4) | payload: one record of the old format.
	old := binary.BigEndian.AppendUint64(nil, uint64(time.Unix(1, 0).UnixNano()))
	old = binary.BigEndian.AppendUint32(old, 1)
	old = append(binary.BigEndian.AppendUint32(old, crc32.ChecksumIEEE([]byte("a"))), 'a')
	seg := filepath.Join(dir, "seg-00000000.log")
	if err := os.WriteFile(seg, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, 0); !errors.Is(err, wal.ErrOldFormat) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open = %v, want wal.ErrOldFormat", err)
	}
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the refused segment changed (%v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("a refused Open left %d files", len(entries))
	}
}

// TestConcurrentAppendScan: scans racing appends each see a prefix of
// the appended records, whole and in order — never a half-written record
// — and the last scan sees them all. Run it under -race.
func TestConcurrentAppendScan(t *testing.T) {
	s := openTemp(t, 4096)
	const records = 400
	done := make(chan error, 1)
	go func() {
		for i := 0; i < records; i++ {
			if err := s.Append(time.Unix(int64(i), 0), binary.BigEndian.AppendUint64(nil, uint64(i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	scan := func() int {
		n := 0
		st, err := s.Scan(time.Unix(0, 0), time.Unix(records, 0), func(ts time.Time, p []byte) error {
			if ts.Unix() != int64(n) || len(p) != 8 || binary.BigEndian.Uint64(p) != uint64(n) {
				return fmt.Errorf("record %d reads back at %v as %x", n, ts, p)
			}
			n++
			return nil
		})
		if err != nil || st.Records != n {
			t.Fatalf("scan: %d of %d records, %v", n, st.Records, err)
		}
		return n
	}
	for seen := 0; ; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if n := scan(); n != records {
				t.Fatalf("the last scan saw %d records, want %d", n, records)
			}
			return
		default:
			n := scan()
			if n < seen {
				t.Fatalf("a scan saw %d records after one saw %d", n, seen)
			}
			seen = n
		}
	}
}
