// Package histstore is the fault-tolerant response store backing
// PrivApprox's historical analytics (paper §3.3.1): the aggregator
// appends every decoded randomized answer, and batch queries later scan
// a time range. It stands in for HDFS with a write-ahead log (package
// wal): one frame per record, u64 unix-nanos ‖ payload, under the WAL's
// checksums, segment rolling and recovery rule — Open truncates a torn
// tail, and interior corruption fails Scan with wal.ErrCorrupt.
package histstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"

	"privapprox/internal/wal"
)

// Store is an append-only record store. It is safe for concurrent use.
type Store struct {
	log *wal.Log
}

// Open creates or reopens a store in dir. Segments roll after
// maxSegBytes (minimum 4 KiB; 0 defaults to 64 MiB). A directory holding
// the seg-*.log files of the store's retired own format is refused with
// wal.ErrOldFormat, and nothing in it is changed.
func Open(dir string, maxSegBytes int64) (*Store, error) {
	if old, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")); len(old) > 0 {
		return nil, fmt.Errorf("histstore: %w: %s", wal.ErrOldFormat, old[0])
	}
	if maxSegBytes == 0 {
		maxSegBytes = 64 << 20
	}
	log, err := wal.Open(dir, wal.Options{SegmentBytes: maxSegBytes})
	if err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	return &Store{log: log}, nil
}

// Append writes one record with the given timestamp.
func (s *Store) Append(ts time.Time, payload []byte) error {
	rec := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(payload)), uint64(ts.UnixNano()))
	_, err := s.log.Append(1, append(rec, payload...))
	return err
}

// Sync flushes the store to stable storage.
func (s *Store) Sync() error { return s.log.Sync() }

// Close syncs and closes the store.
func (s *Store) Close() error { return s.log.Close() }

// ScanStats counts the records a Scan handed its callback.
type ScanStats struct {
	Records int
}

// Scan calls fn for every record with from ≤ ts < to, in append order,
// stopping early if fn returns a non-nil error; payload is valid only
// for the duration of the call. The store's appends wait for a running
// Scan.
func (s *Store) Scan(from, to time.Time, fn func(ts time.Time, payload []byte) error) (ScanStats, error) {
	var st ScanStats
	err := s.log.Replay(0, func(lsn uint64, _ int, rec []byte) error {
		if len(rec) < 8 {
			return fmt.Errorf("histstore: %w: %d-byte record at %d", wal.ErrCorrupt, len(rec), lsn)
		}
		ts := time.Unix(0, int64(binary.BigEndian.Uint64(rec)))
		if ts.Before(from) || !ts.Before(to) {
			return nil
		}
		st.Records++
		return fn(ts, rec[8:])
	})
	return st, err
}
