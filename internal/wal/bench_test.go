package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkWALAppend sweeps append throughput across the fsync policies
// at a share-sized payload — the cost a durable broker partition adds to
// every acknowledged publish.
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 256)
	for _, pol := range []Policy{PolicyNever, policyInterval, PolicyEveryBatch} {
		b.Run("policy="+pol.String(), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Policy: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALAppendBatch measures the batched path (one write + one
// policy fsync per batch), the shape an epoch's publish batch takes.
func BenchmarkWALAppendBatch(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 256)
	for _, batch := range []int{16, 256} {
		payloads := make([][]byte, batch)
		for i := range payloads {
			payloads[i] = payload
		}
		for _, pol := range []Policy{PolicyNever, PolicyEveryBatch} {
			b.Run(fmt.Sprintf("batch=%d/policy=%s", batch, pol), func(b *testing.B) {
				l, err := Open(b.TempDir(), Options{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				b.SetBytes(int64(batch * len(payload)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := l.AppendBatch(payloads); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWALRecovery measures the recovery scan (open + full replay)
// against log size — the restart cost of a WAL-backed partition.
func BenchmarkWALRecovery(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 256)
	for _, records := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < records; i++ {
				if _, err := l.Append(1, payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(records * len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				if err := l.Replay(0, func(uint64, int, []byte) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != records {
					b.Fatalf("replayed %d, want %d", n, records)
				}
				l.Close()
			}
		})
	}
}
