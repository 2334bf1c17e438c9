package pubsub

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"privapprox/internal/wal"
)

// sessionCols builds n records with keys "<tag>-key-NNN" and values
// "<tag>-val-NNN"; tag must be one byte so every batch shares a stride.
func sessionCols(tag byte, n int) Columns {
	cols := Columns{Count: n, KeyLen: 9, ValLen: 9}
	for i := 0; i < n; i++ {
		cols.Keys = append(cols.Keys, fmt.Sprintf("%c-key-%03d", tag, i)...)
		cols.Vals = append(cols.Vals, fmt.Sprintf("%c-val-%03d", tag, i)...)
	}
	return cols
}

func topicEnd(t *testing.T, pub Transport, topic string) int64 {
	t.Helper()
	parts, err := pub.Partitions(topic)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for p := 0; p < parts; p++ {
		end, err := pub.EndOffset(topic, p)
		if err != nil {
			t.Fatal(err)
		}
		total += end
	}
	return total
}

func TestSessionDedupExactReplay(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	cols := sessionCols('a', 10)
	for i := 0; i < 2; i++ {
		if err := b.PublishColumns("t", cols, 7, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.MessagesIn != 10 || st.Duplicates != 10 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want 10 and 10", st.MessagesIn, st.Duplicates)
	}
	if want := int64(10 * (cols.KeyLen + cols.ValLen)); st.BytesIn != want {
		t.Fatalf("BytesIn=%d, want %d (a replay adds no bytes)", st.BytesIn, want)
	}
	if end := topicEnd(t, b, "t"); end != 10 {
		t.Fatalf("topic holds %d records, want 10", end)
	}
	// A newer sequence appends; an older one is still deduplicated.
	if err := b.PublishColumns("t", sessionCols('b', 5), 7, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("t", cols, 7, 1); err != nil {
		t.Fatal(err)
	}
	if end := topicEnd(t, b, "t"); end != 15 {
		t.Fatalf("topic holds %d records, want 15", end)
	}
	// Distinct producers never collide.
	if err := b.PublishColumns("t", cols, 8, 1); err != nil {
		t.Fatal(err)
	}
	if end := topicEnd(t, b, "t"); end != 25 {
		t.Fatalf("topic holds %d records after second producer, want 25", end)
	}
}

// TestUnsessionedColumns: pid 0 carries no dedup — the same batch
// published twice lands twice — and a sequence without a producer id is
// a malformed tag, refused in-process and across the wire with nothing
// applied.
func TestUnsessionedColumns(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	cols := sessionCols('u', 3)
	for _, pub := range []Transport{b, cli} {
		if err := pub.PublishColumns("t", cols, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := pub.PublishColumns("t", cols, 0, 1); !errors.Is(err, errWire) {
			t.Fatalf("pid 0 with seq 1: %v, want ErrWire", err)
		}
	}
	if end := topicEnd(t, b, "t"); end != 6 {
		t.Fatalf("topic holds %d records, want 6", end)
	}
	if st := b.Stats(); st.Duplicates != 0 {
		t.Fatalf("Duplicates = %d for unsessioned batches", st.Duplicates)
	}
}

// TestSessionDedupSurvivesRestart pins the WAL half of idempotence: the
// per-partition (producer, sequence) slots are journaled with the
// records, so a broker restarted from its journal still recognizes a
// replay of a pre-crash batch.
func TestSessionDedupSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	batches := []Columns{sessionCols('a', 6), sessionCols('b', 6), sessionCols('c', 6), sessionCols('d', 2)}
	for i, cols := range batches {
		if err := b.PublishColumns("t", cols, 9, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	endBefore := topicEnd(t, b, "t")
	b.Close()

	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if end := topicEnd(t, b2, "t"); end != endBefore {
		t.Fatalf("replayed topic holds %d records, want %d", end, endBefore)
	}
	// Replays of every pre-restart sequence must dedup against the
	// journal-restored slots.
	for i, cols := range batches {
		if err := b2.PublishColumns("t", cols, 9, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if end := topicEnd(t, b2, "t"); end != endBefore {
		t.Fatalf("replays appended: topic holds %d records, want %d", end, endBefore)
	}
	if st := b2.Stats(); st.Duplicates != 20 {
		t.Fatalf("Duplicates = %d, want 20", st.Duplicates)
	}
	// A fresh sequence still appends after the restart.
	if err := b2.PublishColumns("t", sessionCols('e', 3), 9, 5); err != nil {
		t.Fatal(err)
	}
	if end := topicEnd(t, b2, "t"); end != endBefore+3 {
		t.Fatalf("new sequence: topic holds %d records, want %d", end, endBefore+3)
	}
}

// TestUnsessionedJournalReplays: records published with pid 0 are
// journaled untagged (the framing is pinned in wire_golden_test.go) and
// replay without creating dedup state.
func TestUnsessionedJournalReplays(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("t", sessionCols('p', 4), 0, 0); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("publish to missing topic: %v, want ErrNoTopic", err)
	}
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("t", sessionCols('p', 4), 0, 0); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	recs, err := fetch(b2, "t", 0, 0, 10, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("Fetch after replay = %d recs, %v", len(recs), err)
	}
	if n := len(b2.topics["t"].partitions[0].producers); n != 0 {
		t.Fatalf("replay of untagged records created %d dedup slots", n)
	}
}

func TestSessionOverTCP(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	for seq, cols := range []Columns{sessionCols('x', 8), sessionCols('y', 2)} {
		for i := 0; i < 2; i++ {
			if err := cli.PublishColumns("t", cols, 11, uint64(seq+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := b.Stats()
	if st.MessagesIn != 10 || st.Duplicates != 10 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want 10 and 10", st.MessagesIn, st.Duplicates)
	}
}

// flakySession wraps a broker and fails the first failures sessioned
// publishes after the broker applied them — the ambiguous ack-loss
// shape the producer must retry through.
type flakySession struct {
	*Broker
	failures int
}

func (f *flakySession) PublishColumns(topic string, cols Columns, pid, seq uint64) error {
	if err := f.Broker.PublishColumns(topic, cols, pid, seq); err != nil {
		return err
	}
	if f.failures > 0 {
		f.failures--
		return fmt.Errorf("%w: flaky test transport", ErrAmbiguous)
	}
	return nil
}

func TestProducerRetriesAmbiguousExactlyOnce(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	ft := &flakySession{Broker: b, failures: 2}
	prod := NewProducer(ft, RetryPolicy{Attempts: 5, Backoff: time.Microsecond})
	if err := prod.PublishColumns("t", sessionCols('r', 6)); err != nil {
		t.Fatalf("publish through flaky transport: %v", err)
	}
	st := b.Stats()
	if st.MessagesIn != 6 {
		t.Fatalf("MessagesIn = %d, want 6 (exactly-once effect)", st.MessagesIn)
	}
	if st.Duplicates != 12 {
		t.Fatalf("Duplicates = %d, want 12 (two deduplicated retries)", st.Duplicates)
	}
	// Attempts exhausted before the transport heals → the error surfaces.
	ft.failures = 5
	prod2 := NewProducer(ft, RetryPolicy{Attempts: 2, Backoff: time.Microsecond})
	if err := prod2.PublishColumns("t", sessionCols('s', 2)); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("exhausted retries: %v, want ErrAmbiguous", err)
	}
	// A broker verdict is never retried: backpressure surfaces at once.
	if err := b.SetTopicCapacity("t", 1); err != nil {
		t.Fatal(err)
	}
	ft.failures = 0
	rejected := b.Stats().Rejected
	if err := prod.PublishColumns("t", sessionCols('f', 4)); !errors.Is(err, errPartitionFull) {
		t.Fatalf("full partition: %v, want ErrPartitionFull", err)
	}
	if got := b.Stats().Rejected - rejected; got != 4 {
		t.Fatalf("full batch was attempted %d/4 times, want once", got)
	}
}

func TestProducerSequencesPerTopic(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for _, topic := range []string{"t1", "t2"} {
		if err := b.CreateTopic(topic, 1); err != nil {
			t.Fatal(err)
		}
	}
	prod := NewProducer(b, RetryPolicy{})
	if prod.id == 0 {
		t.Fatal("producer ID is zero")
	}
	for i := 0; i < 3; i++ {
		if err := prod.PublishColumns("t1", sessionCols(byte('a'+i), 2)); err != nil {
			t.Fatal(err)
		}
		if err := prod.PublishColumns("t2", sessionCols(byte('k'+i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.MessagesIn != 12 || st.Duplicates != 0 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want 12 and 0", st.MessagesIn, st.Duplicates)
	}
}

// TestConcurrentProducersDisjointPartitions: two producers publish to one
// broker at once, each only to its own half of the partitions, so every
// batch leaves the other producer's partitions unlocked. Run under -race:
// a batch must not read the dedup state of a partition it does not lock.
func TestConcurrentProducersDisjointPartitions(t *testing.T) {
	const parts, perBatch, batches = 4, 6, 200
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("t", parts); err != nil {
		t.Fatal(err)
	}
	// Keys for producer 0 route to partitions {0, 1}, for producer 1 to {2, 3}.
	const keyLen = 8
	var keys [2][]byte
	for i := 0; len(keys[0]) < perBatch*keyLen || len(keys[1]) < perBatch*keyLen; i++ {
		k := fmt.Appendf(nil, "k%07d", i)
		half := int(fnv1a32(k)%parts) / 2
		if len(keys[half]) < perBatch*keyLen {
			keys[half] = append(keys[half], k...)
		}
	}
	errs := make(chan error, 2)
	for half := 0; half < 2; half++ {
		cols := Columns{Count: perBatch, KeyLen: keyLen, ValLen: 8, Keys: keys[half], Vals: make([]byte, perBatch*8)}
		prod := NewProducer(b, RetryPolicy{})
		go func() {
			for i := 0; i < batches; i++ {
				if err := prod.PublishColumns("t", cols); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.MessagesIn != 2*perBatch*batches || st.Duplicates != 0 {
		t.Fatalf("MessagesIn=%d Duplicates=%d, want %d and 0", st.MessagesIn, st.Duplicates, 2*perBatch*batches)
	}
}

// TestProducerSplitsOversized: a batch above maxBatchBytes travels as
// several frames, each under its own sequence, and all of it lands.
func TestProducerSplitsOversized(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	// 6 records of ~3MB against an 8MB frame cap forces three chunks.
	cols := Columns{Count: 6, KeyLen: 1, ValLen: 3 << 20, Keys: []byte{0, 1, 2, 3, 4, 5}, Vals: make([]byte, 6*(3<<20))}
	prod := NewProducer(cli, RetryPolicy{})
	if err := prod.PublishColumns("t", cols); err != nil {
		t.Fatal(err)
	}
	if end, err := b.EndOffset("t", 0); err != nil || end != 6 {
		t.Fatalf("EndOffset = %d, %v", end, err)
	}
	if seq := b.topics["t"].partitions[0].producers[prod.id]; seq != 3 {
		t.Fatalf("newest applied sequence = %d, want 3 (one per chunk)", seq)
	}
}
