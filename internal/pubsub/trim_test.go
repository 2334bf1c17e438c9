package pubsub

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"privapprox/internal/wal"
)

// fill publishes n keyless records of size value bytes to partition 0 of
// a fresh single-partition topic "t"; record i's value is filled with
// byte(i).
func fill(t *testing.T, b *Broker, n, size int) {
	t.Helper()
	if err := b.CreateTopic("t", 1); err != nil && !errors.Is(err, ErrTopicExists) {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := publish(b, "t", nil, bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
}

// retained returns partition 0's first retained offset and slab count.
func retained(t *testing.T, b *Broker) (first int64, slabs int) {
	t.Helper()
	p, err := b.partition("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first(), len(p.slabs)
}

// TestFetchBelowFloorIsBadOffset: once a commit has released the head of
// a partition, a fetch below the first retained offset is ErrBadOffset —
// in-process and, with its identity intact, over TCP — while the floor
// itself and everything above it read as before.
func TestFetchBelowFloorIsBadOffset(t *testing.T) {
	b, _, cli := startServer(t)
	fill(t, b, 10, 8)
	if err := cli.CommitOffset("agg", "t", 0, 10); err != nil {
		t.Fatal(err)
	}
	if first, slabs := retained(t, b); first != 10 || slabs != 0 {
		t.Fatalf("after a full commit: first retained %d in %d slabs, want 10 and none", first, slabs)
	}
	fetches := map[string]func(offset int64) ([]Record, error){
		"in-process": func(offset int64) ([]Record, error) { return fetch(b, "t", 0, offset, 5, 0) },
		"tcp":        func(offset int64) ([]Record, error) { return fetch(cli, "t", 0, offset, 5, 0) },
	}
	for name, fetch := range fetches {
		for _, offset := range []int64{0, 9} {
			if _, err := fetch(offset); !errors.Is(err, ErrBadOffset) {
				t.Errorf("%s: fetch at released offset %d: %v, want ErrBadOffset", name, offset, err)
			}
		}
		if recs, err := fetch(10); err != nil || len(recs) != 0 {
			t.Errorf("%s: fetch at the log end: %d records, %v", name, len(recs), err)
		}
	}
	if end, _ := b.EndOffset("t", 0); end != 10 {
		t.Errorf("a trim moved the end offset to %d", end)
	}
}

// TestTrimFloorIsTheSlowestCommittedGroup: with two committed groups the
// log is released at the slower one; a group that has never committed
// does not hold it back, and a consumer built for such a group after a
// trim starts at the earliest retained offset.
func TestTrimFloorIsTheSlowestCommittedGroup(t *testing.T) {
	b := NewBroker()
	const size = 100 << 10 // two records per slab
	fill(t, b, 8, size)
	idle, err := NewConsumer(b, "idle", "t") // positioned at 0, never commits
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CommitOffset("fast", "t", 0, 8); err != nil {
		t.Fatal(err)
	}
	if first, _ := retained(t, b); first != 8 {
		t.Fatalf("one committed group at 8: first retained %d — the idle group must not pin the log", first)
	}
	fill(t, b, 8, size) // offsets 8..15
	if err := b.CommitOffset("slow", "t", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitOffset("fast", "t", 0, 16); err != nil {
		t.Fatal(err)
	}
	if first, _ := retained(t, b); first != 10 {
		t.Fatalf("groups at 10 and 16: first retained %d, want 10", first)
	}
	if got, _ := b.backlog("t"); got != 6 {
		t.Errorf("backlog = %d, want the slow group's 6", got)
	}
	// The idle consumer's position was released under it: a defined error.
	if _, err := idle.Poll(10); !errors.Is(err, ErrBadOffset) {
		t.Errorf("poll below the floor: %v, want ErrBadOffset", err)
	}
	// A consumer built now for a group with no commit starts at earliest.
	late, err := NewConsumer(b, "late", "t")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := late.Poll(100)
	if err != nil || len(recs) != 6 || recs[0].Offset != 10 {
		t.Fatalf("late group read %d records from %v (%v), want 6 from offset 10", len(recs), recs, err)
	}
	if off, _ := b.CommittedOffset("late", "t", 0); off != 10 {
		t.Errorf("CommittedOffset for a group with no commit = %d, want the earliest retained 10", off)
	}
	if off, _ := b.CommittedOffset("slow", "t", 0); off != 10 {
		t.Errorf("CommittedOffset(slow) = %d", off)
	}
}

// TestTrimMidSlabKeepsTheSlab: a floor that lands inside a slab releases
// the slabs before it and keeps that slab with every record in it, below
// the floor or not.
func TestTrimMidSlabKeepsTheSlab(t *testing.T) {
	b := NewBroker()
	const size = 60 << 10 // four records per slab
	fill(t, b, 12, size)
	if _, slabs := retained(t, b); slabs != 3 {
		t.Fatalf("fixture spans %d slabs, want 3", slabs)
	}
	if err := b.CommitOffset("agg", "t", 0, 6); err != nil { // inside the second slab
		t.Fatal(err)
	}
	if first, slabs := retained(t, b); first != 4 || slabs != 2 {
		t.Fatalf("floor 6: first retained %d in %d slabs, want 4 in 2", first, slabs)
	}
	recs, err := fetch(b, "t", 0, 4, 100, 0)
	if err != nil || len(recs) != 8 {
		t.Fatalf("fetch from the kept slab: %d records, %v", len(recs), err)
	}
	for i, rec := range recs {
		if rec.Offset != int64(4+i) || len(rec.Value) != size || rec.Value[0] != byte(4+i) || rec.Value[size-1] != byte(4+i) {
			t.Fatalf("record %d reads back as offset %d, %d bytes of %#x", 4+i, rec.Offset, len(rec.Value), rec.Value[0])
		}
	}
	if _, err := fetch(b, "t", 0, 3, 1, 0); !errors.Is(err, ErrBadOffset) {
		t.Errorf("fetch in the released slab: %v", err)
	}
}

// TestTrimRecyclesSlabsAndKeepsOffsetsDense: publish → commit → trim →
// publish. Offsets carry on where they were, the released buffer is the
// next tail (no new slab is allocated), and a Fetch result taken before
// the trim is still what it was after the buffer it was copied from has
// been overwritten.
func TestTrimRecyclesSlabsAndKeepsOffsetsDense(t *testing.T) {
	b := NewBroker()
	fill(t, b, 5, 1<<10)
	before, err := fetch(b, "t", 0, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(before))
	for i, rec := range before {
		want[i] = bytes.Clone(rec.Value)
	}
	p, _ := b.partition("t", 0)
	first := &p.slabs[0].buf[0]

	if err := b.CommitOffset("agg", "t", 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, slabs := retained(t, b); slabs != 0 || p.spare == nil {
		t.Fatalf("commit at the end kept %d slabs (spare set aside: %v)", slabs, p.spare != nil)
	}
	for i := 0; i < 5; i++ {
		_, off, err := publishAt(b, "t", nil, bytes.Repeat([]byte{0xEE}, 1<<10))
		if err != nil || off != int64(5+i) {
			t.Fatalf("publish %d after the trim got offset %d (%v), want %d", i, off, err, 5+i)
		}
	}
	if &p.slabs[0].buf[0] != first || p.spare != nil {
		t.Error("the released slab was not reused as the next tail")
	}
	for i, rec := range before {
		if !bytes.Equal(rec.Value, want[i]) {
			t.Errorf("record %d fetched before the trim changed under its holder", i)
		}
	}
	recs, err := fetch(b, "t", 0, 5, 100, 0)
	if err != nil || len(recs) != 5 || recs[0].Offset != 5 || recs[4].Value[0] != 0xEE {
		t.Fatalf("after the trim: %d records from %v, %v", len(recs), recs, err)
	}
	// Steady state: a consumer that commits within every slab's worth of
	// records keeps the partition cycling the buffers it has.
	round := func() {
		for i := 0; i < 200; i++ {
			publish(b, "t", nil, want[0])
		}
		end, _ := b.EndOffset("t", 0)
		b.CommitOffset("agg", "t", 0, end)
	}
	round()
	// Each publish, a batch of one, takes a pooled colScratch; a -race
	// build's pool drops some of them, so only the slab checks above hold
	// there.
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("publishing and committing 200 KiB allocates %.1f times per round", allocs)
	}
}

// wideCols is sessionCols with 1000-byte values: some 250 records fill a
// slab.
func wideCols(tag byte, n int) Columns {
	cols := sessionCols(tag, n)
	cols.ValLen = 1000
	cols.Vals = bytes.Repeat([]byte{tag}, n*cols.ValLen)
	return cols
}

// TestDurableReopenTrimsToTheRestoredFloor: a durable broker keeps its
// WAL whole. Reopening replays all of it — so the log end, and with it
// the next offset, is what it was — then trims memory to the floor the
// meta journal restored (to the slab the floor lands in: replay packs
// the records differently from the first life, which had released and
// reused its slabs). A fetch below that memory floor reads the records
// back from the WAL, keys and values as published and in slabs
// byte-identical to the ones the publishes filled, until a commit
// releases them again; and the session-dedup slots, rebuilt from every
// replayed record, still reject a replay of a batch whose records are
// long released.
func TestDurableReopenTrimsToTheRestoredFloor(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := b.PublishColumns("t", wideCols(byte('a'+seq), 200), 7, seq); err != nil {
			t.Fatal(err)
		}
	}
	published := slabImages(b.topics["t"].partitions[0])
	if err := b.CommitOffset("agg", "t", 0, 600); err != nil {
		t.Fatal(err)
	}
	if first, _ := retained(t, b); first != 600 {
		t.Fatalf("durable broker did not trim its memory at the commit: first retained %d", first)
	}
	if err := b.PublishColumns("t", wideCols('x', 2), 7, 4); err != nil { // offsets 600, 601: above the floor
		t.Fatal(err)
	}
	b.Close()

	b2, err := OpenBroker(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if end, _ := b2.EndOffset("t", 0); end != 602 {
		t.Fatalf("reopened log ends at %d, want 602: the whole WAL must replay", end)
	}
	first, slabs := retained(t, b2)
	if first < 200 || first > 600 || slabs != 1 {
		t.Fatalf("reopened broker retains from %d in %d slabs, want only the slab the restored floor 600 lands in", first, slabs)
	}
	if off, _ := b2.CommittedOffset("never-committed", "t", 0); off != first {
		t.Fatalf("a group with no commit starts at %d, want the memory floor %d", off, first)
	}
	recs, err := fetch(b2, "t", 0, 0, 1000, 0)
	if err != nil || len(recs) != 602 {
		t.Fatalf("fetch below the memory floor: %d records, %v; want the whole log from the WAL", len(recs), err)
	}
	// The reload re-coalesced the journal's one record per offset into the
	// runs the publishes made, byte for byte — a run straddling two slabs
	// included.
	reloaded := slabImages(b2.topics["t"].partitions[0])
	n := 0
	for n < len(reloaded) && n < len(published) && reloaded[n].base < first {
		if reloaded[n].image != published[n].image {
			t.Fatalf("reloaded slab %d\n got %.200s\nwant %.200s", n, reloaded[n].image, published[n].image)
		}
		n++
	}
	if n < 2 || n == len(reloaded) || reloaded[n].base != first {
		t.Fatalf("the reload rebuilt %d slabs like the publishes', want two or more up to the memory floor %d", n, first)
	}
	for i, rec := range recs[:600] {
		tag := byte('a' + 1 + i/200)
		if key := fmt.Sprintf("%c-key-%03d", tag, i%200); rec.Offset != int64(i) || string(rec.Key) != key ||
			!bytes.Equal(rec.Value, bytes.Repeat([]byte{tag}, 1000)) {
			t.Fatalf("record %d reads back as offset %d key %q, want key %q and 1000 × %q", i, rec.Offset, rec.Key, key, tag)
		}
	}
	if string(recs[601].Key) != "x-key-001" {
		t.Fatalf("records above the floor after reopen: %q", recs[601].Key)
	}
	if first, _ := retained(t, b2); first != 0 {
		t.Fatalf("after the reload the partition retains from %d, want 0", first)
	}
	if err := b2.CommitOffset("agg", "t", 0, 602); err != nil {
		t.Fatal(err)
	}
	if first, slabs := retained(t, b2); first != 602 || slabs != 0 {
		t.Fatalf("a commit at the end kept the reloaded records: first retained %d in %d slabs", first, slabs)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := b2.PublishColumns("t", wideCols(byte('a'+seq), 200), 7, seq); err != nil {
			t.Fatal(err)
		}
	}
	if end, _ := b2.EndOffset("t", 0); end != 602 {
		t.Fatalf("a replayed (pid, seq) appended after the trim: log ends at %d", end)
	}
	if st := b2.Stats(); st.Duplicates != 800 {
		t.Errorf("Duplicates = %d, want 800", st.Duplicates)
	}
	if _, off, err := publishAt(b2, "t", nil, []byte("next")); err != nil || off != 602 {
		t.Fatalf("next publish got offset %d (%v), want 602", off, err)
	}
}

// TestDurableReloadRacesPublishAndCommit: fetches below a durable
// partition's memory floor — each one reading the head of the log back
// from the WAL — race publishes that journal to the same WAL and commits
// that trim the same slabs. Every fetch must read the head as published;
// run it under -race -count=10.
func TestDurableReloadRacesPublishAndCommit(t *testing.T) {
	b, err := OpenBroker(t.TempDir(), wal.Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("t", sessionCols('p', 100), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitOffset("agg", "t", 0, 100); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	run(func(int) error { return b.PublishColumns("t", sessionCols('q', 20), 0, 0) })
	run(func(int) error {
		end, err := b.EndOffset("t", 0)
		if err != nil {
			return err
		}
		return b.CommitOffset("agg", "t", 0, end)
	})
	for range 2 {
		run(func(i int) error {
			from := int64(i % 50)
			recs, err := fetch(b, "t", 0, from, 50, 0)
			if err != nil {
				return fmt.Errorf("fetch from %d: %w", from, err)
			}
			if len(recs) != 50 {
				return fmt.Errorf("fetch from %d read %d records, want 50", from, len(recs))
			}
			for j, rec := range recs {
				if want := fmt.Sprintf("p-key-%03d", from+int64(j)); rec.Offset != from+int64(j) || string(rec.Key) != want {
					return fmt.Errorf("fetch from %d: record %d is offset %d key %q, want %q", from, j, rec.Offset, rec.Key, want)
				}
			}
			return nil
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if end, _ := b.EndOffset("t", 0); end != 100+rounds*20 {
		t.Fatalf("log ends at %d, want %d", end, 100+rounds*20)
	}
}

// countingTransport counts the commits that reach the broker.
type countingTransport struct {
	*Broker
	commits []string
}

func (c *countingTransport) CommitOffset(group, topic string, partition int, offset int64) error {
	c.commits = append(c.commits, fmt.Sprintf("%s/%d@%d", topic, partition, offset))
	return c.Broker.CommitOffset(group, topic, partition, offset)
}

// TestConsumerCommitSendsOnlyWhatMoved: Commit issues one CommitOffset
// per partition whose position changed since the last commit — over TCP
// a round-trip each — and none for the rest.
func TestConsumerCommitSendsOnlyWhatMoved(t *testing.T) {
	b := newTestBroker(t, "t") // four partitions
	ct := &countingTransport{Broker: b}
	c, err := NewConsumer(ct, "agg", "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil || len(ct.commits) != 0 {
		t.Fatalf("commit of an unmoved consumer sent %v (%v)", ct.commits, err)
	}
	key := keyFor(t, 4, 2)
	for i := 0; i < 3; i++ {
		if err := publish(b, "t", key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if recs, err := c.Poll(10); err != nil || len(recs) != 3 {
		t.Fatalf("poll: %d records, %v", len(recs), err)
	}
	for i := 0; i < 2; i++ { // the second commit has nothing to say
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(ct.commits) != 1 || ct.commits[0] != "t/2@3" {
		t.Fatalf("commits sent: %v, want one for partition 2 at offset 3", ct.commits)
	}
	// A consumer resuming from the group's commit starts out in step.
	c2, err := NewConsumer(ct, "agg", "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Commit(); err != nil || len(ct.commits) != 1 {
		t.Fatalf("resumed consumer re-sent the group's own commit: %v (%v)", ct.commits, err)
	}
}
