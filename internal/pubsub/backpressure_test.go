package pubsub

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
)

// partitionForKey mirrors the broker's key → partition routing so tests
// can craft keys that land on chosen partitions.
func partitionForKey(key []byte, partitions int) int {
	h := fnv.New32a()
	h.Write(key)
	part := int(h.Sum32()) % partitions
	if part < 0 {
		part += partitions
	}
	return part
}

// keyFor brute-forces a (fixed-width) key routed to the wanted partition.
func keyFor(t *testing.T, partitions, want int) []byte {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if partitionForKey(k, partitions) == want {
			return k
		}
	}
	t.Fatalf("no key found for partition %d/%d", want, partitions)
	return nil
}

func TestPublishCapacityReject(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTopicCapacity("answer", 3); err != nil {
		t.Fatal(err)
	}
	key := keyFor(t, 1, 0)
	for i := 0; i < 3; i++ {
		if err := publish(b, "answer", key, []byte("v")); err != nil {
			t.Fatalf("publish %d within capacity: %v", i, err)
		}
	}
	err := publish(b, "answer", key, []byte("v"))
	if !errors.Is(err, errPartitionFull) {
		t.Fatalf("publish beyond capacity: got %v, want ErrPartitionFull", err)
	}
	if end, _ := b.EndOffset("answer", 0); end != 3 {
		t.Fatalf("end offset after reject = %d, want 3", end)
	}
	if s := b.Stats(); s.Rejected != 1 {
		t.Fatalf("Stats.Rejected = %d, want 1", s.Rejected)
	}
}

func TestCommitFreesCapacity(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTopicCapacity("answer", 2); err != nil {
		t.Fatal(err)
	}
	key := keyFor(t, 1, 0)
	for i := 0; i < 2; i++ {
		if err := publish(b, "answer", key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := publish(b, "answer", key, []byte("v")); !errors.Is(err, errPartitionFull) {
		t.Fatalf("expected full, got %v", err)
	}
	// Consuming alone does not free space; committing does. With two
	// groups, the *slowest* committed offset is the floor.
	if err := b.CommitOffset("fast", "answer", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitOffset("slow", "answer", 0, 1); err != nil {
		t.Fatal(err)
	}
	// Floor is 1 → backlog 1 → room for exactly 1 more.
	if err := publish(b, "answer", key, []byte("v")); err != nil {
		t.Fatalf("publish after commit freed space: %v", err)
	}
	if err := publish(b, "answer", key, []byte("v")); !errors.Is(err, errPartitionFull) {
		t.Fatalf("expected full again, got %v", err)
	}
}

// TestPublishColumnsMixedPartitionAllOrNothing is the regression test
// for the mixed-partition batch case: a batch spanning a full partition
// and an empty one must publish nothing at all.
func TestPublishColumnsMixedPartitionAllOrNothing(t *testing.T) {
	const parts = 4
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("answer", parts); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTopicCapacity("answer", 2); err != nil {
		t.Fatal(err)
	}
	fullKey := keyFor(t, parts, 1)
	emptyKey := keyFor(t, parts, 2)
	// Fill partition 1 to capacity.
	for i := 0; i < 2; i++ {
		if err := publish(b, "answer", fullKey, []byte("fill")); err != nil {
			t.Fatal(err)
		}
	}
	// Records 0 and 2 would land on empty partition 2; record 1 is
	// refused: partition 1 is full.
	batch := Columns{Count: 3, KeyLen: len(fullKey), ValLen: 1, Vals: []byte("abc")}
	for _, k := range [][]byte{emptyKey, fullKey, emptyKey} {
		batch.Keys = append(batch.Keys, k...)
	}
	if err := b.PublishColumns("answer", batch, 0, 0); !errors.Is(err, errPartitionFull) {
		t.Fatalf("mixed batch: got %v, want ErrPartitionFull", err)
	}
	// Nothing from the batch may have landed anywhere.
	wantEnds := map[int]int64{0: 0, 1: 2, 2: 0, 3: 0}
	for p := 0; p < parts; p++ {
		end, err := b.EndOffset("answer", p)
		if err != nil {
			t.Fatal(err)
		}
		if end != wantEnds[p] {
			t.Errorf("partition %d end = %d, want %d (batch partially applied)", p, end, wantEnds[p])
		}
	}
	if s := b.Stats(); s.Rejected != int64(batch.Count) {
		t.Errorf("Stats.Rejected = %d, want %d", s.Rejected, batch.Count)
	}
	// After freeing space the identical batch retries cleanly — the
	// all-or-nothing contract is what makes blind retry duplicate-free.
	if err := b.CommitOffset("g", "answer", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.PublishColumns("answer", batch, 0, 0); err != nil {
		t.Fatalf("retry after commit: %v", err)
	}
	if end, _ := b.EndOffset("answer", 2); end != 2 {
		t.Fatalf("partition 2 end after retry = %d, want 2", end)
	}
}

func TestStatsBacklog(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.CreateTopic("answer", 2); err != nil {
		t.Fatal(err)
	}
	k0 := keyFor(t, 2, 0)
	k1 := keyFor(t, 2, 1)
	for i := 0; i < 3; i++ {
		if err := publish(b, "answer", k0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := publish(b, "answer", k1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.TotalBacklog != 4 {
		t.Fatalf("TotalBacklog = %d, want 4", s.TotalBacklog)
	}
	if s.MaxBacklog != 3 {
		t.Fatalf("MaxBacklog = %d, want 3", s.MaxBacklog)
	}
	if lag, err := b.backlog("answer"); err != nil || lag != 4 {
		t.Fatalf("backlog = %d, %v; want 4", lag, err)
	}
	if err := b.CommitOffset("g", "answer", 0, 2); err != nil {
		t.Fatal(err)
	}
	s = b.Stats()
	if s.TotalBacklog != 2 {
		t.Fatalf("TotalBacklog after commit = %d, want 2", s.TotalBacklog)
	}
	if s.MaxBacklog != 1 {
		t.Fatalf("MaxBacklog after commit = %d, want 1", s.MaxBacklog)
	}
	if _, err := b.backlog("nope"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("backlog unknown topic: %v", err)
	}
}

func TestSetTopicCapacityErrors(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if err := b.SetTopicCapacity("nope", 5); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("SetTopicCapacity unknown topic: %v", err)
	}
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTopicCapacity("answer", 1); err != nil {
		t.Fatal(err)
	}
	key := keyFor(t, 1, 0)
	if err := publish(b, "answer", key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := publish(b, "answer", key, []byte("v")); !errors.Is(err, errPartitionFull) {
		t.Fatalf("expected full, got %v", err)
	}
	// capacity <= 0 removes the bound.
	if err := b.SetTopicCapacity("answer", 0); err != nil {
		t.Fatal(err)
	}
	if err := publish(b, "answer", key, []byte("v")); err != nil {
		t.Fatalf("publish after unbounding: %v", err)
	}
}

// TestTCPPartitionFullSentinel checks the errPartitionFull contract
// across the wire: the sentinel must survive serialization so remote
// publishers can errors.Is on it and retry once consumers commit.
func TestTCPPartitionFullSentinel(t *testing.T) {
	b, _, cli := startServer(t)
	if err := b.CreateTopic("answer", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTopicCapacity("answer", 1); err != nil {
		t.Fatal(err)
	}
	key := keyFor(t, 1, 0)
	if err := publish(cli, "answer", key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	err := publish(cli, "answer", key, []byte("v"))
	if !errors.Is(err, errPartitionFull) {
		t.Fatalf("remote publish beyond capacity: got %v, want ErrPartitionFull", err)
	}
	batch := Columns{Count: 1, KeyLen: len(key), ValLen: 1, Keys: key, Vals: []byte("v")}
	if err := cli.PublishColumns("answer", batch, 0, 0); !errors.Is(err, errPartitionFull) {
		t.Fatalf("remote batch beyond capacity: got %v, want ErrPartitionFull", err)
	}
	// A commit on the broker frees space; the refused batch had no
	// effect, so the identical retry lands.
	if err := b.CommitOffset("g", "answer", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.PublishColumns("answer", batch, 0, 0); err != nil {
		t.Fatalf("retry after commit over TCP: %v", err)
	}
	// Other sentinels survive the wire too.
	if _, err := cli.Partitions("ghost"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("remote unknown topic: got %v, want ErrNoTopic", err)
	}
}
