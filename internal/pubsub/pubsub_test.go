package pubsub

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestBroker(t *testing.T, topics ...string) *Broker {
	t.Helper()
	b := NewBroker()
	for _, topic := range topics {
		if err := b.CreateTopic(topic, 4); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// publish publishes one record, keyed or keyless, as a batch of one: the
// only single-record write there is.
func publish(tr Transport, topic string, key, value []byte) error {
	return tr.PublishColumns(topic, Columns{Count: 1, KeyLen: len(key), ValLen: len(value), Keys: key, Vals: value}, 0, 0)
}

// publishAt is publish for a topic's only publisher, reporting where the
// record landed: the partition its key hashes to and its offset there.
func publishAt(tr Transport, topic string, key, value []byte) (part int, off int64, err error) {
	n, err := tr.Partitions(topic)
	if err != nil {
		return 0, 0, err
	}
	part = int(fnv1a32(key) % uint32(n))
	if off, err = tr.EndOffset(topic, part); err != nil {
		return 0, 0, err
	}
	return part, off, publish(tr, topic, key, value)
}

// fetch reads up to max records of a partition from offset, waiting up
// to wait for the first, as Records viewing the fetch's private memory.
func fetch(tr Transport, topic string, partition int, offset int64, max int, wait time.Duration) ([]Record, error) {
	runs, _, err := tr.FetchWait(topic, partition, offset, max, wait, nil, nil)
	return runRecords(topic, partition, runs), err
}

// topicNames lists the broker's topic names.
func (b *Broker) topicNames() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	return out
}

// backlog returns one topic's total unconsumed records: the sum over
// partitions of end offset minus the slowest committed consumer offset.
func (b *Broker) backlog(topic string) (int64, error) {
	b.mu.RLock()
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	var total int64
	for i, p := range t.partitions {
		p.mu.Lock()
		end := p.count
		p.mu.Unlock()
		total += end - b.committedFloor(t.name, i)
	}
	return total, nil
}

func TestCreateTopicValidation(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("", 1); err == nil {
		t.Error("expected error for empty name")
	}
	if err := b.CreateTopic("t", 0); err == nil {
		t.Error("expected error for zero partitions")
	}
	if err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 2); !errors.Is(err, ErrTopicExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if n, err := b.Partitions("t"); err != nil || n != 2 {
		t.Errorf("Partitions = %d, %v", n, err)
	}
	if _, err := b.Partitions("missing"); !errors.Is(err, ErrNoTopic) {
		t.Errorf("missing topic: %v", err)
	}
	if got := b.topicNames(); len(got) != 1 || got[0] != "t" {
		t.Errorf("topicNames = %v", got)
	}
}

func TestPublishFetchOrderWithinPartition(t *testing.T) {
	b := newTestBroker(t, "answer")
	key := []byte("same-key")
	for i := 0; i < 10; i++ {
		if err := publish(b, "answer", key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// All records share a partition (same key) and must be in order.
	part, _, err := publishAt(b, "answer", key, []byte{99})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fetch(b, "answer", part, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(i) {
			t.Errorf("record %d offset = %d", i, r.Offset)
		}
	}
	if recs[5].Value[0] != 5 {
		t.Errorf("order violated: %v", recs[5].Value)
	}
}

func TestFetchValidation(t *testing.T) {
	b := newTestBroker(t, "t")
	if _, err := fetch(b, "missing", 0, 0, 1, 0); !errors.Is(err, ErrNoTopic) {
		t.Errorf("missing topic: %v", err)
	}
	if _, err := fetch(b, "t", 9, 0, 1, 0); !errors.Is(err, errNoPartition) {
		t.Errorf("bad partition: %v", err)
	}
	if _, err := fetch(b, "t", 0, -1, 1, 0); !errors.Is(err, ErrBadOffset) {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := fetch(b, "t", 0, 5, 1, 0); !errors.Is(err, ErrBadOffset) {
		t.Errorf("past-end offset: %v", err)
	}
	recs, err := fetch(b, "t", 0, 0, 10, 0)
	if err != nil || len(recs) != 0 {
		t.Errorf("empty fetch = %v, %v", recs, err)
	}
}

func TestWaitFetchWakesOnPublish(t *testing.T) {
	b := newTestBroker(t, "t")
	done := make(chan []Run, 1)
	go func() {
		runs, _, err := b.FetchWait("t", 0, 0, 10, 5*time.Second, nil, nil)
		if err != nil {
			t.Error(err)
		}
		done <- runs
	}()
	time.Sleep(20 * time.Millisecond)
	// Publish directly into partition 0 by probing keys.
	for i := 0; ; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		p, _, err := publishAt(b, "t", key, []byte("wake"))
		if err != nil {
			t.Fatal(err)
		}
		if p == 0 {
			break
		}
	}
	select {
	case recs := <-done:
		if len(recs) == 0 {
			t.Error("WaitFetch returned empty after publish")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFetch never woke")
	}
}

func TestWaitFetchTimesOut(t *testing.T) {
	b := newTestBroker(t, "t")
	start := time.Now()
	runs, _, err := b.FetchWait("t", 0, 0, 10, 30*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Error("expected empty result on timeout")
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("returned before the timeout")
	}
}

func TestOffsetsCommit(t *testing.T) {
	b := newTestBroker(t, "t")
	if off, err := b.CommittedOffset("g", "t", 0); err != nil || off != 0 {
		t.Errorf("fresh committed offset = %d, %v", off, err)
	}
	if err := b.CommitOffset("g", "t", 0, 7); err != nil {
		t.Fatal(err)
	}
	if off, _ := b.CommittedOffset("g", "t", 0); off != 7 {
		t.Errorf("committed = %d, want 7", off)
	}
	if err := b.CommitOffset("g", "t", 0, -1); !errors.Is(err, ErrBadOffset) {
		t.Errorf("negative commit: %v", err)
	}
	if err := b.CommitOffset("g", "missing", 0, 1); !errors.Is(err, ErrNoTopic) {
		t.Errorf("missing topic commit: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	b := newTestBroker(t, "t")
	part, _, err := publishAt(b, "t", []byte("kk"), []byte("vvv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fetch(b, "t", part, 0, 10, 0); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.MessagesIn != 1 || st.BytesIn != 5 {
		t.Errorf("in stats = %+v", st)
	}
	if st.MessagesOut != 1 || st.BytesOut != 5 {
		t.Errorf("out stats = %+v", st)
	}
}

func TestCloseStopsPublishAndWakesWaiters(t *testing.T) {
	b := newTestBroker(t, "t")
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.FetchWait("t", 0, 0, 1, 10*time.Second, nil, nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, errClosed) {
			t.Errorf("WaitFetch after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFetch not woken by Close")
	}
	if err := publish(b, "t", nil, []byte("x")); !errors.Is(err, errClosed) {
		t.Errorf("Publish after close: %v", err)
	}
}

func TestConcurrentPublishersKeepAllRecords(t *testing.T) {
	b := newTestBroker(t, "t")
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := publish(b, "t", nil, []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for p := 0; p < 4; p++ {
		end, err := b.EndOffset("t", p)
		if err != nil {
			t.Fatal(err)
		}
		total += end
	}
	if total != writers*perWriter {
		t.Errorf("total records = %d, want %d", total, writers*perWriter)
	}
}

func TestConsumerPollAndCommitResume(t *testing.T) {
	b := newTestBroker(t, "answer", "key")
	for i := 0; i < 20; i++ {
		if err := publish(b, "answer", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := publish(b, "key", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewConsumer(b, "agg", "answer", "key")
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for {
		recs, err := c.Poll(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
	}
	if len(got) != 40 {
		t.Fatalf("polled %d records, want 40", len(got))
	}
	if lag, _ := c.Lag(); lag != 0 {
		t.Errorf("lag = %d, want 0", lag)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	// A new group member resumes with nothing to read.
	c2, err := NewConsumer(b, "agg", "answer", "key")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c2.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("resumed consumer read %d records, want 0", len(recs))
	}
	// A different group starts at the earliest retained offset, and the
	// only committed group has released everything it read.
	c3, err := NewConsumer(b, "other", "answer")
	if err != nil {
		t.Fatal(err)
	}
	recs, err = c3.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("fresh group read %d released records, want 0", len(recs))
	}
	if err := publish(b, "answer", nil, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if recs, err = c3.Poll(100); err != nil || len(recs) != 1 {
		t.Errorf("fresh group read %d records (%v) after a new publish, want 1", len(recs), err)
	}
}

func TestConsumerValidation(t *testing.T) {
	b := newTestBroker(t, "t")
	if _, err := NewConsumer(b, "", "t"); err == nil {
		t.Error("expected error for empty group")
	}
	if _, err := NewConsumer(b, "g"); err == nil {
		t.Error("expected error for no topics")
	}
	if _, err := NewConsumer(b, "g", "missing"); err == nil {
		t.Error("expected error for missing topic")
	}
	c, _ := NewConsumer(b, "g", "t")
	if _, err := c.Poll(0); err == nil {
		t.Error("expected error for poll size 0")
	}
}

func TestConsumerPollWait(t *testing.T) {
	b := newTestBroker(t, "t")
	c, err := NewConsumer(b, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		publish(b, "t", nil, []byte("late"))
	}()
	runs, err := c.PollRuns(10, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Count != 1 || !bytes.Equal(runs[0].Val(0), []byte("late")) {
		t.Errorf("PollRuns = %v", runs)
	}
	// Timeout path.
	runs, err = c.PollRuns(10, 20*time.Millisecond)
	if err != nil || len(runs) != 0 {
		t.Errorf("PollRuns timeout = %v, %v", runs, err)
	}
}

// TestConsumerPollEndsOnClose: a consumer waiting in a poll over an
// in-process broker returns errClosed within one wait slice of the
// broker closing, not at the end of its wait.
func TestConsumerPollEndsOnClose(t *testing.T) {
	b := newTestBroker(t, "t")
	c, err := NewConsumer(b, "g", "t")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan time.Time, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		closed <- time.Now()
		b.Close()
	}()
	runs, err := c.PollRuns(10, 10*time.Second)
	woke := time.Now()
	if !errors.Is(err, errClosed) || len(runs) != 0 {
		t.Fatalf("PollRuns over a closing broker = %v, %v; want ErrClosed", runs, err)
	}
	// The poll waits in 20 ms slices: one slice plus scheduling slack,
	// far below the 10 s wait.
	if lag := woke.Sub(<-closed); lag > 250*time.Millisecond {
		t.Errorf("poll woke %v after Close", lag)
	}
}

// Property: every published record is fetched exactly once across
// partitions, regardless of key distribution.
func TestPublishFetchExactlyOnceProperty(t *testing.T) {
	f := func(keys [][]byte) bool {
		if len(keys) == 0 {
			return true
		}
		if len(keys) > 200 {
			keys = keys[:200]
		}
		b := NewBroker()
		if err := b.CreateTopic("t", 3); err != nil {
			return false
		}
		for i, k := range keys {
			if len(k) == 0 {
				k = []byte{byte(i)}
			}
			if err := publish(b, "t", k, []byte{byte(i)}); err != nil {
				return false
			}
		}
		seen := 0
		for p := 0; p < 3; p++ {
			recs, err := fetch(b, "t", p, 0, len(keys)+1, 0)
			if err != nil {
				return false
			}
			seen += len(recs)
		}
		return seen == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
