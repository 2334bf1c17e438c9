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
	if got := b.Topics(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Topics = %v", got)
	}
}

func TestPublishFetchOrderWithinPartition(t *testing.T) {
	b := newTestBroker(t, "answer")
	key := []byte("same-key")
	for i := 0; i < 10; i++ {
		if _, _, err := b.Publish("answer", key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// All records share a partition (same key) and must be in order.
	part, _, err := b.Publish("answer", key, []byte{99})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.Fetch("answer", part, 0, 100)
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

func TestPublishRoundRobinCoversPartitions(t *testing.T) {
	b := newTestBroker(t, "t")
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		p, _, err := b.Publish("t", nil, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Errorf("round robin hit %d of 4 partitions", len(seen))
	}
}

func TestFetchValidation(t *testing.T) {
	b := newTestBroker(t, "t")
	if _, err := b.Fetch("missing", 0, 0, 1); !errors.Is(err, ErrNoTopic) {
		t.Errorf("missing topic: %v", err)
	}
	if _, err := b.Fetch("t", 9, 0, 1); !errors.Is(err, ErrNoPartition) {
		t.Errorf("bad partition: %v", err)
	}
	if _, err := b.Fetch("t", 0, -1, 1); !errors.Is(err, ErrBadOffset) {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := b.Fetch("t", 0, 5, 1); !errors.Is(err, ErrBadOffset) {
		t.Errorf("past-end offset: %v", err)
	}
	recs, err := b.Fetch("t", 0, 0, 10)
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
		p, _, err := b.Publish("t", key, []byte("wake"))
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
	part, _, err := b.Publish("t", []byte("kk"), []byte("vvv"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Fetch("t", part, 0, 10); err != nil {
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
		if !errors.Is(err, ErrClosed) {
			t.Errorf("WaitFetch after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFetch not woken by Close")
	}
	if _, _, err := b.Publish("t", nil, []byte("x")); !errors.Is(err, ErrClosed) {
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
				if _, _, err := b.Publish("t", nil, []byte{byte(w), byte(i)}); err != nil {
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
		if _, _, err := b.Publish("answer", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Publish("key", nil, []byte{byte(i)}); err != nil {
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
	if _, _, err := b.Publish("answer", nil, []byte("next")); err != nil {
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
		b.Publish("t", nil, []byte("late"))
	}()
	recs, err := c.PollWait(10, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Value, []byte("late")) {
		t.Errorf("PollWait = %v", recs)
	}
	// Timeout path.
	recs, err = c.PollWait(10, 20*time.Millisecond)
	if err != nil || len(recs) != 0 {
		t.Errorf("PollWait timeout = %v, %v", recs, err)
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
			if _, _, err := b.Publish("t", k, []byte{byte(i)}); err != nil {
				return false
			}
		}
		seen := 0
		for p := 0; p < 3; p++ {
			recs, err := b.Fetch("t", p, 0, len(keys)+1)
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
