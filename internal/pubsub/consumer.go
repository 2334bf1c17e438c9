package pubsub

import (
	"fmt"
	"slices"
	"time"
)

// Consumer reads one or more topics on behalf of a consumer group,
// tracking in-memory positions and committing them to the broker on
// demand — the subset of Kafka's consumer API the aggregator needs. It
// works over any Transport, so the same consumer code drains an
// in-process broker or a remote TCP proxy.
type Consumer struct {
	t     Transport
	group string
	// subs is the poll order, fixed at construction: topics sorted, each
	// with its partitions' next-read offsets indexed by partition.
	subs []subscription
	// closed, when non-nil, reports that the backing broker shut down;
	// a waiting poll uses it to stop instead of spinning until its
	// deadline.
	closed func() bool
	// runs, mem and parts are one poll's fetch memory: the runs read,
	// the bytes an in-process fetch copied their bodies into, and which
	// partition each run came from. PollRuns reuses them from poll to
	// poll; a poll that finds nothing drops the bytes and every view of
	// them, and keeps only the two small slices' capacity.
	runs  []Run
	mem   []byte
	parts []polled
}

// polled is one partition's share of a poll: the runs before c.runs[end]
// and after the previous share's end.
type polled struct {
	sub, partition, end int
}

type subscription struct {
	topic string
	next  []int64
	// committed is the group's offset as the broker last acknowledged it.
	committed []int64
}

// NewConsumer subscribes a group member to an in-process broker's
// topics, resuming from the group's committed offsets.
func NewConsumer(b *Broker, group string, topics ...string) (*Consumer, error) {
	c, err := NewTransportConsumer(b, group, topics...)
	if err != nil {
		return nil, err
	}
	c.closed = b.isClosed
	return c, nil
}

// NewTransportConsumer subscribes a group member to the given topics
// over any Transport, resuming from the group's committed offsets.
func NewTransportConsumer(t Transport, group string, topics ...string) (*Consumer, error) {
	if group == "" {
		return nil, fmt.Errorf("pubsub: empty consumer group")
	}
	if len(topics) == 0 {
		return nil, fmt.Errorf("pubsub: no topics to subscribe")
	}
	c := &Consumer{t: t, group: group}
	topics = slices.Compact(slices.Sorted(slices.Values(topics)))
	for _, topic := range topics {
		nparts, err := t.Partitions(topic)
		if err != nil {
			return nil, err
		}
		next := make([]int64, nparts)
		for p := range next {
			if next[p], err = t.CommittedOffset(group, topic, p); err != nil {
				return nil, err
			}
		}
		c.subs = append(c.subs, subscription{topic: topic, next: next, committed: slices.Clone(next)})
	}
	return c, nil
}

// Poll returns up to max records across all subscribed partitions,
// advancing in-memory positions. It returns immediately with whatever is
// available; an empty slice means the consumer is caught up. The records
// are the caller's own, like a fetch's.
func (c *Consumer) Poll(max int) ([]Record, error) { return c.PollWait(max, 0) }

// PollWait is Poll that blocks up to timeout for the first record. After
// an empty sweep it parks in a sliced blocking fetch on its first
// subscribed partition rather than spinning — over the TCP transport
// that is one round-trip per wait slice instead of one per partition per
// spin (a record arriving on another partition is picked up by the
// re-sweep after at most one slice).
func (c *Consumer) PollWait(max int, timeout time.Duration) ([]Record, error) {
	c.mem = nil // the records' bytes will be the caller's: fetch into new ones
	n, err := c.poll(max, timeout)
	if n == 0 {
		return nil, err
	}
	out := make([]Record, 0, n)
	at := 0
	for _, pp := range c.parts {
		for _, r := range c.runs[at:pp.end] {
			out = appendRun(out, c.subs[pp.sub].topic, pp.partition, r)
		}
		at = pp.end
	}
	// The bytes are the caller's now; the consumer keeps no view of them.
	clear(c.runs)
	c.mem = nil
	return out, nil
}

// PollRuns is PollWait in runs, with no Record made: it reads up to max
// records as runs, in poll order, waiting up to wait for the first. The
// runs and their bodies are the consumer's: they stay valid until its
// next poll, which reuses their memory, so a drain polls in one arena.
// A poll that finds nothing releases it — an idle consumer holds no
// fetched bytes.
func (c *Consumer) PollRuns(max int, wait time.Duration) ([]Run, error) {
	if n, err := c.poll(max, wait); n == 0 {
		return nil, err
	}
	return c.runs, nil
}

// poll reads up to max records into the consumer's fetch memory,
// reusing whatever it holds, sweeping the subscriptions in order and,
// while a sweep finds nothing, waiting out wait in slices on the first
// partition. It returns the records read, and on finding nothing or
// failing drops the fetched bytes.
func (c *Consumer) poll(max int, wait time.Duration) (n int, err error) {
	if max <= 0 {
		return 0, fmt.Errorf("pubsub: non-positive poll size %d", max)
	}
	const slice = 20 * time.Millisecond
	clear(c.runs)
	c.runs, c.mem, c.parts = c.runs[:0], c.mem[:0], c.parts[:0]
	deadline := time.Now().Add(wait)
	for n, err = c.sweep(max); err == nil && n == 0; n, err = c.sweep(max) {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		if c.closed != nil && c.closed() {
			err = ErrClosed
			break
		}
		if n, err = c.fetch(0, 0, max, min(remain, slice)); err != nil || n > 0 {
			break
		}
	}
	if err != nil || n == 0 {
		clear(c.runs)
		c.runs, c.mem, c.parts = c.runs[:0], nil, c.parts[:0]
		return 0, err
	}
	return n, nil
}

// sweep fetches from every subscribed partition in order until max
// records are read or the partitions run dry.
func (c *Consumer) sweep(max int) (n int, err error) {
	for s, sub := range c.subs {
		for p := range sub.next {
			if n >= max {
				return n, nil
			}
			got, err := c.fetch(s, p, max-n, 0)
			if err != nil {
				return 0, err
			}
			n += got
		}
	}
	return n, nil
}

// fetch appends up to max records of partition p of subscription s to
// the poll's runs and advances its position, returning how many it read.
func (c *Consumer) fetch(s, p, max int, wait time.Duration) (n int, err error) {
	sub, had := &c.subs[s], len(c.runs)
	if c.runs, c.mem, err = c.t.FetchWait(sub.topic, p, sub.next[p], max, wait, c.runs, c.mem); err != nil {
		return 0, err
	}
	for _, r := range c.runs[had:] {
		n += r.Count
		sub.next[p] = r.Offset + int64(r.Count)
	}
	if n > 0 {
		c.parts = append(c.parts, polled{sub: s, partition: p, end: len(c.runs)})
	}
	return n, nil
}

// Positions returns a deep copy of the consumer's next-read offsets —
// the cut a checkpointer records alongside the state derived from
// everything below it.
func (c *Consumer) Positions() map[string]map[int]int64 {
	out := make(map[string]map[int]int64, len(c.subs))
	for _, sub := range c.subs {
		tp := make(map[int]int64, len(sub.next))
		for p, off := range sub.next {
			tp[p] = off
		}
		out[sub.topic] = tp
	}
	return out
}

// Seek overrides the next-read offset of one subscribed partition — the
// restore half of Positions: a restarted consumer resumes from a
// checkpoint's recorded cut instead of the broker's committed offsets.
func (c *Consumer) Seek(topic string, partition int, offset int64) error {
	i := slices.IndexFunc(c.subs, func(s subscription) bool { return s.topic == topic })
	if i < 0 {
		return fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	if partition < 0 || partition >= len(c.subs[i].next) {
		return fmt.Errorf("%w: %d", ErrNoPartition, partition)
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrBadOffset, offset)
	}
	c.subs[i].next[partition] = offset
	return nil
}

// Commit persists the positions that moved since the last commit, one
// CommitOffset each, so another group member can resume after a failure.
// It is also the consumer's statement that it will never read below them
// again: the broker releases what every committed group has passed.
func (c *Consumer) Commit() error {
	for _, sub := range c.subs {
		for p, off := range sub.next {
			if off == sub.committed[p] {
				continue
			}
			if err := c.t.CommitOffset(c.group, sub.topic, p, off); err != nil {
				return err
			}
			sub.committed[p] = off
		}
	}
	return nil
}

// Lag returns the total number of unread records across subscriptions.
func (c *Consumer) Lag() (int64, error) {
	var lag int64
	for _, sub := range c.subs {
		for p, off := range sub.next {
			end, err := c.t.EndOffset(sub.topic, p)
			if err != nil {
				return 0, err
			}
			lag += end - off
		}
	}
	return lag, nil
}
