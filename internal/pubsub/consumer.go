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
	// PollWait uses it to stop instead of spinning until its deadline.
	closed func() bool
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
// available; an empty slice means the consumer is caught up.
func (c *Consumer) Poll(max int) ([]Record, error) {
	if max <= 0 {
		return nil, fmt.Errorf("pubsub: non-positive poll size %d", max)
	}
	var out []Record
	for _, sub := range c.subs {
		for p := range sub.next {
			if len(out) >= max {
				return out, nil
			}
			recs, err := c.t.FetchWait(sub.topic, p, sub.next[p], max-len(out), 0)
			if err != nil {
				return nil, err
			}
			if len(recs) == 0 {
				continue
			}
			sub.next[p] = recs[len(recs)-1].Offset + 1
			if out == nil {
				out = recs // a fetch result is the caller's own
			} else {
				out = append(out, recs...)
			}
		}
	}
	return out, nil
}

// PollWait is Poll that blocks up to timeout for the first record.
// After an empty sweep it parks in a sliced blocking fetch on its
// first subscribed partition rather than spinning — over the TCP
// transport that is one round-trip per wait slice instead of one per
// partition per spin (a record arriving on another partition is picked
// up by the re-sweep after at most one slice).
func (c *Consumer) PollWait(max int, timeout time.Duration) ([]Record, error) {
	const slice = 20 * time.Millisecond
	deadline := time.Now().Add(timeout)
	for {
		recs, err := c.Poll(max)
		if err != nil || len(recs) > 0 {
			return recs, err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		if c.closed != nil && c.closed() {
			return nil, ErrClosed
		}
		if remain > slice {
			remain = slice
		}
		first := c.subs[0]
		recs, err = c.t.FetchWait(first.topic, 0, first.next[0], max, remain)
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			first.next[0] = recs[len(recs)-1].Offset + 1
			return recs, nil
		}
	}
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
