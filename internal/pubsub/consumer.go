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
	// runs, mem and parts are one poll's fetch memory: the runs read,
	// the arena their bodies were fetched into (an in-process fetch's
	// copy, a TCP fetch's reply frames), and which partition each run
	// came from. PollRuns reuses them from poll to poll, so a drain's
	// steady state fetches into one arena. A poll that finds nothing
	// drops every view of the arena; the arena itself goes after
	// idlePolls such polls in a row, after a failed poll, and after a
	// poll that grew it beyond maxBatchBytes.
	runs  []Run
	mem   []byte
	parts []polled
	// idle counts the polls in a row that found nothing.
	idle int
}

// idlePolls is how many empty polls in a row release a consumer's fetch
// arena. A drain ends on one or two, which must not release it; an idle
// node's drain polls every 50 ms, so its arena goes within 0.2 s. It
// goes once: the next empty TCP fetch reads its reply frame, a few
// bytes, into a new arena that the polls after it keep, so a consumer
// that is almost always idle — a control-topic follower — polls without
// allocating.
const idlePolls = 4

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

// NewConsumer subscribes a group member to the given topics over any
// Transport — an in-process *Broker or a TCP *Client — resuming from the
// group's committed offsets.
func NewConsumer(t Transport, group string, topics ...string) (*Consumer, error) {
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
// are the caller's own, like a fetch's: Poll reads them into the
// consumer's arena, as PollRuns does, and copies their bytes into one
// buffer made for the caller. Every product reader polls runs; Poll
// stays only because bench/layers.go compiles against it.
func (c *Consumer) Poll(max int) ([]Record, error) {
	n, err := c.poll(max, 0)
	if n == 0 {
		return nil, err
	}
	size := 0
	for _, r := range c.runs {
		size += len(r.Body)
	}
	own, out := make([]byte, 0, size), make([]Record, 0, n)
	at := 0
	for _, pp := range c.parts {
		for _, r := range c.runs[at:pp.end] {
			from := len(own)
			own = append(own, r.Body...)
			r.Body = own[from:]
			out = appendRun(out, c.subs[pp.sub].topic, pp.partition, r)
		}
		at = pp.end
	}
	return out, nil
}

// PollRuns is Poll in runs, waiting up to wait for the first record: an
// empty sweep parks in a sliced blocking fetch on the first subscribed
// partition (over TCP, one round-trip per slice), which a closing broker
// ends with errClosed. The runs and their bodies are the consumer's,
// valid until its next poll reuses their memory: a drain polls in one
// arena, on either transport, and no reader may keep a view into it.
// The arena outlives the empty poll that ends a drain; a consumer idle
// for idlePolls polls releases it and holds no fetched bytes.
func (c *Consumer) PollRuns(max int, wait time.Duration) ([]Run, error) {
	if n, err := c.poll(max, wait); n == 0 {
		return nil, err
	}
	return c.runs, nil
}

// poll reads up to max records into the consumer's fetch memory,
// reusing whatever it holds, sweeping the subscriptions in order and,
// while a sweep finds nothing, waiting out wait in slices on the first
// partition. It returns the records read. On finding nothing it drops
// every view of the arena, and the arena too once the consumer has been
// idle for idlePolls polls; on failing it drops both.
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
		if n, err = c.fetch(0, 0, max, min(remain, slice)); err != nil || n > 0 {
			break
		}
	}
	if err != nil || n == 0 {
		clear(c.runs)
		c.runs, c.parts = c.runs[:0], c.parts[:0]
		if c.idle++; err != nil || c.idle == idlePolls {
			c.mem = nil
		}
		return 0, err
	}
	c.idle = 0
	if cap(c.mem) > maxBatchBytes {
		c.mem = nil // the runs keep it until the next poll; no later poll reuses it
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
		return fmt.Errorf("%w: %d", errNoPartition, partition)
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
