// Package pubsub is the Kafka substitute PrivApprox proxies are built
// on (paper §5): a topic-based publish/subscribe broker with partitioned
// logs that append at the tail and release at the committed floor,
// committed consumer-group offsets, blocking polls, and an optional TCP
// transport. The proxies create two topics — key and answer — and
// forward client shares through them to the aggregator.
package pubsub

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/telemetry"
	"privapprox/internal/wal"
)

// Errors reported by the broker.
var (
	ErrNoTopic     = errors.New("pubsub: no such topic")
	ErrTopicExists = errors.New("pubsub: topic already exists")
	ErrNoPartition = errors.New("pubsub: no such partition")
	// ErrBadOffset reports an offset past the log end or below the first
	// retained offset (see CommitOffset) that no WAL can serve (see
	// Fetch); it survives the TCP transport.
	ErrBadOffset = errors.New("pubsub: offset out of range")
	ErrClosed    = errors.New("pubsub: broker closed")
	// ErrPartitionFull is the backpressure signal of a bounded partition
	// (SetTopicCapacity): the publish would push the partition's
	// unconsumed backlog — records past the slowest committed consumer
	// offset — beyond its capacity. The publish (or the whole batch, for
	// PublishColumns: a full batch is refused all-or-nothing, never
	// partially applied) had no effect; the publisher may retry after
	// consumers commit progress. The sentinel survives the TCP transport:
	// errors.Is(err, ErrPartitionFull) holds on the remote publisher too.
	ErrPartitionFull = errors.New("pubsub: partition full")
)

// Record is one log entry, the unit producers publish and consumers
// poll.
type Record struct {
	Topic     string
	Partition int
	Offset    int64
	Key       []byte
	Value     []byte
	Timestamp time.Time
}

// Stats counts broker traffic; Fig. 9's network accounting reads these.
// The backlog fields surface consumer lag at snapshot time, the signal
// overload control acts on.
type Stats struct {
	MessagesIn  int64
	BytesIn     int64
	MessagesOut int64
	BytesOut    int64
	// Rejected counts publish attempts refused with ErrPartitionFull
	// (each message of a refused batch counts once per attempt).
	Rejected int64
	// Duplicates counts messages discarded by producer-session
	// deduplication: a retried session batch whose (producer, sequence)
	// tag the partition had already applied. Nonzero Duplicates under
	// fault injection is the proof that at-least-once retries were
	// actually deduplicated rather than silently double-published.
	Duplicates int64
	// TotalBacklog is the number of unconsumed records summed over all
	// partitions at snapshot time: per partition, end offset minus the
	// slowest committed consumer offset (the full log length before any
	// group commits; 0 once every group has committed the log end).
	TotalBacklog int64
	// MaxBacklog is the largest single-partition backlog at snapshot
	// time.
	MaxBacklog int64
}

type partitionLog struct {
	mu   sync.Mutex
	cond *sync.Cond
	// slabs hold the retained records as runs, oldest first (slab.go); count
	// is the log length — the next offset to be written — whatever trim
	// has released; spare is one released buffer, the next tail.
	slabs []slab
	count int64
	spare []byte
	// capacity, when > 0, bounds the partition's unconsumed backlog:
	// a publish that would leave more than capacity records past the
	// slowest committed consumer offset fails with ErrPartitionFull.
	capacity int
	// w, when non-nil, is the partition's write-ahead log: every publish
	// journals its records here as one run record (durable.go) — before
	// the in-memory append, before the ack — so an acknowledged record
	// survives a broker restart, and a fetch below the memory floor reads
	// it back (reload). A run's WAL frame covers [lsn, lsn+n), its
	// records' partition offsets. encBuf is the record scratch, touched
	// only under mu.
	w      *wal.Log
	encBuf []byte
	// producers is the partition's session-dedup state, lazily allocated
	// on the first session publish: producer ID → the newest sequence
	// that producer applied here. A batch carrying that sequence or an
	// older one is a replay and is skipped. The state is journaled with
	// the records themselves (a session slice's run record carries its
	// producer tag once), so it survives a restart in exactly the same
	// atomic unit as the data it guards.
	producers map[uint64]uint64
}

func newPartitionLog() *partitionLog {
	p := &partitionLog{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

type topicLog struct {
	name       string
	partitions []*partitionLog
}

// Broker is an in-memory, concurrency-safe message broker. A broker
// opened with OpenBroker additionally journals partitions, consumer
// commits, and topic metadata to write-ahead logs under a data
// directory, and rebuilds itself from them on restart.
type Broker struct {
	mu      sync.RWMutex
	topics  map[string]*topicLog
	offsets map[string]map[string]map[int]int64 // group → topic → partition → next offset
	stats   Stats
	statsMu sync.Mutex
	closed  bool
	rr      uint64      // round-robin counter for keyless publishes
	dur     *durability // nil for a purely in-memory broker
	// pubLat, when set, observes the wall time of each successful
	// publish call (batch-granular for PublishColumns); nil costs one
	// atomic load per publish. See telemetry.go.
	pubLat atomic.Pointer[telemetry.Histogram]
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics:  make(map[string]*topicLog),
		offsets: make(map[string]map[string]map[int]int64),
	}
}

// maxPartitions bounds a topic's partition count, which sizes its
// allocation and, on a durable broker, its WAL directories — a count
// that arrives over the wire and is replayed on every restart. The
// system uses one to four.
const maxPartitions = 1024

// CreateTopic registers a topic with the given partition count, from 1
// to maxPartitions.
func (b *Broker) CreateTopic(name string, partitions int) error {
	if name == "" || partitions <= 0 || partitions > maxPartitions {
		return fmt.Errorf("%w: invalid topic %q with %d partitions", ErrWire, name, partitions)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	if b.dur != nil {
		// Journal the topic before creating it, then bind a WAL to every
		// partition; a crash between the two replays the metadata record
		// and re-creates the (empty) partition logs idempotently.
		if err := b.dur.journalTopic(name, partitions); err != nil {
			return err
		}
	}
	t := &topicLog{name: name, partitions: make([]*partitionLog, partitions)}
	for i := range t.partitions {
		t.partitions[i] = newPartitionLog()
		if b.dur != nil {
			w, err := b.dur.openPartitionWAL(name, i)
			if err != nil {
				for _, p := range t.partitions[:i] {
					p.w.Close()
				}
				return err
			}
			t.partitions[i].w = w
		}
	}
	b.topics[name] = t
	return nil
}

// Topics lists topic names.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	return out
}

// Partitions returns a topic's partition count.
func (b *Broker) Partitions(topic string) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	return len(t.partitions), nil
}

// SetTopicCapacity bounds every partition of a topic to at most
// capacity unconsumed records. A publish that would push a partition's
// backlog — records past the slowest committed consumer offset —
// beyond the bound fails with ErrPartitionFull instead of growing the
// log without limit. capacity <= 0 removes the bound. The bound is on
// the *unconsumed* suffix: a commit by the slowest consumer group both
// frees room under the bound and releases the slabs it moved past
// (CommitOffset).
func (b *Broker) SetTopicCapacity(topic string, capacity int) error {
	b.mu.RLock()
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	if capacity < 0 {
		capacity = 0
	}
	for _, p := range t.partitions {
		p.mu.Lock()
		p.capacity = capacity
		p.mu.Unlock()
	}
	return nil
}

// committedFloor returns the slowest committed consumer offset for one
// partition — 0 when no group has committed yet, so a bounded partition
// admits at most capacity records until its first consumer commit.
func (b *Broker) committedFloor(topic string, partition int) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.floorLocked(topic, partition)
}

// floorLocked is committedFloor for a caller that holds b.mu.
func (b *Broker) floorLocked(topic string, partition int) int64 {
	floor := int64(-1)
	for _, gt := range b.offsets {
		tp, ok := gt[topic]
		if !ok {
			continue
		}
		off, ok := tp[partition]
		if !ok {
			continue
		}
		if floor < 0 || off < floor {
			floor = off
		}
	}
	if floor < 0 {
		return 0
	}
	return floor
}

// overCapacity reports whether appending n records would overflow the
// bounded partition. The slowest committed offset is read only when a
// bound is set, so an unbounded publish never takes the broker lock or
// walks the groups' offset maps. Caller holds p.mu; committedFloor takes
// b.mu.RLock under it, which cannot deadlock because nothing acquires a
// partition lock while holding b.mu.
func (b *Broker) overCapacity(p *partitionLog, topic string, partition, n int) bool {
	return p.capacity > 0 && p.count+int64(n)-b.committedFloor(topic, partition) > int64(p.capacity)
}

// Publish appends a record. A non-nil key selects the partition by hash
// (records with equal keys stay ordered); a nil key round-robins. On a
// bounded partition at capacity the record is refused with
// ErrPartitionFull (see SetTopicCapacity).
func (b *Broker) Publish(topic string, key, value []byte) (int, int64, error) {
	h := b.pubLat.Load()
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, 0, ErrClosed
	}
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	var part int
	if key != nil {
		part = int(fnv1a32(key) % uint32(len(t.partitions)))
	} else {
		b.statsMu.Lock()
		part = int(b.rr % uint64(len(t.partitions)))
		b.rr++
		b.statsMu.Unlock()
	}
	p := t.partitions[part]
	p.mu.Lock()
	if b.overCapacity(p, topic, part, 1) {
		capacity := p.capacity
		p.mu.Unlock()
		b.statsMu.Lock()
		b.stats.Rejected++
		b.statsMu.Unlock()
		return 0, 0, fmt.Errorf("%w: topic %q partition %d at capacity %d", ErrPartitionFull, topic, part, capacity)
	}
	offset := p.count
	now := time.Now()
	if p.w != nil {
		// Durability before visibility: the record reaches the WAL (per
		// the fsync policy) before it is appended in memory, broadcast to
		// consumers, or acknowledged to the publisher.
		p.encBuf = appendRunRecord(p.encBuf[:0], 0, 0, now.UnixNano(), len(key), len(value))
		p.encBuf = append(append(p.encBuf, key...), value...)
		if _, err := p.w.Append(1, p.encBuf); err != nil {
			p.mu.Unlock()
			return 0, 0, err
		}
	}
	p.put(now, key, value)
	p.cond.Broadcast()
	p.mu.Unlock()

	b.statsMu.Lock()
	b.stats.MessagesIn++
	b.stats.BytesIn += int64(len(key) + len(value))
	b.statsMu.Unlock()
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
	return part, offset, nil
}

// fnv1a32 is FNV-1a over b, matching hash/fnv's New32a exactly: the
// routing function of both publish calls, spelled out so the key
// provably does not escape.
func fnv1a32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// colScratch groups one PublishColumns batch by destination partition
// with a counting sort: order holds the batch's record indexes partition
// by partition, each partition's in batch order, and partition p's are
// order[start[p]:start[p+1]]. It is pooled, so concurrent publishers each
// hold their own and a steady stream of batches allocates nothing.
type colScratch struct {
	part  []int  // record index → partition
	start []int  // partition → first position in order; one past the end last
	next  []int  // fill cursor per partition
	order []int  // record indexes grouped by partition
	dup   []bool // partition already applied this (producer, sequence)
}

var colScratchPool = sync.Pool{New: func() any { return new(colScratch) }}

// group routes every record of cols to one of n partitions by the
// key-lane FNV hash Publish uses.
func (sc *colScratch) group(cols Columns, n int) {
	sc.part = slices.Grow(sc.part[:0], cols.Count)[:cols.Count]
	sc.order = slices.Grow(sc.order[:0], cols.Count)[:cols.Count]
	// Grow and clear rather than append a make: built with -race, the
	// appended make allocates on every batch.
	sc.start = slices.Grow(sc.start[:0], n+1)[:n+1]
	clear(sc.start)
	for i := range sc.part {
		p := int(fnv1a32(cols.Key(i)) % uint32(n))
		sc.part[i] = p
		sc.start[p+1]++
	}
	for p := 0; p < n; p++ {
		sc.start[p+1] += sc.start[p]
	}
	sc.next = append(sc.next[:0], sc.start[:n]...)
	for i, p := range sc.part {
		sc.order[sc.next[p]] = i
		sc.next[p]++
	}
}

// records returns the batch's record indexes bound for partition p.
func (sc *colScratch) records(p int) []int { return sc.order[sc.start[p]:sc.start[p+1]] }

// markDups flags the target partitions that already applied this (pid,
// seq) — the caller then skips capacity checks, journaling, and appends
// for them. Caller holds every target partition's lock.
func (sc *colScratch) markDups(t *topicLog, pid, seq uint64) {
	sc.dup = slices.Grow(sc.dup[:0], len(t.partitions))[:len(t.partitions)]
	clear(sc.dup)
	if pid == 0 {
		return
	}
	for part, p := range t.partitions {
		// A partition outside the batch is not locked by this caller: its
		// dedup state must not be read, since another batch may be writing it.
		if len(sc.records(part)) == 0 {
			continue
		}
		if applied, ok := p.producers[pid]; ok && seq <= applied {
			sc.dup[part] = true
		}
	}
}

// recordSlice notes a freshly applied session slice in the partition's
// dedup state. Caller holds p.mu.
func (p *partitionLog) recordSlice(pid, seq uint64) {
	if pid == 0 {
		return
	}
	if p.producers == nil {
		p.producers = make(map[uint64]uint64)
	}
	p.producers[pid] = seq
}

// PublishColumns appends a fixed-stride batch in one call, amortizing
// lock acquisitions: records are grouped by destination partition (the
// key-lane FNV hash Publish uses; columnar records always carry keys),
// each partition is locked once, and the traffic counters are updated
// once for the whole batch. Both lanes are fully consumed before the
// call returns.
//
// The batch is all-or-nothing: every target partition's capacity is
// checked (and every partition journaled) before any in-memory append,
// so a batch spanning several partitions of a bounded topic is either
// fully applied or refused with ErrPartitionFull having published
// nothing — a partially applied batch would break the publisher's
// retry (retrying would duplicate the partitions that did land).
//
// A nonzero pid tags the batch with a producer session: seq is the
// producer's per-topic batch sequence, strictly increasing across its
// batches to one topic. A partition that has already applied a sequence
// at or above seq skips its slice of the batch (counting
// Stats.Duplicates), so a retry after an ambiguous failure is
// exactly-once. pid 0 publishes without dedup.
func (b *Broker) PublishColumns(topic string, cols Columns, pid, seq uint64) error {
	if err := cols.Validate(); err != nil {
		return err
	}
	if pid == 0 && seq != 0 {
		return fmt.Errorf("%w: sequence %d without a producer id", ErrWire, seq)
	}
	if cols.Count == 0 {
		return nil
	}
	h := b.pubLat.Load()
	var t0 time.Time
	if h != nil {
		t0 = time.Now()
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	t, ok := b.topics[topic]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}

	sc := colScratchPool.Get().(*colScratch)
	defer colScratchPool.Put(sc)
	sc.group(cols, len(t.partitions))

	// Two-phase apply: lock every target partition (in ascending order,
	// so concurrent batches cannot deadlock), check all capacities, then
	// journal and append. No partition's memory log is touched until the
	// whole batch is known to fit and is journaled.
	for part, p := range t.partitions {
		if len(sc.records(part)) > 0 {
			p.mu.Lock()
		}
	}
	unlockAll := func() {
		for part, p := range t.partitions {
			if len(sc.records(part)) > 0 {
				p.mu.Unlock()
			}
		}
	}
	// Partitions that already applied this (producer, sequence) — a retry
	// of a batch whose first attempt died after some partitions journaled
	// — are skipped wholesale: no capacity check, no journal, no append.
	sc.markDups(t, pid, seq)
	now := time.Now()
	for part, p := range t.partitions {
		n := len(sc.records(part))
		if n == 0 || sc.dup[part] {
			continue
		}
		if b.overCapacity(p, topic, part, n) {
			capacity := p.capacity
			unlockAll()
			b.statsMu.Lock()
			b.stats.Rejected += int64(cols.Count)
			b.statsMu.Unlock()
			return fmt.Errorf("%w: topic %q partition %d at capacity %d (batch of %d refused whole)",
				ErrPartitionFull, topic, part, capacity, cols.Count)
		}
	}
	for part, p := range t.partitions {
		idxs := sc.records(part)
		if len(idxs) == 0 || sc.dup[part] || p.w == nil {
			continue
		}
		if err := p.journalSlice(now, cols, idxs, pid, seq); err != nil {
			unlockAll()
			return err
		}
	}
	var duplicates int64
	for part, p := range t.partitions {
		idxs := sc.records(part)
		if len(idxs) == 0 {
			continue
		}
		if sc.dup[part] {
			duplicates += int64(len(idxs))
			continue
		}
		for _, i := range idxs {
			p.put(now, cols.Key(i), cols.Val(i))
		}
		p.recordSlice(pid, seq)
		p.cond.Broadcast()
	}
	unlockAll()

	b.statsMu.Lock()
	b.stats.MessagesIn += int64(cols.Count) - duplicates
	b.stats.BytesIn += (int64(cols.Count) - duplicates) * int64(cols.KeyLen+cols.ValLen)
	b.stats.Duplicates += duplicates
	b.statsMu.Unlock()
	if h != nil {
		h.Observe(int64(time.Since(t0)))
	}
	return nil
}

// Fetch returns up to max records from a partition starting at offset.
// It never blocks; an offset at the log end returns no records. The
// records are a private copy — their keys and values are cap-limited
// views of one buffer made for this call — so the caller may keep,
// mutate or append to them without touching the log or each other. An
// offset below the first retained one is ErrBadOffset on an in-memory
// broker; a durable broker reads the records from there to its memory
// floor back from the partition's WAL and serves them (they stay in
// memory until the next commit releases them again).
func (b *Broker) Fetch(topic string, partition int, offset int64, max int) ([]Record, error) {
	runs, _, err := b.fetchRuns(topic, partition, offset, max, nil, nil)
	return runRecords(topic, partition, runs), err
}

// fetchRuns is Fetch in runs: it appends the span's runs to runs and
// copies their bodies into mem — grown once for the span — under the
// partition lock, the one copy a fetch makes.
func (b *Broker) fetchRuns(topic string, partition int, offset int64, max int, runs []Run, mem []byte) ([]Run, []byte, error) {
	err := b.readSpan(topic, partition, offset, max, func(p *partitionLog, end int64) (size int) {
		p.each(offset, end, func(r Run) { size += len(r.Body) })
		mem = slices.Grow(mem, size)
		p.each(offset, end, func(r Run) {
			at := len(mem)
			mem = append(mem, r.Body...)
			r.Body = mem[at:len(mem):len(mem)]
			runs = append(runs, r)
		})
		return size
	})
	return runs, mem, err
}

// readSpan is the frame every fetch shares: under the partition lock it
// validates offset — on a durable partition, first reading records below
// the memory floor back from the WAL (reload) — hands read the log and
// the offset one past the fetch's last record (read is not called for an
// empty span), and then counts the span's records and the key and value
// bytes read reports.
func (b *Broker) readSpan(topic string, partition int, offset int64, max int, read func(p *partitionLog, end int64) (bytes int)) error {
	p, err := b.partition(topic, partition)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.w != nil && 0 <= offset && offset < p.first() {
		if err := p.reload(offset); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	if offset < p.first() || offset > p.count {
		defer p.mu.Unlock()
		return fmt.Errorf("%w: %d outside [%d, %d]", ErrBadOffset, offset, p.first(), p.count)
	}
	end := min(offset+int64(max), p.count)
	if end <= offset {
		p.mu.Unlock()
		return nil
	}
	bytes := read(p, end)
	p.mu.Unlock()
	b.statsMu.Lock()
	b.stats.MessagesOut += end - offset
	b.stats.BytesOut += int64(bytes)
	b.statsMu.Unlock()
	return nil
}

// FetchWait is the Transport form of Fetch: wait <= 0 fetches at once,
// wait > 0 first blocks until a record is available at offset or the
// wait has passed (then appending nothing).
func (b *Broker) FetchWait(topic string, partition int, offset int64, max int, wait time.Duration, runs []Run, mem []byte) ([]Run, []byte, error) {
	if wait > 0 {
		if ok, err := b.awaitRecord(topic, partition, offset, wait); err != nil || !ok {
			return runs, mem, err
		}
	}
	return b.fetchRuns(topic, partition, offset, max, runs, mem)
}

// awaitRecord blocks until the partition holds a record at offset
// (true), the timeout passes (false), or the broker closes.
func (b *Broker) awaitRecord(topic string, partition int, offset int64, timeout time.Duration) (bool, error) {
	p, err := b.partition(topic, partition)
	if err != nil {
		return false, err
	}
	deadline := time.Now().Add(timeout)
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.count <= offset {
		if b.isClosed() {
			return false, ErrClosed
		}
		if !time.Now().Before(deadline) {
			return false, nil
		}
		// Wake periodically to observe the deadline; Broadcast on
		// publish wakes us immediately in the common case.
		waitWithTimeout(p.cond, 5*time.Millisecond)
	}
	return true, nil
}

// waitWithTimeout waits on cond for at most d. The caller must hold the
// cond's lock.
func waitWithTimeout(cond *sync.Cond, d time.Duration) {
	timer := time.AfterFunc(d, cond.Broadcast)
	cond.Wait()
	timer.Stop()
}

// EndOffset returns the next offset to be written in a partition.
func (b *Broker) EndOffset(topic string, partition int) (int64, error) {
	p, err := b.partition(topic, partition)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count, nil
}

// CommitOffset durably records a consumer group's next-to-read offset
// and releases every slab that lies whole below the partition's
// committed floor. A durable broker keeps its WAL whole, so what a
// commit releases from its memory a later Fetch can still read back. A
// group that has never committed does not hold the floor back
// (CommittedOffset).
// Commits are monotonic per (group, topic, partition): an offset at or
// below the committed one is ignored, so a lagging committer can never
// rewind the group and cause replays.
func (b *Broker) CommitOffset(group, topic string, partition int, offset int64) error {
	p, err := b.partition(topic, partition)
	if err != nil {
		return err
	}
	if offset < 0 {
		return fmt.Errorf("%w: %d", ErrBadOffset, offset)
	}
	b.mu.Lock()
	gt, ok := b.offsets[group]
	if !ok {
		gt = make(map[string]map[int]int64)
		b.offsets[group] = gt
	}
	tp, ok := gt[topic]
	if !ok {
		tp = make(map[int]int64)
		gt[topic] = tp
	}
	if offset <= tp[partition] {
		b.mu.Unlock()
		return nil
	}
	if b.dur != nil {
		// Journal before updating memory; replay applies commits in
		// journal order, so the restored offset is the newest committed.
		if err := b.dur.journalCommit(group, topic, partition, offset); err != nil {
			b.mu.Unlock()
			return err
		}
	}
	tp[partition] = offset
	floor := b.floorLocked(topic, partition)
	// b.mu goes before p.mu is taken (a publisher reads the floor under
	// p.mu); racing commits may trim out of order, and the later floor wins.
	b.mu.Unlock()
	p.mu.Lock()
	p.trim(floor)
	p.mu.Unlock()
	return nil
}

// CommittedOffset returns where a group resumes: its committed offset
// or, when it has none on this partition, the earliest retained offset
// (0 until other groups' commits have released the head of the log).
func (b *Broker) CommittedOffset(group, topic string, partition int) (int64, error) {
	p, err := b.partition(topic, partition)
	if err != nil {
		return 0, err
	}
	b.mu.RLock()
	off, ok := b.offsets[group][topic][partition]
	b.mu.RUnlock()
	if ok {
		return off, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first(), nil
}

// Stats returns a snapshot of the traffic counters plus consumer-lag
// accounting: TotalBacklog/MaxBacklog are computed at snapshot time
// from the partition logs and the committed consumer offsets.
func (b *Broker) Stats() Stats {
	b.statsMu.Lock()
	s := b.stats
	b.statsMu.Unlock()
	b.mu.RLock()
	topics := make([]*topicLog, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.RUnlock()
	for _, t := range topics {
		for i, p := range t.partitions {
			p.mu.Lock()
			end := p.count
			p.mu.Unlock()
			backlog := end - b.committedFloor(t.name, i)
			s.TotalBacklog += backlog
			if backlog > s.MaxBacklog {
				s.MaxBacklog = backlog
			}
		}
	}
	return s
}

// Backlog returns one topic's total unconsumed records: the sum over
// partitions of end offset minus the slowest committed consumer offset.
func (b *Broker) Backlog(topic string) (int64, error) {
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

// Close marks the broker closed; publishes fail and blocked polls wake.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	topics := make([]*topicLog, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	for _, t := range topics {
		for _, p := range t.partitions {
			p.mu.Lock()
			p.cond.Broadcast()
			if p.w != nil {
				p.w.Close()
				p.w = nil
			}
			p.mu.Unlock()
		}
	}
	if b.dur != nil {
		b.dur.close()
	}
}

func (b *Broker) isClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

func (b *Broker) partition(topic string, partition int) (*partitionLog, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	if partition < 0 || partition >= len(t.partitions) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoPartition, partition, len(t.partitions))
	}
	return t.partitions[partition], nil
}
