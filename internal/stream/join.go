package stream

import (
	"errors"
	"fmt"
	"time"
)

// Errors reported by the share joiner.
var (
	ErrJoinArity = errors.New("stream: invalid join arity")
	ErrDuplicate = errors.New("stream: duplicate share")
)

// Joined is a completed join group: all n share payloads for one message
// identifier, in source order. Groups handed out by Add remain owned by
// the joiner's pool: the caller must consume the payloads (or copy them)
// and then hand the group back with Recycle; a group is never touched by
// the joiner between Add returning it and Recycle. The payload of the
// share that completed the group is the caller's own slice, borrowed:
// it is valid exactly as long as the caller keeps that slice intact.
type Joined[K comparable] struct {
	Key      K
	Payloads [][]byte

	// parked holds the group's own copies of the payloads that had to
	// wait for their siblings, end to end; it is recycled with the group
	// so the steady-state join path allocates nothing.
	parked []byte
	// join bookkeeping while the group is pending.
	filled int
	first  time.Time
}

// park copies payload into the group's own buffer. An append that has
// to grow the buffer leaves earlier payloads where they were (their
// views keep the old array alive until Recycle), so no view ever moves.
func (g *Joined[K]) park(source int, payload []byte) {
	at := len(g.parked)
	g.parked = append(g.parked, payload...)
	own := g.parked[at:len(g.parked):len(g.parked)]
	if own == nil {
		own = []byte{} // an empty share still marks its source as seen
	}
	g.Payloads[source] = own
}

// KeyedShareJoiner implements the aggregator's first stage (paper
// §3.2.4): it pairs the encrypted answer stream with the n−1 key streams
// by message identifier. A group completes when one share has arrived
// from each of the Expect source streams; stale partial groups can be
// swept out (messages whose shares were lost at a proxy).
//
// The key type is generic so the aggregator can join on the raw 16-byte
// MID value directly — hashing an array key costs nothing per share,
// where the former string key cost a hex encoding allocation.
//
// Duplicate suppression is source-aware: a second share from the same
// proxy stream for the same key is rejected (a replayed share would
// otherwise pair with itself and XOR to garbage), and arrivals for a
// recently completed key are rejected too, bounding the damage of a
// client replaying shares to distort results (the paper defers to
// triple-splitting [26] for the full defense).
type KeyedShareJoiner[K comparable] struct {
	expect   int
	pending  map[K]*Joined[K]
	complete map[K]time.Time // recently completed, for duplicate detection
	retain   time.Duration
	// free recycles completed groups (and their payload-pointer slices)
	// so the steady-state join path performs no allocations.
	free []*Joined[K]
}

// ShareJoiner is the string-keyed joiner, kept for callers joining on
// opaque keys.
type ShareJoiner = KeyedShareJoiner[string]

// NewShareJoiner expects one share from each of expect ≥ 2 source
// streams per message and remembers completed keys for retain to reject
// replays.
func NewShareJoiner(expect int, retain time.Duration) (*ShareJoiner, error) {
	return NewKeyedShareJoiner[string](expect, retain)
}

// NewKeyedShareJoiner is NewShareJoiner for an arbitrary comparable key
// type.
func NewKeyedShareJoiner[K comparable](expect int, retain time.Duration) (*KeyedShareJoiner[K], error) {
	if expect < 2 {
		return nil, fmt.Errorf("%w: %d", ErrJoinArity, expect)
	}
	return &KeyedShareJoiner[K]{
		expect:   expect,
		pending:  make(map[K]*Joined[K]),
		complete: make(map[K]time.Time),
		retain:   retain,
	}, nil
}

// Add folds in one share from the given source stream (0 ≤ source <
// expect). It returns a non-nil Joined when the group completes, and
// ErrDuplicate when the key already completed or this source already
// contributed. The returned group must be handed back via Recycle once
// its payloads are consumed.
//
// payload is borrowed for the call: a share that has to wait is copied
// into the group (so a parked share never pins, or is corrupted by the
// reuse of, the buffer it arrived in — a whole fetch response, a split
// scratch), and the share that completes a group is referenced only
// until Recycle.
func (j *KeyedShareJoiner[K]) Add(key K, source int, payload []byte, at time.Time) (*Joined[K], error) {
	if source < 0 || source >= j.expect {
		return nil, fmt.Errorf("%w: source %d of %d", ErrJoinArity, source, j.expect)
	}
	if _, done := j.complete[key]; done {
		return nil, fmt.Errorf("%w: %v", ErrDuplicate, key)
	}
	g, ok := j.pending[key]
	if !ok {
		g = j.getGroup()
		g.first = at
		j.pending[key] = g
	}
	if g.Payloads[source] != nil {
		return nil, fmt.Errorf("%w: %v from source %d", ErrDuplicate, key, source)
	}
	g.filled++
	if g.filled < j.expect {
		g.park(source, payload)
		return nil, nil
	}
	g.Payloads[source] = payload
	delete(j.pending, key)
	j.complete[key] = at
	g.Key = key
	return g, nil
}

// Recycle returns a completed group to the joiner's pool, dropping its
// payload references. Only groups returned by this joiner's Add may be
// recycled, each at most once.
func (j *KeyedShareJoiner[K]) Recycle(g *Joined[K]) {
	if g == nil {
		return
	}
	clear(g.Payloads)
	g.parked = g.parked[:0]
	g.filled = 0
	var zero K
	g.Key = zero
	j.free = append(j.free, g)
}

// getGroup pops a pooled group. An empty pool is refilled a block at a
// time, so a new high-water mark of pending groups costs two
// allocations per block rather than per group.
func (j *KeyedShareJoiner[K]) getGroup() *Joined[K] {
	if len(j.free) == 0 {
		const block = 16
		groups := make([]Joined[K], block)
		slots := make([][]byte, block*j.expect)
		for i := range groups {
			groups[i].Payloads = slots[i*j.expect : (i+1)*j.expect : (i+1)*j.expect]
			j.free = append(j.free, &groups[i])
		}
	}
	n := len(j.free)
	g := j.free[n-1]
	j.free[n-1] = nil
	j.free = j.free[:n-1]
	return g
}

// SetRetain adjusts how long completed keys are remembered past the
// sweep cutoff — the multi-query aggregator re-derives it as the
// maximum window over the active query set whenever that set changes.
func (j *KeyedShareJoiner[K]) SetRetain(d time.Duration) { j.retain = d }

// PendingCount returns the number of incomplete groups.
func (j *KeyedShareJoiner[K]) PendingCount() int { return len(j.pending) }

// PendingGroups invokes fn for every incomplete group with its per-source
// payloads (nil where a source has not contributed) and the arrival time
// of its first share — the export half of a checkpoint. The payload
// slices are the joiner's own; fn must not retain or mutate them past
// its return. Iteration order is unspecified.
func (j *KeyedShareJoiner[K]) PendingGroups(fn func(key K, payloads [][]byte, first time.Time)) {
	for key, g := range j.pending {
		fn(key, g.Payloads, g.first)
	}
}

// RestorePending re-creates one incomplete group from checkpointed
// state: payloads holds one entry per source (nil where no share had
// arrived). The payload bytes are copied, so the caller keeps ownership
// of its decode buffers. Restoring a key that is already pending or
// completed is rejected as a duplicate.
func (j *KeyedShareJoiner[K]) RestorePending(key K, payloads [][]byte, first time.Time) error {
	if len(payloads) != j.expect {
		return fmt.Errorf("%w: %d payloads for %d sources", ErrJoinArity, len(payloads), j.expect)
	}
	if _, done := j.complete[key]; done {
		return fmt.Errorf("%w: %v", ErrDuplicate, key)
	}
	if _, ok := j.pending[key]; ok {
		return fmt.Errorf("%w: %v", ErrDuplicate, key)
	}
	filled := 0
	for _, p := range payloads {
		if p != nil {
			filled++
		}
	}
	if filled == 0 || filled >= j.expect {
		return fmt.Errorf("%w: %d of %d shares is not a pending group", ErrJoinArity, filled, j.expect)
	}
	g := j.getGroup()
	g.first = first
	for i, p := range payloads {
		if p != nil {
			g.park(i, p)
		}
	}
	g.filled = filled
	j.pending[key] = g
	return nil
}

// CompletedKeys invokes fn for every recently completed key with its
// completion time — exported alongside PendingGroups so a restored
// joiner keeps rejecting replays of keys that completed before the
// checkpoint. Iteration order is unspecified.
func (j *KeyedShareJoiner[K]) CompletedKeys(fn func(key K, at time.Time)) {
	for key, at := range j.complete {
		fn(key, at)
	}
}

// RestoreCompleted re-marks one key as completed at the given time.
func (j *KeyedShareJoiner[K]) RestoreCompleted(key K, at time.Time) {
	delete(j.pending, key)
	j.complete[key] = at
}

// Sweep drops incomplete groups whose first share arrived before cutoff
// and forgets completed keys older than the retain horizon. It returns
// the number of dropped incomplete groups.
func (j *KeyedShareJoiner[K]) Sweep(cutoff time.Time) int {
	dropped := 0
	for key, g := range j.pending {
		if g.first.Before(cutoff) {
			delete(j.pending, key)
			j.Recycle(g)
			dropped++
		}
	}
	retainCutoff := cutoff.Add(-j.retain)
	for key, at := range j.complete {
		if at.Before(retainCutoff) {
			delete(j.complete, key)
		}
	}
	return dropped
}
