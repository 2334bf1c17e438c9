package stream

import (
	"errors"
	"fmt"
)

// Errors reported by the share joiner.
var (
	ErrJoinArity = errors.New("stream: invalid join arity")
	errDuplicate = errors.New("stream: duplicate share")
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
	// filled counts the shares parked so far while the group is pending.
	filled int
	// slot is the group's index in its joiner's groups, and born the
	// rotation count when it began to wait.
	slot uint32
	born uint64
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
// from each of the Expect source streams.
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
//
// The joiner has no clock. What it remembers lives in two generations,
// and its owner calls Rotate once per retain horizon on the owner's
// clock: a completed key is rejected as a duplicate for one to two
// horizons, then forgotten, and a partial group whose siblings have not
// arrived by then (shares lost at a proxy) expires with it. Memory is
// two horizons of traffic; forgetting costs nothing per key.
type KeyedShareJoiner[K comparable] struct {
	expect int
	// gens[0] is the current generation, gens[1] the previous one; an
	// entry's index is its age in rotations. A key lives in at most one
	// generation, its entry either the slot of its pending group in
	// groups or done. The maps hold no pointers (for a pointer-free key
	// type), so the collector never scans them, and one probe per
	// generation finds a key's whole state. A Go map hashes with a seed
	// of its own, so keys the clients choose cannot be picked to collide.
	gens [2]map[K]uint32
	// groups is every group the joiner has made, by slot; free pools the
	// ones not in use, so the steady-state join path performs no
	// allocations.
	groups []*Joined[K]
	free   []*Joined[K]
	// pending counts the partial groups of each generation, and rotations
	// the generations begun: a partial group was born in the current one
	// when its born equals rotations.
	pending   [2]int
	rotations uint64
}

// done is a generation entry's mark for a completed key.
const done = ^uint32(0)

// NewKeyedShareJoiner expects one share from each of expect ≥ 2 source
// streams per message.
func NewKeyedShareJoiner[K comparable](expect int) (*KeyedShareJoiner[K], error) {
	if expect < 2 {
		return nil, fmt.Errorf("%w: %d", ErrJoinArity, expect)
	}
	j := &KeyedShareJoiner[K]{expect: expect}
	for i := range j.gens {
		j.gens[i] = make(map[K]uint32)
	}
	return j, nil
}

// find returns key's entry and the age of the generation that holds it,
// or age -1.
func (j *KeyedShareJoiner[K]) find(key K) (entry uint32, age int) {
	for age := range j.gens {
		if e, ok := j.gens[age][key]; ok {
			return e, age
		}
	}
	return 0, -1
}

// Add folds in one share from the given source stream (0 ≤ source <
// expect). It returns a non-nil Joined when the group completes, and
// errDuplicate when the key completed within the last generation or two
// or this source already contributed. The returned group must be handed
// back via Recycle once its payloads are consumed. A group that
// completes in the previous generation is remembered in the current one,
// as if it had completed there.
//
// payload is borrowed for the call: a share that has to wait is copied
// into the group (so a parked share never pins, or is corrupted by the
// reuse of, the buffer it arrived in — a whole fetch response, a split
// scratch), and the share that completes a group is referenced only
// until Recycle.
func (j *KeyedShareJoiner[K]) Add(key K, source int, payload []byte) (*Joined[K], error) {
	if source < 0 || source >= j.expect {
		return nil, fmt.Errorf("%w: source %d of %d", ErrJoinArity, source, j.expect)
	}
	e, age := j.find(key)
	if age < 0 {
		g := j.getGroup()
		g.filled, g.born = 1, j.rotations
		g.park(source, payload)
		j.gens[0][key] = g.slot
		j.pending[0]++
		return nil, nil
	}
	if e == done {
		return nil, fmt.Errorf("%w: %v", errDuplicate, key)
	}
	g := j.groups[e]
	if g.Payloads[source] != nil {
		return nil, fmt.Errorf("%w: %v from source %d", errDuplicate, key, source)
	}
	if g.filled++; g.filled < j.expect {
		g.park(source, payload)
		return nil, nil
	}
	g.Payloads[source] = payload
	if age > 0 {
		delete(j.gens[age], key)
	}
	j.gens[0][key] = done
	j.pending[age]--
	g.Key = key
	return g, nil
}

// Seen reports whether a generation holds key, as a pending group or a
// completed key. It changes nothing: a caller that looks a batch of keys
// up in one pass before the pass that acts on them lets the lookups'
// cache misses overlap.
func (j *KeyedShareJoiner[K]) Seen(key K) bool {
	_, age := j.find(key)
	return age >= 0
}

// Pair completes key in one step, as a group whose every share arrived
// together: key is marked done in the current generation — exactly where
// Add leaves a group it completes — with no group made, parked or
// recycled, and Pair reports whether it was new there. It is the done
// mark that follows a replay check: key must be one Seen found in no
// generation and no Add has left pending since, so the only state it can
// have reached is done, by an earlier Pair of a replay, which it keeps.
func (j *KeyedShareJoiner[K]) Pair(key K) bool {
	n := len(j.gens[0])
	j.gens[0][key] = done
	return len(j.gens[0]) > n
}

// Rotate ages the joiner by one generation: the previous generation's
// completed keys and partial groups are forgotten, the current one
// becomes the previous, and the emptied map becomes the new current one,
// so a rotation allocates nothing and visits no key: the expiring
// partial groups are found among the groups, not the keys. It returns
// the number that expired; they are recycled.
func (j *KeyedShareJoiner[K]) Rotate() int {
	expired, left := j.pending[1], j.pending[1]
	for _, g := range j.groups {
		if left == 0 {
			break
		}
		if g.filled > 0 && g.filled < j.expect && g.born != j.rotations {
			j.Recycle(g)
			left--
		}
	}
	clear(j.gens[1])
	j.gens[0], j.gens[1] = j.gens[1], j.gens[0]
	j.pending = [2]int{0, j.pending[0]}
	j.rotations++
	return expired
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
			g := &groups[i]
			g.Payloads = slots[i*j.expect : (i+1)*j.expect : (i+1)*j.expect]
			g.slot = uint32(len(j.groups))
			j.groups = append(j.groups, g)
			j.free = append(j.free, g)
		}
	}
	n := len(j.free)
	g := j.free[n-1]
	j.free[n-1] = nil
	j.free = j.free[:n-1]
	return g
}

// PendingCount returns the number of incomplete groups.
func (j *KeyedShareJoiner[K]) PendingCount() int { return j.pending[0] + j.pending[1] }

// CompletedCount returns the number of completed keys remembered to
// refuse their replays: every entry of a generation that is not a
// pending group.
func (j *KeyedShareJoiner[K]) CompletedCount() int {
	return len(j.gens[0]) + len(j.gens[1]) - j.PendingCount()
}

// PendingGroups invokes fn for every incomplete group with its per-source
// payloads (nil where a source has not contributed) and its age in
// rotations (0 or 1) — the export half of a checkpoint. The payload
// slices are the joiner's own; fn must not retain or mutate them past
// its return. Iteration order is unspecified.
func (j *KeyedShareJoiner[K]) PendingGroups(fn func(key K, payloads [][]byte, age int)) {
	for age := range j.gens {
		for key, e := range j.gens[age] {
			if e != done {
				fn(key, j.groups[e].Payloads, age)
			}
		}
	}
}

// RestorePending re-creates one incomplete group from checkpointed
// state, in the generation of its age (0 or 1): payloads holds one
// entry per source (nil where no share had arrived; a present share may
// be empty). The payload bytes are copied, so the caller keeps
// ownership of its decode buffers. Restoring a key that is already
// pending or completed is rejected as a duplicate.
func (j *KeyedShareJoiner[K]) RestorePending(key K, payloads [][]byte, age int) error {
	if len(payloads) != j.expect {
		return fmt.Errorf("%w: %d payloads for %d sources", ErrJoinArity, len(payloads), j.expect)
	}
	if _, at := j.find(key); at >= 0 {
		return fmt.Errorf("%w: %v", errDuplicate, key)
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
	for i, p := range payloads {
		if p != nil {
			g.park(i, p)
		}
	}
	g.filled, g.born = filled, j.rotations-uint64(age)
	j.gens[age][key] = g.slot
	j.pending[age]++
	return nil
}

// CompletedKeys invokes fn for every remembered completed key with its
// age in rotations — exported alongside PendingGroups so a restored
// joiner keeps rejecting replays of keys that completed before the
// checkpoint, for as long as the original would have. Iteration order
// is unspecified.
func (j *KeyedShareJoiner[K]) CompletedKeys(fn func(key K, age int)) {
	for age := range j.gens {
		for key, e := range j.gens[age] {
			if e == done {
				fn(key, age)
			}
		}
	}
}

// RestoreCompleted re-marks one key as completed at age 0 or 1. Like
// RestorePending, it rejects a key that is already pending or completed:
// no joiner ever holds one key twice.
func (j *KeyedShareJoiner[K]) RestoreCompleted(key K, age int) error {
	if _, at := j.find(key); at >= 0 {
		return fmt.Errorf("%w: %v", errDuplicate, key)
	}
	j.gens[age][key] = done
	return nil
}
