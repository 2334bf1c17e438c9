package stream

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"testing"
)

// joinModel is the joiner's contract in plain maps: per generation, each
// remembered key's sources seen so far (nil where none has arrived), or
// its completion.
type joinModel struct {
	expect int
	gens   [2]map[[16]byte]*modelKey
}

type modelKey struct {
	done     bool
	payloads [][]byte
}

func newJoinModel(expect int) *joinModel {
	return &joinModel{expect: expect, gens: [2]map[[16]byte]*modelKey{{}, {}}}
}

// add returns the completed group's payloads, or dup for a rejected share.
func (m *joinModel) add(key [16]byte, source int, payload []byte) (joined [][]byte, dup bool) {
	for age := range m.gens {
		k, ok := m.gens[age][key]
		if !ok {
			continue
		}
		if k.done || k.payloads[source] != nil {
			return nil, true
		}
		k.payloads[source] = append([]byte{}, payload...)
		for _, p := range k.payloads {
			if p == nil {
				return nil, false
			}
		}
		// A group completes into the current generation, whichever one
		// it waited in.
		delete(m.gens[age], key)
		m.gens[0][key] = &modelKey{done: true}
		return k.payloads, false
	}
	k := &modelKey{payloads: make([][]byte, m.expect)}
	k.payloads[source] = append([]byte{}, payload...)
	m.gens[0][key] = k
	return nil, false
}

// pair is Seen then Pair: a key no generation holds completes at once,
// into the current generation, and a key held anywhere is left as it is.
func (m *joinModel) pair(key [16]byte) (seen bool) {
	for _, gen := range m.gens {
		if _, ok := gen[key]; ok {
			return true
		}
	}
	m.gens[0][key] = &modelKey{done: true}
	return false
}

func (m *joinModel) rotate() (expired int) {
	for _, k := range m.gens[1] {
		if !k.done {
			expired++
		}
	}
	m.gens = [2]map[[16]byte]*modelKey{{}, m.gens[0]}
	return expired
}

// describe renders a joiner's remembered state, or the model's, as one
// line per key.
func describeJoiner(j *KeyedShareJoiner[[16]byte]) map[[16]byte]string {
	out := map[[16]byte]string{}
	j.PendingGroups(func(key [16]byte, payloads [][]byte, age int) {
		out[key] = fmt.Sprintf("pending %d %q %t", age, payloads, nilSources(payloads))
	})
	j.CompletedKeys(func(key [16]byte, age int) { out[key] = fmt.Sprintf("done %d", age) })
	return out
}

func describeModel(m *joinModel) map[[16]byte]string {
	out := map[[16]byte]string{}
	for age, gen := range m.gens {
		for key, k := range gen {
			if k.done {
				out[key] = fmt.Sprintf("done %d", age)
			} else {
				out[key] = fmt.Sprintf("pending %d %q %t", age, k.payloads, nilSources(k.payloads))
			}
		}
	}
	return out
}

// nilSources tells a missing share (nil) from an empty one, which %q
// renders alike.
func nilSources(payloads [][]byte) (s []bool) {
	for _, p := range payloads {
		s = append(s, p == nil)
	}
	return s
}

// joinOp is one step of a FuzzShareJoiner input: Add of key arg%5 from
// source arg/5 with a payload of n bytes, Recycle of the oldest group
// the test holds, Rotate, a checkpoint restored into a fresh joiner, or
// Seen of key arg%5 and, when no generation holds it, Pair — n+1 times,
// as an aligned replay repeats it.
func joinOp(op string, arg, n byte) []byte {
	code := map[string]byte{"add": 0, "recycle": 5, "rotate": 6, "restore": 7, "pair": 8}[op]
	return []byte{code, arg, n}
}

func addOp(key, source, n byte) []byte { return joinOp("add", key+5*source, n) }

// FuzzShareJoiner drives KeyedShareJoiner with random Add (five keys),
// Recycle, Rotate, checkpoint restores and Seen-then-Pair against
// joinModel. Every step
// must agree with the model on the group or error class returned, the
// pending and completed counts, the expiry count, and the pending
// groups and completed keys with their ages; a group the test holds
// keeps its key and payloads until it is recycled.
func FuzzShareJoiner(f *testing.F) {
	seed := func(expect byte, ops ...[]byte) []byte {
		return bytes.Join(append([][]byte{{expect}}, ops...), nil)
	}
	rotate, restore, recycle := joinOp("rotate", 0, 0), joinOp("restore", 0, 0), joinOp("recycle", 0, 0)
	// A replay one rotation after its completion is still a duplicate...
	f.Add(seed(0, addOp(1, 0, 2), addOp(1, 1, 3), recycle, rotate, addOp(1, 0, 2)))
	// ... two rotations after, it is forgotten and waits afresh.
	f.Add(seed(0, addOp(1, 0, 2), addOp(1, 1, 3), recycle, rotate, rotate, addOp(1, 0, 2), rotate, rotate))
	// A source repeated while its group waits, in both generations.
	f.Add(seed(1, addOp(2, 0, 1), addOp(2, 0, 1), rotate, addOp(2, 0, 0), addOp(2, 2, 0), addOp(2, 2, 1)))
	// A group that completes in the previous generation is remembered
	// for a whole generation more.
	f.Add(seed(0, addOp(3, 1, 1), rotate, addOp(3, 0, 1), recycle, rotate, addOp(3, 1, 1), addOp(3, 0, 1)))
	f.Add(seed(1, addOp(3, 1, 1), rotate, addOp(3, 0, 0), restore, addOp(3, 2, 1), rotate, addOp(3, 1, 1)))
	// Restores with empty shares, pending and completed keys of both ages.
	f.Add(seed(1, addOp(0, 0, 0), addOp(1, 0, 1), addOp(1, 1, 1), addOp(1, 2, 1), rotate, addOp(2, 1, 3), restore, rotate, restore, addOp(0, 1, 1)))
	// A paired key is a completed one: replays of it are duplicates for
	// two generations, through Add and Pair alike, and survive a restore;
	// a key pending or done is not paired.
	f.Add(seed(0, joinOp("pair", 1, 1), addOp(1, 0, 2), rotate, restore, joinOp("pair", 1, 0), addOp(1, 1, 0), rotate, joinOp("pair", 1, 0)))
	f.Add(seed(1, addOp(2, 2, 1), joinOp("pair", 2, 0), addOp(2, 0, 1), rotate, joinOp("pair", 3, 2), rotate, addOp(3, 0, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		expect := 2 + int(data[0]%2)
		j, err := NewKeyedShareJoiner[[16]byte](expect)
		if err != nil {
			t.Fatal(err)
		}
		m := newJoinModel(expect)
		type held struct {
			g    *Joined[[16]byte]
			want string
		}
		var groups []held
		for i := 1; i+2 < len(data); i += 3 {
			op, arg, n := data[i]%9, data[i+1], int(data[i+2]%4)
			switch {
			case op < 5:
				key, source := [16]byte{arg % 5}, int(arg/5)%expect
				payload := bytes.Repeat([]byte{byte(i)}, n)
				g, err := j.Add(key, source, payload)
				want, dup := m.add(key, source, payload)
				if dup != errors.Is(err, ErrDuplicate) || !dup && err != nil {
					t.Fatalf("step %d: Add(%d, %d) = %v, model duplicate %t", i, key[0], source, err, dup)
				}
				if (g == nil) != (want == nil) {
					t.Fatalf("step %d: Add(%d, %d) completed %t, model %t", i, key[0], source, g != nil, want != nil)
				}
				if g != nil {
					w := fmt.Sprintf("%v %q", key, want)
					if got := fmt.Sprintf("%v %q", g.Key, g.Payloads); got != w {
						t.Fatalf("step %d: completed %s, model %s", i, got, w)
					}
					groups = append(groups, held{g, w})
				}
			case op == 5 && len(groups) > 0:
				if got := fmt.Sprintf("%v %q", groups[0].g.Key, groups[0].g.Payloads); got != groups[0].want {
					t.Fatalf("step %d: a held group reads %s, handed out as %s", i, got, groups[0].want)
				}
				j.Recycle(groups[0].g)
				groups = groups[1:]
			case op == 6:
				if got, want := j.Rotate(), m.rotate(); got != want {
					t.Fatalf("step %d: Rotate expired %d, model %d", i, got, want)
				}
			case op == 7:
				fresh, err := NewKeyedShareJoiner[[16]byte](expect)
				if err != nil {
					t.Fatal(err)
				}
				j.PendingGroups(func(key [16]byte, payloads [][]byte, age int) {
					if err := fresh.RestorePending(key, payloads, age); err != nil {
						t.Fatalf("step %d: RestorePending(%d): %v", i, key[0], err)
					}
				})
				j.CompletedKeys(func(key [16]byte, age int) {
					if err := fresh.RestoreCompleted(key, age); err != nil {
						t.Fatalf("step %d: RestoreCompleted(%d): %v", i, key[0], err)
					}
				})
				for _, h := range groups {
					j.Recycle(h.g)
				}
				j, groups = fresh, nil
			case op == 8:
				key := [16]byte{arg % 5}
				seen := j.Seen(key)
				if want := m.pair(key); seen != want {
					t.Fatalf("step %d: Seen(%d) = %t, model %t", i, key[0], seen, want)
				}
				for k := 0; !seen && k <= n; k++ {
					if fresh := j.Pair(key); fresh != (k == 0) {
						t.Fatalf("step %d: Pair(%d) number %d reports new %t", i, key[0], k+1, fresh)
					}
				}
			}
			pending, completed := 0, 0
			for _, gen := range m.gens {
				for _, k := range gen {
					if k.done {
						completed++
					} else {
						pending++
					}
				}
			}
			if got := j.PendingCount(); got != pending {
				t.Fatalf("step %d: %d pending, model %d", i, got, pending)
			}
			if got := j.CompletedCount(); got != completed {
				t.Fatalf("step %d: %d completed, model %d", i, got, completed)
			}
			if got, want := describeJoiner(j), describeModel(m); !maps.Equal(got, want) {
				t.Fatalf("step %d: the joiner remembers\n%v\nthe model\n%v", i, got, want)
			}
		}
	})
}
