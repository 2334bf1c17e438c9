package stream

import (
	"testing"
	"time"
)

// TestKeyedShareJoinerMIDStyleKey drives the joiner with an array key,
// the form the aggregator uses (xorcrypt.MID), and checks the recycle
// pool: a recycled group's storage is handed out again, with no payload
// leakage between groups.
func TestKeyedShareJoinerMIDStyleKey(t *testing.T) {
	type mid [16]byte
	j, err := NewKeyedShareJoiner[mid](2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	k1 := mid{1}
	k2 := mid{2}
	if _, err := j.Add(k1, 0, []byte("a1"), now); err != nil {
		t.Fatal(err)
	}
	g1, err := j.Add(k1, 1, []byte("a2"), now)
	if err != nil || g1 == nil {
		t.Fatalf("group 1: %v, %v", g1, err)
	}
	if g1.Key != k1 || string(g1.Payloads[0]) != "a1" || string(g1.Payloads[1]) != "a2" {
		t.Fatalf("group 1 = %+v", g1)
	}
	j.Recycle(g1)

	// The recycled group must come back for the next message with its
	// payload slots cleared.
	if _, err := j.Add(k2, 1, []byte("b2"), now); err != nil {
		t.Fatal(err)
	}
	g2, err := j.Add(k2, 0, []byte("b1"), now)
	if err != nil || g2 == nil {
		t.Fatalf("group 2: %v, %v", g2, err)
	}
	if g2 != g1 {
		t.Error("completed group was not recycled through the pool")
	}
	if string(g2.Payloads[0]) != "b1" || string(g2.Payloads[1]) != "b2" {
		t.Fatalf("recycled group leaked payloads: %q %q", g2.Payloads[0], g2.Payloads[1])
	}
	// Duplicate suppression still works on the array key.
	if _, err := j.Add(k1, 0, []byte("replay"), now); err == nil {
		t.Error("completed-key replay must be rejected")
	}
}

// TestShareJoinerSteadyStateAllocs: once the pool is primed, the
// add-complete-recycle cycle must not allocate for the group itself
// (map bookkeeping for the completed-key set is the only remaining
// cost, and it is amortized by Sweep).
func TestShareJoinerSweepRecyclesPending(t *testing.T) {
	j, err := NewKeyedShareJoiner[[16]byte](2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Add([16]byte{9}, 0, []byte("x"), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	pooled := len(j.free)
	if dropped := j.Sweep(time.Unix(50, 0)); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	if len(j.free) != pooled+1 {
		t.Fatalf("swept group not recycled: pool size %d, was %d", len(j.free), pooled)
	}
	if g := j.free[pooled]; g.Payloads[0] != nil || len(g.parked) != 0 {
		t.Fatal("recycled group retains a payload")
	}
}

// TestShareJoinerCopiesWhatItParks: Add borrows its payload. A caller
// that reuses one payload buffer for every share — the SplitInto
// scratch pattern, with each message's second share delayed by one
// message so the first is parked across the reuse — still joins the
// bytes it submitted, a parked payload never aliases its input, and the
// completing share is handed through as is.
func TestShareJoinerCopiesWhatItParks(t *testing.T) {
	j, err := NewKeyedShareJoiner[int](2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	scratch := make([]byte, 4)
	fill := func(msg, source int) []byte {
		for i := range scratch {
			scratch[i] = byte(msg*16 + source*4 + i)
		}
		return scratch
	}
	check := func(g *Joined[int], msg int) {
		t.Helper()
		if g == nil || g.Key != msg {
			t.Fatalf("message %d did not complete: %+v", msg, g)
		}
		want0 := append([]byte(nil), fill(msg, 0)...)
		if string(g.Payloads[0]) != string(want0) {
			t.Errorf("message %d: parked share reads %x, submitted %x", msg, g.Payloads[0], want0)
		}
		if &g.Payloads[0][0] == &scratch[0] {
			t.Errorf("message %d: parked share aliases the caller's buffer", msg)
		}
		j.Recycle(g)
	}
	for msg := 0; msg < 8; msg++ {
		if g, err := j.Add(msg, 0, fill(msg, 0), now); err != nil || g != nil {
			t.Fatalf("first share of %d: %v, %v", msg, g, err)
		}
		if msg == 0 {
			continue
		}
		// The previous message's second share, after its first share's
		// buffer has been overwritten twice.
		late := fill(msg-1, 1)
		g, err := j.Add(msg-1, 1, late, now)
		if err != nil {
			t.Fatal(err)
		}
		if &g.Payloads[1][0] != &late[0] {
			t.Errorf("message %d: the completing share was copied, not borrowed", msg-1)
		}
		check(g, msg-1)
	}
	// Steady state: parking into recycled groups allocates nothing.
	msg := 100
	if allocs := testing.AllocsPerRun(200, func() {
		j.Add(msg, 0, scratch, now)
		g, _ := j.Add(msg, 1, scratch, now)
		j.Recycle(g)
		delete(j.complete, msg)
		msg++
	}); allocs != 0 {
		t.Errorf("park + complete + recycle allocates %.1f times per message", allocs)
	}
}
