package stream

import "testing"

// TestKeyedShareJoinerMIDStyleKey drives the joiner with an array key,
// the form the aggregator uses (xorcrypt.MID), and checks the recycle
// pool: a recycled group's storage is handed out again, with no payload
// leakage between groups.
func TestKeyedShareJoinerMIDStyleKey(t *testing.T) {
	type mid [16]byte
	j, err := NewKeyedShareJoiner[mid](2)
	if err != nil {
		t.Fatal(err)
	}
	k1 := mid{1}
	k2 := mid{2}
	if _, err := j.Add(k1, 0, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	g1, err := j.Add(k1, 1, []byte("a2"))
	if err != nil || g1 == nil {
		t.Fatalf("group 1: %v, %v", g1, err)
	}
	if g1.Key != k1 || string(g1.Payloads[0]) != "a1" || string(g1.Payloads[1]) != "a2" {
		t.Fatalf("group 1 = %+v", g1)
	}
	j.Recycle(g1)

	// The recycled group must come back for the next message with its
	// payload slots cleared.
	if _, err := j.Add(k2, 1, []byte("b2")); err != nil {
		t.Fatal(err)
	}
	g2, err := j.Add(k2, 0, []byte("b1"))
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
	if _, err := j.Add(k1, 0, []byte("replay")); err == nil {
		t.Error("completed-key replay must be rejected")
	}
}

// TestShareJoinerRotateRecyclesPending: an orphan share parked across
// two rotations expires exactly once — on the second — and its pooled
// group goes back to the pool with nothing left in it.
func TestShareJoinerRotateRecyclesPending(t *testing.T) {
	j, err := NewKeyedShareJoiner[[16]byte](2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Add([16]byte{9}, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	pooled := len(j.free)
	if expired := j.Rotate(); expired != 0 || j.PendingCount() != 1 {
		t.Fatalf("first rotation expired %d groups, %d pending; want 0 and 1", expired, j.PendingCount())
	}
	if expired := j.Rotate(); expired != 1 || j.PendingCount() != 0 {
		t.Fatalf("second rotation expired %d groups, %d pending; want 1 and 0", expired, j.PendingCount())
	}
	if expired := j.Rotate(); expired != 0 {
		t.Fatalf("third rotation expired %d groups again", expired)
	}
	if len(j.free) != pooled+1 {
		t.Fatalf("expired group not recycled: pool size %d, was %d", len(j.free), pooled)
	}
	if g := j.free[pooled]; g.Payloads[0] != nil || len(g.parked) != 0 {
		t.Fatal("recycled group retains a payload")
	}
}

// TestShareJoinerRotateZeroAllocs: a rotation is a swap and a clear of
// maps the joiner keeps, so steady traffic through rotating generations
// allocates nothing once the maps and the pool have grown to size.
func TestShareJoinerRotateZeroAllocs(t *testing.T) {
	j, err := NewKeyedShareJoiner[[16]byte](2)
	if err != nil {
		t.Fatal(err)
	}
	var key [16]byte
	a, b := []byte("a"), []byte("b")
	round := func() {
		for i := 0; i < 64; i++ {
			key[0]++
			key[1] = byte(i)
			j.Add(key, 0, a)
			if i%8 == 0 {
				continue // an orphan: expires two rotations on
			}
			g, _ := j.Add(key, 1, b)
			j.Recycle(g)
		}
		j.Rotate()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("64 joins and a rotation allocate %.1f times", allocs)
	}
	if n := len(j.gens[0]) + len(j.gens[1]); n > 2*64 {
		t.Errorf("%d keys remembered across two generations of 64", n)
	}
}

// TestShareJoinerCopiesWhatItParks: Add borrows its payload. A caller
// that reuses one payload buffer for every share — the SplitInto
// scratch pattern, with each message's second share delayed by one
// message so the first is parked across the reuse — still joins the
// bytes it submitted, a parked payload never aliases its input, and the
// completing share is handed through as is.
func TestShareJoinerCopiesWhatItParks(t *testing.T) {
	j, err := NewKeyedShareJoiner[int](2)
	if err != nil {
		t.Fatal(err)
	}
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
		if g, err := j.Add(msg, 0, fill(msg, 0)); err != nil || g != nil {
			t.Fatalf("first share of %d: %v, %v", msg, g, err)
		}
		if msg == 0 {
			continue
		}
		// The previous message's second share, after its first share's
		// buffer has been overwritten twice.
		late := fill(msg-1, 1)
		g, err := j.Add(msg-1, 1, late)
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
		j.Add(msg, 0, scratch)
		g, _ := j.Add(msg, 1, scratch)
		j.Recycle(g)
		delete(j.gens[0], msg)
		msg++
	}); allocs != 0 {
		t.Errorf("park + complete + recycle allocates %.1f times per message", allocs)
	}
}
