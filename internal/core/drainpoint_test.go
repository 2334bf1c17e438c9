package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/rr"
	"privapprox/internal/telemetry"
	"privapprox/internal/workload"
)

// drainPointSystem is a system whose epochs run drain points on more
// than one worker: ten chunks of clients answering four sliding queries
// at s=1, 2,560 shares per proxy an epoch, so a worker finds a frame
// worth cutting (role.cutFloor) about every fourth chunk and windows
// fire at drain points.
func drainPointSystem(t *testing.T, workers int) *System {
	t.Helper()
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	sys, err := New(Config{
		Clients: 640,
		Proxies: 2,
		Params:  &params,
		Seed:    61,
		Workers: workers,
		Populate: func(i int, db *minisql.DB) error {
			return workload.PopulateTaxi(db, rand.New(rand.NewSource(int64(i)+1)), 3, time.Unix(1000, 0), time.Minute)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		q, err := workload.TaxiQuery("analyst", uint64(i+1), time.Second, time.Duration(2+i)*time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// drainEvents counts the drain-stage records of every resident epoch:
// one per tail drain or DrainUpTo, one per drain point.
func drainEvents(sys *System) int64 {
	var n int64
	for _, span := range sys.Tracer().Spans(nil) {
		n += span.Stages[telemetry.StageDrain].Events
	}
	return n
}

// TestDrainPointsChangeOnlyTiming: RunEpoch's drain points fire windows
// while the clients still answer, but every window — the epoch it comes
// back in and its bytes — is the one AnswerEpoch followed by an unbounded
// DrainUpTo fires, at one, two and four workers, and the same for every
// worker count. Each epoch ends with no pending join: every sibling of a
// cut frame pairs. At teardown every decoded answer is in each of its
// windows exactly once (windowsConserved) and the share ledger balances.
func TestDrainPointsChangeOnlyTiming(t *testing.T) {
	const epochs = 6
	// run drives one system epochs epochs, through drain points or
	// through AnswerEpoch and DrainUpTo, and returns the windows each
	// epoch fired, the final Flush's last.
	run := func(t *testing.T, workers int, points bool) [][]aggregator.Result {
		sys := drainPointSystem(t, workers)
		defer sys.Close()
		defer conserved(t, sys)
		var out [][]aggregator.Result
		for e := range epochs {
			var res []aggregator.Result
			var err error
			if points {
				res, _, err = sys.RunEpoch()
			} else if _, err = sys.AnswerEpoch(); err == nil {
				res, _, err = sys.DrainUpTo(int(^uint(0) >> 1))
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := sys.Aggregator().PendingJoins(); n != 0 {
				t.Fatalf("epoch %d: %d pending joins after the drain", e, n)
			}
			out = append(out, res)
		}
		final, err := sys.Flush()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, final)
		var all []aggregator.Result
		for _, res := range out {
			all = append(all, res...)
		}
		windowsConserved(t, sys, all)
		// One drain record per epoch without drain points; more with them.
		if n := drainEvents(sys); points && workers > 1 && n <= epochs || (!points || workers == 1) && n != epochs {
			t.Errorf("%d drain records over %d epochs (drain points: %v, %d workers)", n, epochs, points, workers)
		}
		return out
	}
	var first [][]aggregator.Result
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, want := run(t, workers, true), run(t, workers, false)
			fired := 0
			for e := range want {
				if !reflect.DeepEqual(got[e], want[e]) {
					t.Fatalf("epoch %d: RunEpoch fired\n%+v\nAnswerEpoch + DrainUpTo\n%+v", e, got[e], want[e])
				}
				fired += len(want[e])
			}
			if fired == 0 {
				t.Fatal("no window fired")
			}
			if first == nil {
				first = want
			} else if !reflect.DeepEqual(want, first) {
				t.Errorf("%d workers fired other windows than 1", workers)
			}
		})
	}
}
