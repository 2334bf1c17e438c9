package privapprox

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestSoakFlatHeap is the `make soak` gate: what a running system
// retains is a function of its open windows and its unconsumed backlog,
// not of its uptime. 200 clients answer a sliding-window query for 3,000
// epochs, each drained dry and followed by the epoch timer's AdvanceTo;
// the live heap halfway and at the end must agree within 5 %, and the
// second half must not run slower than the first (a log that never
// trims or a joiner that never forgets fails the first check within
// seconds; a watermark advance that scans its history fails the second).
// The durable leg runs the same system over a DataDir and never
// checkpoints: its brokers keep every share in their WALs, and their
// memory must still follow the drain, not the journal.
func TestSoakFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	t.Run("in-memory", func(t *testing.T) { soakFlatHeap(t, "") })
	t.Run("durable", func(t *testing.T) { soakFlatHeap(t, t.TempDir()) })
}

func soakFlatHeap(t *testing.T, dataDir string) {
	const clients, epochs = 200, 3000
	q, err := TaxiQuery("soak-analyst", 1, time.Second, 4*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(SystemConfig{
		Clients: clients,
		Query:   q,
		Params:  &Params{S: 0.8, RR: RRParams{P: 0.9, Q: 0.6}},
		Seed:    7,
		Populate: func(i int, db *DB) error {
			return PopulateTaxi(db, rand.New(rand.NewSource(int64(i)+1)), 3, time.Unix(0, 0), time.Minute)
		},
		DataDir: dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	liveHeap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	half := func() (time.Duration, float64) {
		t0 := time.Now()
		for e := 0; e < epochs/2; e++ {
			if _, _, err := sys.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.AdvanceTo(sys.Epoch()); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0), liveHeap()
	}
	firstTook, atHalf := half()
	secondTook, atEnd := half()

	st := sys.Aggregator().Stats()
	if st.Decoded < clients*epochs/2 || st.Dropped() != 0 || st.Swept != 0 {
		t.Fatalf("soak run lost answers: %+v", st)
	}
	t.Logf("live heap %.2f MB at epoch %d, %.2f MB at epoch %d; halves took %v and %v",
		atHalf/(1<<20), epochs/2, atEnd/(1<<20), epochs, firstTook, secondTook)
	if diff := (atEnd - atHalf) / atHalf; diff > 0.05 || diff < -0.05 {
		t.Errorf("live heap moved %.1f%% between epoch %d and epoch %d", 100*diff, epochs/2, epochs)
	}
	if secondTook > firstTook*3/2 {
		t.Errorf("the second half took %v, the first %v: epochs slow down with uptime", secondTook, firstTook)
	}
}
