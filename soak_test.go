package privapprox

import (
	"maps"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestSoakFlatHeap is the `make soak` gate: what a running system
// retains is a function of its open windows and its unconsumed backlog,
// not of its uptime. 200 clients answer a sliding-window query (4 s
// sliding by 1 s) for 3,000 epochs, each drained dry and followed by
// the epoch timer's AdvanceTo. Halfway and at the end, the state kept
// per epoch must be the same by count — open panes per query, open
// windows, pending joins and the completed message IDs the joiner
// remembers — and the live heap must agree within 5 % (a log that never
// trims fails the heap check within seconds; panes never deleted, a
// joiner that never forgets, or a watermark advance that keeps its
// history fails the counts). The in-memory leg also bounds the garbage
// of its second half, in bytes allocated per decoded answer: a steady
// state that reuses its memory (the drain's fetch arena among it) makes
// almost none. Wall time goes to the log only. The durable leg runs the
// same system over a DataDir and never checkpoints: its brokers keep
// every share in their WALs, and their memory must still follow the
// drain, not the journal.
func TestSoakFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	t.Run("in-memory", func(t *testing.T) { soakFlatHeap(t, "") })
	t.Run("durable", func(t *testing.T) { soakFlatHeap(t, t.TempDir()) })
}

func soakFlatHeap(t *testing.T, dataDir string) {
	const clients, epochs = 200, 3000
	// garbageLimit bounds the second half's bytes allocated per decoded
	// answer in memory; it reads about 9, and about 214 when every drain
	// regrew its fetch memory.
	const garbageLimit = 27
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
	// decoded[e] is the answers decoded in the first e epochs.
	decoded := []int64{0}
	// kept is the per-epoch state by count. Sampling varies the answers
	// per epoch, so the completed message IDs the joiner remembers are
	// counted in whole epochs of answers, back from the current one.
	kept := func() map[string]int {
		agg := sys.Aggregator()
		out := map[string]int{"open windows": agg.OpenWindows(), "pending joins": agg.PendingJoins()}
		for _, s := range agg.AppendSamples(nil) {
			switch s.Name {
			case "privapprox_query_open_panes":
				out["open panes of "+s.LabelValue] = int(s.Value)
			case "privapprox_agg_completed_joins":
				e, k := len(decoded)-1, 0
				for k < e && decoded[e]-decoded[e-k-1] <= int64(s.Value) {
					k++
				}
				out["epochs of completed joins"] = k
			}
		}
		return out
	}
	// half runs half the epochs and returns their wall time and the
	// bytes they allocated, then the live heap and the state kept.
	half := func() (time.Duration, uint64, float64, map[string]int) {
		t0 := time.Now()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for e := 0; e < epochs/2; e++ {
			if _, _, err := sys.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.AdvanceTo(sys.Epoch()); err != nil {
				t.Fatal(err)
			}
			decoded = append(decoded, sys.Aggregator().Stats().Decoded)
		}
		runtime.ReadMemStats(&after)
		return time.Since(t0), after.TotalAlloc - before.TotalAlloc, liveHeap(), kept()
	}
	firstTook, _, atHalf, keptHalf := half()
	secondTook, garbage, atEnd, keptEnd := half()
	perAnswer := float64(garbage) / float64(decoded[epochs]-decoded[epochs/2])

	st := sys.Aggregator().Stats()
	if st.Decoded < clients*epochs/2 || st.Malformed+st.Duplicates+st.Late+st.UnknownQuery+st.LengthMismatch != 0 || st.Swept != 0 {
		t.Fatalf("soak run lost answers: %+v", st)
	}
	if err := sys.Conserve(); err != nil {
		t.Error(err)
	}
	t.Logf("live heap %.2f MB at epoch %d, %.2f MB at epoch %d; kept %v and %v; halves took %v and %v; the second allocated %.1f B per answer",
		atHalf/(1<<20), epochs/2, atEnd/(1<<20), epochs, keptHalf, keptEnd, firstTook, secondTook, perAnswer)
	if len(keptHalf) != 4 || !maps.Equal(keptHalf, keptEnd) {
		t.Errorf("the state kept per epoch moved between epoch %d and epoch %d: %v, then %v", epochs/2, epochs, keptHalf, keptEnd)
	}
	if diff := (atEnd - atHalf) / atHalf; diff > 0.05 || diff < -0.05 {
		t.Errorf("live heap moved %.1f%% between epoch %d and epoch %d", 100*diff, epochs/2, epochs)
	}
	if dataDir == "" && perAnswer > garbageLimit {
		t.Errorf("epochs %d to %d allocated %.1f B per decoded answer, want ≤ %d", epochs/2, epochs, perAnswer, garbageLimit)
	}
}
