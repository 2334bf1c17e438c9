package core

import (
	"math/rand"
	"testing"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
)

// Regression: Flush used to discard the window results fired during its
// final drain, returning only what agg.Flush closed afterwards. Any
// window the last undrained batch of shares pushed past the watermark
// vanished.
func TestFlushReturnsWindowsFiredDuringFinalDrain(t *testing.T) {
	// Tumbling 2s windows at 1s epochs, default lateness = slide = 2s:
	// window [2,4) fires once the watermark reaches 4s, i.e. when an
	// epoch-6 answer (event time 6s) is decoded. Epochs 0..5 run — and
	// drain — normally; epoch 6 is answered WITHOUT draining, so its
	// shares are still sitting at the proxies when Flush runs. Flush's
	// internal drain then decodes them and fires [2,4) mid-drain, while
	// agg.Flush closes the still-open [4,6) and [6,8).
	q, err := workload.TaxiQuery("flush", 1, time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	const clients = 20
	sys, err := New(Config{
		Clients: clients,
		Query:   q,
		Params:  &params,
		Seed:    7,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)

	var early []int64                     // window starts (unix seconds offsets) fired by RunEpoch
	origin := time.Unix(1_700_000_000, 0) // the default Config.Origin
	for e := 0; e < 6; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			early = append(early, int64(r.Window.Start.Sub(origin)/time.Second))
		}
	}
	// Epoch 6 is answered without a drain, so its shares still sit at
	// the proxies when Flush runs.
	if _, err := sys.AnswerEpoch(); err != nil {
		t.Fatal(err)
	}

	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("Flush returned %d windows, want 3 (drain-fired window dropped?): %+v, earlier %v",
			len(results), results, early)
	}
	want := []struct {
		startSec  int64
		responses int
	}{
		{2, 2 * clients}, // fired during Flush's drain — the dropped one
		{4, 2 * clients},
		{6, 1 * clients},
	}
	for i, res := range results {
		if got := int64(res.Window.Start.Sub(origin) / time.Second); got != want[i].startSec {
			t.Errorf("window %d starts at +%ds, want +%ds", i, got, want[i].startSec)
		}
		if res.Responses != want[i].responses {
			t.Errorf("window %d has %d responses, want %d", i, res.Responses, want[i].responses)
		}
	}
}
