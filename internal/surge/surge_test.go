package surge

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSurgeGate is the overload gate `make surge` runs: the same 10×
// offered-load step is driven through a controlled and an uncontrolled
// system, and the controlled one must (a) be bit-for-bit reproducible,
// (b) actually spend approximation — threshold below 1, answers
// suppressed, CI widths widened but finite — and (c) buy bounded lag
// and backlog with it, while the uncontrolled run's backlog keeps
// growing for the whole surge.
func TestSurgeGate(t *testing.T) {
	controlled, err := Run(DefaultConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(DefaultConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(controlled, again) {
		t.Fatalf("surge run is not deterministic:\nfirst  %+v\nsecond %+v", controlled, again)
	}
	uncontrolled, err := Run(DefaultConfig(false))
	if err != nil {
		t.Fatal(err)
	}

	// The uncontrolled system never sheds and its backlog never drains:
	// the surge outruns the budget and the debt persists to the end.
	if uncontrolled.MinShed != 1 {
		t.Errorf("uncontrolled run shed (MinShed = %v)", uncontrolled.MinShed)
	}
	if uncontrolled.Shedded != 0 {
		t.Errorf("uncontrolled run suppressed %d answers", uncontrolled.Shedded)
	}
	if uncontrolled.FinalPending == 0 {
		t.Error("uncontrolled backlog fully drained; the surge was not an overload")
	}

	// The controlled system spends approximation…
	if controlled.MinShed >= 1 {
		t.Errorf("controller never tightened: MinShed = %v", controlled.MinShed)
	}
	if controlled.Shedded == 0 {
		t.Error("controller tightened but no client shed an answer")
	}
	// …and buys recovery with it: the backlog is gone by the end of the
	// run and the tail lag sits at (or under) the SLO target.
	if controlled.FinalPending != 0 {
		t.Errorf("controlled backlog not drained by run end: %d shares pending",
			controlled.FinalPending)
	}
	if got, limit := controlled.TailP95Lag, DefaultConfig(true).TargetLagSlides; got > limit {
		t.Errorf("controlled tail p95 lag = %v slides, want ≤ %v", got, limit)
	}
	if controlled.FinalPending >= uncontrolled.FinalPending {
		t.Errorf("control did not reduce the final backlog: controlled %d, uncontrolled %d",
			controlled.FinalPending, uncontrolled.FinalPending)
	}

	// The cost side of the trade: shedding widens the CIs during the
	// surge, but they stay finite and the windows keep firing.
	if controlled.MaxRelWidthSurge <= controlled.MaxRelWidthBase {
		t.Errorf("shedding did not widen CIs: base %v, surge %v",
			controlled.MaxRelWidthBase, controlled.MaxRelWidthSurge)
	}
	fired := 0
	for _, st := range controlled.Ticks {
		fired += st.Fired
	}
	if fired == 0 {
		t.Error("controlled run fired no windows")
	}
}

// TestSurgeConfigValidation pins the config guard.
func TestSurgeConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(true); c.Ticks = 0; return c }(),
		func() Config { c := DefaultConfig(true); c.DrainBudget = 0; return c }(),
		func() Config { c := DefaultConfig(true); c.SurgeEnd = c.Ticks + 1; return c }(),
		func() Config { c := DefaultConfig(true); c.SurgeEpochs = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// BenchmarkOverloadFrontier sweeps the surge multiplier and reports the
// latency/approximation frontier of the controlled system at each load:
// p95 tail lag in slides, the minimum shed threshold reached, and the
// backlog left when the run ends.
func BenchmarkOverloadFrontier(b *testing.B) {
	for _, mult := range []int{1, 2, 5, 10} {
		b.Run(fmt.Sprintf("load=%dx", mult), func(b *testing.B) {
			var rep *Report
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(true)
				cfg.SurgeEpochs = mult * cfg.BaseEpochs
				if cfg.SurgeEpochs < cfg.BaseEpochs {
					cfg.SurgeEpochs = cfg.BaseEpochs
				}
				r, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep = r
			}
			b.ReportMetric(rep.TailP95Lag, "p95lag-slides")
			b.ReportMetric(rep.MinShed, "min-shed")
			b.ReportMetric(float64(rep.FinalPending), "final-pending")
		})
	}
}
