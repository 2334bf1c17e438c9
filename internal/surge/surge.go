// Package surge is the overload test harness: a seeded step-load
// generator driving a core.System through a base → 10×-offered-load →
// base profile with a fixed per-tick drain budget, recording the
// latency/approximation frontier each tick. It exists to compare a
// controlled run (EnableSLO: approximation-aware load shedding) against
// an uncontrolled one under the identical offered-load sequence: the
// controlled system trades CI width for bounded window-fire lag, the
// uncontrolled one's backlog and lag grow without bound for as long as
// the surge lasts.
//
// Everything is deterministic under Config.Seed: the population, the
// sampling and shed coins, the share partition routing (seeded MIDs),
// and the bounded sequential drain. Two runs of the same Config produce
// byte-identical reports, which is what lets `make surge` gate on exact
// numbers rather than thresholds alone.
package surge

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/core"
	"privapprox/internal/minisql"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
)

// Config shapes one surge run. The zero value is not runnable; use
// DefaultConfig as the base.
type Config struct {
	// Clients is the population size.
	Clients int
	// Seed drives every random choice in the run.
	Seed int64
	// BaseEpochs and SurgeEpochs are the answer epochs offered per tick
	// in and out of the surge; SurgeEpochs/BaseEpochs is the step
	// multiplier (10× by default).
	BaseEpochs  int
	SurgeEpochs int
	// SurgeStart/SurgeEnd delimit the surge ticks [start, end).
	SurgeStart int
	SurgeEnd   int
	// Ticks is the total tick count.
	Ticks int
	// DrainBudget is the aggregation capacity per tick, in records. It
	// must cover BaseEpochs' offered load (the base load is sustainable)
	// and must not cover SurgeEpochs' (the surge is not).
	DrainBudget int
	// Controlled enables the SLO overload controller.
	Controlled bool
	// TargetLagSlides, ShedMin, Window parameterize the controller.
	TargetLagSlides float64
	ShedMin         float64
	Window          int
}

// DefaultConfig is the `make surge` gate profile: 30 clients, a 10×
// offered-load step over ticks [5, 15) of 30, and a drain budget that
// covers ~1.25× the base load.
func DefaultConfig(controlled bool) Config {
	return Config{
		Clients:         30,
		Seed:            424242,
		BaseEpochs:      1,
		SurgeEpochs:     10,
		SurgeStart:      5,
		SurgeEnd:        15,
		Ticks:           30,
		DrainBudget:     60,
		Controlled:      controlled,
		TargetLagSlides: 4,
		ShedMin:         0.1,
		Window:          3,
	}
}

// TickStat is one tick's observation of the latency/approximation
// frontier.
type TickStat struct {
	Tick     int
	Offered  int   // answer epochs offered this tick
	Drained  int   // records drained
	Pending  int64 // backlog left at the proxies after the drain
	Shed     float64
	Fired    int       // windows fired this tick
	Lags     []float64 // window-fire lag of each fired window, in slides
	RelWidth float64   // worst finite relative CI width among fired windows (0 if none)
}

// Report is a full surge run's record.
type Report struct {
	Config       Config
	Ticks        []TickStat
	PeakPending  int64
	FinalPending int64
	MinShed      float64
	// TailP95Lag is the p95 window-fire lag over the final third of the
	// run — the steady state after the surge ends.
	TailP95Lag float64
	// MaxRelWidth splits the CI-width frontier by phase: the worst
	// finite relative width before the surge and from its start on.
	MaxRelWidthBase  float64
	MaxRelWidthSurge float64
	// Shedded is the total count of shed-suppressed answers.
	Shedded int64
}

// Run executes one surge profile and returns its report.
func Run(cfg Config) (*Report, error) {
	if cfg.Ticks <= 0 || cfg.BaseEpochs <= 0 || cfg.SurgeEpochs < cfg.BaseEpochs ||
		cfg.SurgeStart < 0 || cfg.SurgeEnd < cfg.SurgeStart || cfg.SurgeEnd > cfg.Ticks ||
		cfg.DrainBudget <= 0 || cfg.Clients <= 0 {
		return nil, fmt.Errorf("surge: bad config %+v", cfg)
	}
	q, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 2*time.Second)
	if err != nil {
		return nil, err
	}
	params := budget.Params{S: 0.8, RR: rr.Params{P: 0.9, Q: 0.6}}
	origin := time.Unix(1_700_000_000, 0)
	sys, err := core.New(core.Config{
		Clients: cfg.Clients,
		Proxies: 2,
		Seed:    cfg.Seed,
		Origin:  origin,
		Params:  &params,
		// Workers pinned to 1: the surge gate compares exact per-tick
		// records, and the bounded drain's cut point depends on the
		// partition append order, which only Workers == 1 pins.
		Workers: 1,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
		},
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := sys.Register(q); err != nil {
		return nil, err
	}
	if cfg.Controlled {
		if err := sys.EnableSLO(cfg.TargetLagSlides, cfg.ShedMin, cfg.Window); err != nil {
			return nil, err
		}
	}

	lagOf := func(res aggregator.Result) float64 {
		cur := origin.Add(time.Duration(sys.Epoch()) * q.Frequency)
		return float64(cur.Sub(res.Window.End)) / float64(q.Slide)
	}

	rep := &Report{Config: cfg, MinShed: 1}
	var tailLags []float64
	tailFrom := cfg.Ticks - cfg.Ticks/3
	for tick := 0; tick < cfg.Ticks; tick++ {
		offered := cfg.BaseEpochs
		if tick >= cfg.SurgeStart && tick < cfg.SurgeEnd {
			offered = cfg.SurgeEpochs
		}
		for k := 0; k < offered; k++ {
			if _, err := sys.AnswerEpoch(); err != nil {
				return nil, err
			}
		}
		res, drained, err := sys.DrainUpTo(cfg.DrainBudget)
		if err != nil {
			return nil, err
		}
		pending, err := sys.PendingShares()
		if err != nil {
			return nil, err
		}
		st := TickStat{
			Tick:    tick,
			Offered: offered,
			Drained: drained,
			Pending: pending,
			Shed:    sys.SLOShed(q.QID),
			Fired:   len(res),
		}
		for _, r := range res {
			lag := lagOf(r)
			st.Lags = append(st.Lags, lag)
			if tick >= tailFrom {
				tailLags = append(tailLags, lag)
			}
			for _, b := range r.Buckets {
				if b.Estimate.Estimate == 0 {
					continue
				}
				w := 2 * b.Estimate.Margin / math.Abs(b.Estimate.Estimate)
				if math.IsInf(w, 0) || math.IsNaN(w) {
					continue
				}
				if w > st.RelWidth {
					st.RelWidth = w
				}
			}
		}
		if st.RelWidth > 0 {
			if tick < cfg.SurgeStart {
				if st.RelWidth > rep.MaxRelWidthBase {
					rep.MaxRelWidthBase = st.RelWidth
				}
			} else if st.RelWidth > rep.MaxRelWidthSurge {
				rep.MaxRelWidthSurge = st.RelWidth
			}
		}
		if pending > rep.PeakPending {
			rep.PeakPending = pending
		}
		if st.Shed < rep.MinShed {
			rep.MinShed = st.Shed
		}
		rep.Ticks = append(rep.Ticks, st)
	}
	rep.FinalPending = rep.Ticks[len(rep.Ticks)-1].Pending
	rep.TailP95Lag = p95(tailLags)
	for _, c := range sys.Clients() {
		rep.Shedded += c.Stats().Shedded
	}
	return rep, nil
}

// p95 is the nearest-rank 95th percentile (0 on empty input).
func p95(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(0.95 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
