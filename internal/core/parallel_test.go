package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
)

// epochRun is everything observable from one full system run.
type epochRun struct {
	Results      []aggregator.Result
	Participants []int
	Decoded      int64
	Duplicates   int64
	Malformed    int64
	Dropped      int64
}

// runSystem executes epochs and a final flush with the given worker
// count.
func runSystem(t *testing.T, cfg Config, workers, epochs int) epochRun {
	t.Helper()
	cfg.Workers = workers
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	var run epochRun
	for e := 0; e < epochs; e++ {
		res, participants, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		run.Results = append(run.Results, res...)
		run.Participants = append(run.Participants, participants)
	}
	final, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	run.Results = append(run.Results, final...)
	windowsConserved(t, sys, run.Results)
	agg := sys.Aggregator().Stats()
	run.Decoded = agg.Decoded
	run.Duplicates = agg.Duplicates
	run.Malformed = agg.Malformed
	run.Dropped = agg.Late
	return run
}

// TestEpochPipelineDeterministicAcrossWorkersAndShards is the
// determinism regression: under a fixed Seed, the parallel pipeline
// must produce byte-identical results to the sequential one for every
// worker count, across query shapes.
func TestEpochPipelineDeterministicAcrossWorkersAndShards(t *testing.T) {
	cases := []struct {
		name    string
		clients int
		epochs  int
		query   func(t *testing.T) *query.Query
		pop     func(i int, db *minisql.DB) error
		params  budget.Params
	}{
		{
			name:    "taxi-tumbling",
			clients: 120,
			epochs:  6,
			query: func(t *testing.T) *query.Query {
				q, err := workload.TaxiQuery("analyst", 1, time.Second, 4*time.Second, 4*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			pop: func(i int, db *minisql.DB) error {
				rng := rand.New(rand.NewSource(int64(i) + 1))
				return workload.PopulateTaxi(db, rng, 3, time.Unix(1000, 0), time.Minute)
			},
			params: budget.Params{S: 0.8, RR: rr.Params{P: 0.9, Q: 0.6}},
		},
		{
			name:    "taxi-sliding",
			clients: 90,
			epochs:  8,
			query: func(t *testing.T) *query.Query {
				q, err := workload.TaxiQuery("analyst", 2, time.Second, 4*time.Second, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			pop: func(i int, db *minisql.DB) error {
				rng := rand.New(rand.NewSource(int64(i) + 7))
				return workload.PopulateTaxi(db, rng, 2, time.Unix(1000, 0), time.Minute)
			},
			params: budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}},
		},
		{
			name:    "electricity-tumbling",
			clients: 100,
			epochs:  5,
			query: func(t *testing.T) *query.Query {
				q, err := workload.ElectricityQuery("analyst", 3, time.Second, 2*time.Second, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				return q
			},
			pop: func(i int, db *minisql.DB) error {
				rng := rand.New(rand.NewSource(int64(i) + 13))
				return workload.PopulateElectricity(db, rng, 4, time.Unix(1000, 0))
			},
			params: budget.Params{S: 0.6, RR: rr.Params{P: 0.6, Q: 0.6}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Clients:  tc.clients,
				Query:    tc.query(t),
				Params:   &tc.params,
				Seed:     99,
				Populate: tc.pop,
			}
			want := runSystem(t, cfg, 1, tc.epochs)
			if want.Decoded == 0 || len(want.Results) == 0 {
				t.Fatalf("degenerate sequential run: %+v", want)
			}
			for _, workers := range []int{2, 8} {
				got := runSystem(t, cfg, workers, tc.epochs)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d diverges from sequential\n got: %+v\nwant: %+v",
						workers, got, want)
				}
			}
		})
	}
}

// TestRunEpochParallelStress hammers the full pipeline with many
// workers under the race detector: concurrent clients
// submitting while multi-goroutine drains fire windows, plus replayed
// shares arriving mid-drain.
func TestRunEpochParallelStress(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	q, err := workload.TaxiQuery("analyst", 1, time.Second, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Clients: 150,
		Query:   q,
		Params:  &params,
		Seed:    7,
		Workers: 16,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			return workload.PopulateTaxi(db, rng, 2, time.Unix(1000, 0), time.Minute)
		},
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	defer conserved(t, sys)
	const epochs = 6
	for e := 0; e < epochs; e++ {
		_, participants, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if participants != cfg.Clients {
			t.Fatalf("epoch %d: %d participants, want %d (s=1)", e, participants, cfg.Clients)
		}
	}
	if _, err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	agg := sys.Aggregator().Stats()
	if agg.Decoded != int64(cfg.Clients*epochs) {
		t.Errorf("decoded = %d, want %d", agg.Decoded, cfg.Clients*epochs)
	}
	if agg.Duplicates != 0 || agg.Malformed != 0 || agg.Late != 0 {
		t.Errorf("dup=%d malformed=%d dropped=%d, want all 0", agg.Duplicates, agg.Malformed, agg.Late)
	}
}
