// Package privapprox is a Go implementation of PrivApprox
// ("PrivApprox: Privacy-Preserving Stream Analytics", Quoc, Beck,
// Bhatotia, Chen, Fetzer, Strufe — USENIX ATC 2017): a distributed
// system for privacy-preserving, low-latency analytics over user data
// that never leaves the users' devices.
//
// The system marries two approximation techniques:
//
//   - Sampling at the data source: each client flips a coin with
//     probability s to decide whether to answer a query in the current
//     epoch, giving low latency and an error bound from classical SRS
//     theory.
//   - Randomized response: participating clients perturb every answer
//     bit with the two-coin mechanism (p, q), giving ε-differential
//     privacy locally — and, combined with sampling, the strictly
//     stronger zero-knowledge privacy guarantee.
//
// Answers travel as XOR-encrypted shares through at least two
// non-colluding proxies, so no component can link answers to clients;
// the aggregator joins shares by message identifier, decrypts, and runs
// sliding-window aggregation with a confidence interval that combines
// the sampling and randomization error bounds.
//
// Queries reach clients the way the paper's §3.1 distributes them: the
// System's registry verifies each analyst's signed query and announces
// it through the proxies' control topics, and the clients subscribe at
// their next epoch. SystemConfig.Query is simply the first query
// registered; System.Register, System.RegisterSigned and
// System.StopQuery add and retire more while the fleet runs, each query
// with its own parameters and feedback loop.
//
// The epoch pipeline is parallel end-to-end: clients answer on a
// bounded worker pool (SystemConfig.Workers, default GOMAXPROCS), and
// between chunks of clients one worker at a time drains what has been
// answered so far into the aggregator, which joins the shares under one
// lock and folds each open pane under its own. Under a
// fixed SystemConfig.Seed, results are byte-identical for every Workers
// setting — tune the knob for the hardware, not for the answer. (One caveat: with StoreDir set, the historical store's
// record *order* within an epoch is scheduling-dependent when
// Workers > 1, so BatchAnalyze runs whose second-round sampling must be
// replayable record-for-record should produce the store with
// Workers == 1.)
//
//	sys, _ := privapprox.NewSystem(privapprox.SystemConfig{
//		Clients: 1_000_000,
//		Query:   q,
//		Budget:  &privapprox.Budget{EpsilonZK: 2.0},
//		Workers: 16, // client fan-out per epoch (0 = GOMAXPROCS)
//	})
//
// The same pipeline also runs as separate processes — clients, proxies,
// and aggregator communicating over a batched, pipelined TCP transport
// (one publish frame per epoch per proxy) — via cmd/privapprox-node,
// producing results identical to the in-process system under the same
// seed. See DESIGN.md §2 and §4.
//
// # Quick start
//
//	q, _ := privapprox.TaxiQuery("analyst", 1, time.Second, 10*time.Second, time.Second)
//	sys, _ := privapprox.NewSystem(privapprox.SystemConfig{
//		Clients: 1000,
//		Query:   q,
//		Budget:  &privapprox.Budget{EpsilonZK: 2.0},
//		Populate: func(i int, db *privapprox.DB) error {
//			return privapprox.PopulateTaxi(db, nil, 5, time.Now(), time.Minute)
//		},
//	})
//	defer sys.Close()
//	for epoch := 0; epoch < 10; epoch++ {
//		results, _, _ := sys.RunEpoch()
//		for _, r := range results { fmt.Println(r.Window, r.Buckets) }
//	}
//
// See the examples directory for runnable programs and DESIGN.md for
// the architecture and the paper-experiment index.
package privapprox

import (
	"math/rand"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/core"
	"privapprox/internal/histstore"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/seeded"
	"privapprox/internal/stats"
	"privapprox/internal/workload"
)

// Core query-model types (paper §2.2, §3.1).
type (
	// Query is the analyst's streaming query ⟨QID, SQL, A[n], f, w, δ⟩.
	Query = query.Query
	// QueryID identifies a query: analyst name plus serial number.
	QueryID = query.ID
	// Buckets is the ordered answer-bucket set A[n].
	Buckets = query.Buckets
	// RangeBucket matches numeric values in [Lo, Hi).
	RangeBucket = query.RangeBucket
	// SignedQuery carries the analyst's ed25519 signature.
	SignedQuery = query.Signed
)

// System parameters and budgets (paper §3.1, §5).
type (
	// Budget is the analyst's execution budget; the initializer converts
	// it into system parameters.
	Budget = budget.Budget
	// Params is the derived triple: sampling fraction s plus the
	// randomization pair (p, q).
	Params = budget.Params
	// RRParams is the randomized response coin pair.
	RRParams = rr.Params
)

// Results (paper §3.2.4).
type (
	// Result is one fired window with per-bucket estimates, tagged with
	// the query it belongs to.
	Result = aggregator.Result
	// BucketEstimate is a per-bucket count with its confidence interval.
	BucketEstimate = aggregator.BucketEstimate
	// BatchResult is a historical (batch) analytics result.
	BatchResult = aggregator.BatchResult
	// ConfidenceInterval is Estimate ± Margin at a confidence level.
	ConfidenceInterval = stats.ConfidenceInterval
	// AggregatorStats is the aggregator's message accounting, including
	// the multi-query demux drop counters.
	AggregatorStats = aggregator.Stats
)

// ByQuery splits a merged result stream into per-query streams: one
// System runs every registered query concurrently over the same client
// fleet and returns their fired windows together (see System.Register,
// System.RegisterSigned, and System.StopQuery).
func ByQuery(results []Result) map[QueryID][]Result { return aggregator.ByQuery(results) }

// Deployment types.
type (
	// System is a wired in-process deployment: clients, proxies,
	// aggregator.
	System = core.System
	// SystemConfig assembles a System.
	SystemConfig = core.Config
	// DB is the embedded SQL database clients store private data in.
	DB = minisql.DB
	// Value is one dynamically typed database cell.
	Value = minisql.Value
	// HistStore is the on-disk response store for historical analytics.
	HistStore = histstore.Store
)

// NewSystem wires a complete in-process PrivApprox deployment: the
// initializer derives (s, p, q) from the budget, clients are populated,
// the proxy fleet and aggregator are started, and SystemConfig.Query,
// when set, is signed and registered (nil starts an idle fleet).
func NewSystem(cfg SystemConfig) (*System, error) { return core.New(cfg) }

// NewDB returns an empty client-side database.
func NewDB() *DB { return minisql.NewDB() }

// NumberValue wraps a float as a database cell.
func NumberValue(f float64) Value { return minisql.Number(f) }

// TextValue wraps a string as a database cell.
func TextValue(s string) Value { return minisql.Text(s) }

// UniformRanges builds n equal-width numeric buckets over [lo, hi),
// optionally with a trailing overflow bucket.
func UniformRanges(lo, hi float64, n int, overflow bool) (Buckets, error) {
	return query.UniformRanges(lo, hi, n, overflow)
}

// EpsilonDP returns the differential privacy level of the randomized
// response parameters (paper Eq. 8).
func EpsilonDP(p RRParams) (float64, error) { return rr.EpsilonDP(p) }

// EpsilonZK returns the zero-knowledge privacy level of the combined
// sampling + randomized response mechanism (technical report Eq. 19;
// the quantity Table 1 and Fig. 7b report).
func EpsilonZK(s float64, p RRParams) (float64, error) { return rr.EpsilonZK(s, p) }

// EpsilonDPSampled returns the subsampling-amplified differential
// privacy level (the Fig. 5c comparison quantity).
func EpsilonDPSampled(s float64, p RRParams) (float64, error) { return rr.EpsilonDPSampled(s, p) }

// SamplingForEpsilonZK inverts EpsilonZK: the sampling fraction that
// achieves a target zero-knowledge level at fixed (p, q).
func SamplingForEpsilonZK(epsZK float64, p RRParams) (float64, error) {
	return rr.SamplingForEpsilonZK(epsZK, p)
}

// BatchAnalyze runs a historical query over stored responses with an
// extra round of aggregator-side sampling (paper §3.3.1).
func BatchAnalyze(cfg aggregator.Config, src aggregator.AnswerSource, from, to time.Time, secondSampling float64, rng *rand.Rand) (BatchResult, error) {
	return aggregator.BatchAnalyze(cfg, src, from, to, secondSampling, rng)
}

// AggregatorConfig configures standalone aggregation (used by
// BatchAnalyze and the networked binaries).
type AggregatorConfig = aggregator.Config

// Case-study workloads (paper §7).

// TaxiQuery builds the NYC-taxi case study query.
func TaxiQuery(analyst string, serial uint64, freq, window, slide time.Duration) (*Query, error) {
	return workload.TaxiQuery(analyst, serial, freq, window, slide)
}

// PopulateTaxi fills a client database with synthetic taxi rides. A nil
// rng draws a random seed.
func PopulateTaxi(db *DB, rng *rand.Rand, rides int, start time.Time, interval time.Duration) error {
	if rng == nil {
		rng = seeded.New(rand.Int63())
	}
	return workload.PopulateTaxi(db, rng, rides, start, interval)
}

// ElectricityQuery builds the household-electricity case study query.
func ElectricityQuery(analyst string, serial uint64, freq, window, slide time.Duration) (*Query, error) {
	return workload.ElectricityQuery(analyst, serial, freq, window, slide)
}

// PopulateElectricity fills a client database with synthetic household
// readings. A nil rng draws a random seed.
func PopulateElectricity(db *DB, rng *rand.Rand, readings int, start time.Time) error {
	if rng == nil {
		rng = seeded.New(rand.Int63())
	}
	return workload.PopulateElectricity(db, rng, readings, start)
}
