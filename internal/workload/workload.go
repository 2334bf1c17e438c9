// Package workload generates the two case-study datasets of the paper's
// §7 evaluation. The originals (the DEBS 2015 NYC taxi trace and a
// household electricity time-of-use dataset) are not redistributable, so
// we synthesize streams with the same shape the experiments depend on:
//
//   - Taxi rides: per-ride trip distances whose marginal distribution is
//     log-normal, calibrated so ~33.57% of rides fall in the first
//     [0, 1)-mile bucket — the fraction the paper reports for its
//     dataset (§6 #IV discussion of Fig. 7).
//   - Household electricity: per-interval kWh consumption following a
//     diurnal load curve with appliance noise, bucketized into the
//     paper's six 0.5 kWh buckets over [0, 3].
//
// See DESIGN.md §2 for the substitution argument.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"privapprox/internal/minisql"
	"privapprox/internal/query"
)

// Taxi distance distribution: lognormal(μ, σ) with Φ((ln 1 − μ)/σ) =
// 0.3357 at σ = 1 → μ = 0.4242.
const (
	taxiMu    = 0.4242
	taxiSigma = 1.0
	// TaxiFirstBucketFraction is the calibrated P(distance < 1 mile).
	TaxiFirstBucketFraction = 0.3357
)

// TaxiDistance draws one trip distance in miles.
func TaxiDistance(rng *rand.Rand) float64 {
	return math.Exp(taxiMu + taxiSigma*rng.NormFloat64())
}

// TaxiBuckets returns the paper's 11 answer buckets: [0,1) … [9,10)
// miles plus [10, +inf).
func TaxiBuckets() (query.Buckets, error) {
	return query.UniformRanges(0, 10, 10, true)
}

// TaxiQuery builds the case study query "What is the distance
// distribution of taxi rides in New York?" with the given window
// geometry.
func TaxiQuery(analyst string, serial uint64, freq, window, slide time.Duration) (*query.Query, error) {
	buckets, err := TaxiBuckets()
	if err != nil {
		return nil, err
	}
	return &query.Query{
		QID:       query.ID{Analyst: analyst, Serial: serial},
		SQL:       "SELECT distance FROM rides",
		Buckets:   buckets,
		Frequency: freq,
		Window:    window,
		Slide:     slide,
	}, nil
}

// PopulateTaxi creates the rides(ts, distance) table on a client device
// and fills it with rides ending at start + i×interval.
func PopulateTaxi(db *minisql.DB, rng *rand.Rand, rides int, start time.Time, interval time.Duration) error {
	if err := db.CreateTable("rides", []string{"ts", "distance"}); err != nil {
		return err
	}
	for i := 0; i < rides; i++ {
		ts := start.Add(time.Duration(i) * interval)
		row := []minisql.Value{
			minisql.Number(float64(ts.Unix())),
			minisql.Number(TaxiDistance(rng)),
		}
		if err := db.Insert("rides", row); err != nil {
			return err
		}
	}
	return nil
}

// Electricity: base diurnal curve (kWh per 30-minute interval) plus
// appliance spikes, clamped to [0, 3].
const (
	elecBase      = 0.35
	elecDayAmp    = 0.45
	elecSpikeProb = 0.15
	elecSpikeMax  = 1.5
	elecNoise     = 0.08
	// electricityMaxKWh caps a 30-minute reading.
	electricityMaxKWh = 3.0
)

// electricityUsage draws one 30-minute consumption reading for the given
// local hour of day (0–23).
func electricityUsage(rng *rand.Rand, hour int) float64 {
	// Peak in the evening (~19:00), trough at night (~04:00).
	phase := 2 * math.Pi * (float64(hour) - 19) / 24
	v := elecBase + elecDayAmp*(0.5+0.5*math.Cos(phase))
	if rng.Float64() < elecSpikeProb {
		v += rng.Float64() * elecSpikeMax
	}
	v += rng.NormFloat64() * elecNoise
	if v < 0 {
		v = 0
	}
	if v >= electricityMaxKWh {
		v = electricityMaxKWh - 1e-9
	}
	return v
}

// electricityBuckets returns the paper's six buckets: [0,0.5), [0.5,1),
// …, [2.5,3).
func electricityBuckets() (query.Buckets, error) {
	return query.UniformRanges(0, electricityMaxKWh, 6, false)
}

// ElectricityQuery builds the case study query on electricity usage
// over the past 30 minutes.
func ElectricityQuery(analyst string, serial uint64, freq, window, slide time.Duration) (*query.Query, error) {
	buckets, err := electricityBuckets()
	if err != nil {
		return nil, err
	}
	return &query.Query{
		QID:       query.ID{Analyst: analyst, Serial: serial},
		SQL:       "SELECT kwh FROM consumption",
		Buckets:   buckets,
		Frequency: freq,
		Window:    window,
		Slide:     slide,
	}, nil
}

// PopulateElectricity creates the consumption(ts, kwh) table and fills
// it with readings every 30 minutes starting at start.
func PopulateElectricity(db *minisql.DB, rng *rand.Rand, readings int, start time.Time) error {
	if err := db.CreateTable("consumption", []string{"ts", "kwh"}); err != nil {
		return err
	}
	for i := 0; i < readings; i++ {
		ts := start.Add(time.Duration(i) * 30 * time.Minute)
		row := []minisql.Value{
			minisql.Number(float64(ts.Unix())),
			minisql.Number(electricityUsage(rng, ts.Hour())),
		}
		if err := db.Insert("consumption", row); err != nil {
			return err
		}
	}
	return nil
}

// trueDistribution computes the exact bucket histogram of a population
// of values — the ground truth experiments compare estimates against.
func trueDistribution(buckets query.Buckets, values []float64) []int {
	counts := make([]int, len(buckets))
	for _, v := range values {
		if idx := buckets.Index(fmt.Sprintf("%g", v)); idx >= 0 {
			counts[idx]++
		}
	}
	return counts
}

// yesFractionPopulation synthesizes the microbenchmark population used
// throughout §6: n binary answers of which fraction are truthful "Yes".
func yesFractionPopulation(n int, fraction float64) []bool {
	out := make([]bool, n)
	yes := int(math.Round(fraction * float64(n)))
	for i := 0; i < yes && i < n; i++ {
		out[i] = true
	}
	return out
}
