package main

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
)

// spec is one workload: the shape of the deployment and of its inputs.
// Every workload runs two proxies and randomized response p=0.9 q=0.6,
// and every query slides by one epoch (δ = f), so one window closes per
// query per epoch and the latency sample count equals the epoch count.
type spec struct {
	name string

	clients      int
	rows         int     // taxi rides in each client's database
	s            float64 // sampling fraction
	queries      int
	buckets      int // answer vector width
	windowEpochs int // w, in epochs
	multi        bool
	durable      bool
	tcp          bool

	// A run measures a fixed number of epochs, the same work on every
	// commit: epochs in all, in segments of segEpochs, after warmup epochs
	// on each pipeline. The counts are what this workload gets through in
	// about BENCHMARK.json's run_seconds on two cores. They are constants
	// because the brokers never trim: the retained heap, and with it the
	// garbage collector's cycles, depend on the epoch count, so a count
	// that followed a flag or the machine's speed would change the
	// metrics it is there to measure.
	epochs    int
	segEpochs int
	warmup    int
}

// Sizes put one epoch at 10-30 ms on two cores. The brokers never trim,
// so the heap a pipeline retains grows with every epoch; the epoch counts
// keep it under ~512 MB even when one pipeline runs 70% of a workload's
// epochs, as the traced run does. README.md says why each workload exists.
var specs = []spec{
	{
		// 50-row client DBs, sliding w=10f, memory only: minisql evaluation
		// and the client answer path do most of the work.
		name:    "inproc.sql",
		clients: 2000, rows: 50, s: 0.6, queries: 1, buckets: 11, windowEpochs: 10,
		epochs: 900, segEpochs: 10, warmup: 20,
	},
	{
		// 1-row DBs, s=1, tumbling window, two brokers over loopback TCP:
		// wire encode/decode, syscalls and fetch round-trips dominate.
		name:    "tcp.columnar",
		clients: 2000, rows: 1, s: 1, queries: 1, buckets: 11, windowEpochs: 1, tcp: true,
		epochs: 660, segEpochs: 10, warmup: 20,
	},
	{
		// tcp.columnar's inputs through core.System with a WAL beside every
		// publish (fsync never): framing, CRC and write(2) under the
		// partition lock.
		name:    "inproc.durable",
		clients: 2000, rows: 1, s: 1, queries: 1, buckets: 11, windowEpochs: 1, durable: true,
		epochs: 660, segEpochs: 10, warmup: 20,
	},
	{
		// 4 concurrent queries x 128 buckets, s=0.3, sliding w=8f: per-byte
		// kernels, multi-query demux and fire+estimate dominate.
		name:    "multi.wide",
		clients: 2000, rows: 1, s: 0.3, queries: 4, buckets: 128, windowEpochs: 8, multi: true,
		epochs: 480, segEpochs: 10, warmup: 20,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// short shrinks a workload for the smoke test: same shape, a fraction of
// the population and of the run.
func (sp spec) short() spec {
	sp.clients /= 10
	sp.epochs = 72
	sp.segEpochs = 4
	sp.warmup = 4
	return sp
}

const (
	epochFreq = time.Second // f: event-time length of one epoch
	proxies   = 2
	refEpochs = 20 // epochs the set-up reference run covers
)

// origin is epoch zero in event time; it equals core.Config's default so
// the TCP wiring and core.System line up epoch for epoch.
var origin = time.Unix(1_700_000_000, 0)

// inputs is everything a run feeds the product, derived from the seed.
type inputs struct {
	spec    spec
	seed    int64 // system seed: client i uses seed+i+2, the aggregator seed+1
	key     ed25519.PrivateKey
	queries []*query.Query
	params  budget.Params
}

func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func makeInputs(sp spec, seed int64) (*inputs, error) {
	mixed := splitmix64(uint64(seed))
	in := &inputs{
		spec: sp,
		// Positive and well below overflow of the per-client offsets
		// core.New adds to it.
		seed:   int64(mixed>>2) | 1,
		params: budget.Params{S: sp.s, RR: rr.Params{P: 0.9, Q: 0.6}},
	}
	var keySeed [ed25519.SeedSize]byte
	binary.BigEndian.PutUint64(keySeed[:], mixed)
	in.key = ed25519.NewKeyFromSeed(keySeed[:])

	window := time.Duration(sp.windowEpochs) * epochFreq
	for i := 0; i < sp.queries; i++ {
		q, err := workload.TaxiQuery("bench", uint64(i+1), epochFreq, window, epochFreq)
		if err != nil {
			return nil, err
		}
		if sp.buckets != len(q.Buckets) {
			// Wide vectors: the same distance column cut into finer ranges.
			b, err := query.UniformRanges(0, 32, sp.buckets-1, true)
			if err != nil {
				return nil, err
			}
			q.Buckets = b
		}
		in.queries = append(in.queries, q)
	}
	return in, nil
}

// populate fills client i's database. The product only ever sees these
// generated rows.
func (in *inputs) populate(i int, db *minisql.DB) error {
	rng := rand.New(rand.NewSource(in.seed ^ int64(splitmix64(uint64(i)+1)>>1)))
	return workload.PopulateTaxi(db, rng, in.spec.rows, time.Unix(0, 0), time.Minute)
}

func clientID(i int) string { return fmt.Sprintf("client-%06d", i) }

// epochTime is the event time of epoch e.
func epochTime(e uint64) time.Time { return origin.Add(time.Duration(e) * epochFreq) }

// lastEpochOf is the last epoch a window covers.
func lastEpochOf(end time.Time) int64 { return int64(end.Sub(origin)/epochFreq) - 1 }
