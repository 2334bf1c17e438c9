// Benchmarks: one testing.B per paper table and figure, plus the
// ablation benches DESIGN.md §5 calls out. Run with
//
//	go test -bench=. -benchmem
//
// The experiments binary (cmd/experiments) prints the full paper-style
// tables; these benchmarks measure the underlying operations so
// regressions in any reproduced result are caught by tooling.
package privapprox

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/baseline/rappor"
	"privapprox/internal/baseline/splitx"
	"privapprox/internal/budget"
	"privapprox/internal/core"
	"privapprox/internal/cryptobench"
	"privapprox/internal/minisql"
	"privapprox/internal/pubsub"
	"privapprox/internal/rr"
	"privapprox/internal/sampling"
	"privapprox/internal/workload"
	"privapprox/internal/xorcrypt"
)

// --- Table 1: randomized response utility/privacy per (p, q). ---

func BenchmarkTable1RandomizedResponse(b *testing.B) {
	for _, p := range []float64{0.3, 0.6, 0.9} {
		for _, q := range []float64{0.3, 0.6, 0.9} {
			b.Run(fmt.Sprintf("p=%.1f,q=%.1f", p, q), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				params := rr.Params{P: p, Q: q}
				rz, err := rr.NewRandomizer(params, rng)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rz.Respond(i%5 < 3) // 60% yes stream
				}
				ezk, err := rr.EpsilonZK(0.6, params)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ezk, "ε_zk@s=0.6")
			})
		}
	}
}

// --- Table 2: crypto operation costs (XOR vs RSA vs GM vs Paillier). ---

func BenchmarkTable2CryptoXOR(b *testing.B) {
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 18)
	// Steady state: scratch-reusing split/join, 0 allocs/op (gated by
	// TestHotPathZeroAllocs).
	b.Run("encrypt", func(b *testing.B) {
		var scratch xorcrypt.SplitScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := splitter.SplitInto(msg, &scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
	shares, _ := splitter.Split(msg)
	b.Run("decrypt", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := xorcrypt.JoinInto(buf, shares)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
}

func BenchmarkTable2CryptoRSA(b *testing.B) {
	c, err := cryptobench.NewRSACipher(1024, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 18)
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Encrypt(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	ct, _ := c.Encrypt(msg)
	b.Run("decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTable2CryptoGoldwasserMicali(b *testing.B) {
	key, err := cryptobench.GenerateGMKey(1024, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 18)
	b.Run("encrypt144bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.EncryptBits(msg, 144, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	ct, _ := key.EncryptBits(msg, 144, nil)
	b.Run("decrypt144bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.DecryptBits(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTable2CryptoPaillier(b *testing.B) {
	key, err := cryptobench.GeneratePaillierKey(1024, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	m := big.NewInt(123456789)
	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.Encrypt(m, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	ct, _ := key.Encrypt(m, nil)
	b.Run("decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 3: client-side answering pipeline. ---

func BenchmarkTable3ClientDBRead(b *testing.B) {
	db := minisql.NewDB()
	rng := rand.New(rand.NewSource(2))
	if err := workload.PopulateTaxi(db, rng, 50, time.Unix(0, 0), time.Minute); err != nil {
		b.Fatal(err)
	}
	stmt, err := minisql.Parse("SELECT distance FROM rides")
	if err != nil {
		b.Fatal(err)
	}
	plan := minisql.NewPlan(stmt.(*minisql.SelectStmt))
	var last minisql.Value
	keepLast := func(row []minisql.Value) { last = row[0] }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := plan.Scan(db, keepLast); err != nil {
			b.Fatal(err)
		}
	}
	if last.IsNull() {
		b.Fatal("scan saw no distance")
	}
}

func BenchmarkTable3ClientRandomizedResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rz, err := rr.NewRandomizer(rr.Params{P: 0.9, Q: 0.6}, rng)
	if err != nil {
		b.Fatal(err)
	}
	vec, err := answer.OneHot(11, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rz.RespondBits(vec.Bytes(), vec.Len())
	}
}

func BenchmarkTable3ClientXOREncryption(b *testing.B) {
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 3)
	raw, err := (&answer.Message{QueryID: 1, Epoch: 0, Answer: vec}).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	var scratch xorcrypt.SplitScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := splitter.SplitInto(raw, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 4a/4b/4c: sampling + randomization estimation loop. ---

func BenchmarkFig4aAccuracyVsSampling(b *testing.B) {
	for _, s := range []float64{0.1, 0.6, 0.9} {
		b.Run(fmt.Sprintf("s=%.1f", s), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			params := rr.Params{P: 0.6, Q: 0.6}
			rz, _ := rr.NewRandomizer(params, rng)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rng.Float64() < s {
					rz.Respond(i%5 < 3)
				}
			}
		})
	}
}

func BenchmarkFig4bErrorDecomposition(b *testing.B) {
	// The estimator pair on a 10k-answer window.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rr.EstimateYes(rr.Params{P: 0.3, Q: 0.6}, 5300, 10000); err != nil {
			b.Fatal(err)
		}
		srs, err := sampling.NewSRS(10000, 20000, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srs.Count(5300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4cClients(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			rz, _ := rr.NewRandomizer(rr.Params{P: 0.9, Q: 0.6}, rng)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				obs := 0
				for c := 0; c < n; c++ {
					if rz.Respond(c%5 < 3) {
						obs++
					}
				}
				if _, err := rr.EstimateYes(rr.Params{P: 0.9, Q: 0.6}, obs, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 5a: inversion estimators. ---

func BenchmarkFig5aInversion(b *testing.B) {
	params := rr.Params{P: 0.9, Q: 0.6}
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rr.EstimateYes(params, 1500, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inverted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rr.EstimateNo(params, 1500, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig 5b: proxy publish path per answer size. ---

func BenchmarkFig5bProxyThroughput(b *testing.B) {
	for _, bits := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			broker := pubsub.NewBroker()
			if err := broker.CreateTopic("answer", 3); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, answer.EncodedLen(bits))
			key := make([]byte, 16)
			msg := pubsub.Columns{Count: 1, KeyLen: len(key), ValLen: len(payload), Keys: key, Vals: payload}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
				if err := broker.PublishColumns("answer", msg, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 5c: privacy accounting (PrivApprox vs RAPPOR). ---

func BenchmarkFig5cRAPPOR(b *testing.B) {
	enc, err := rappor.NewEncoder(rappor.Params{K: 32, H: 1, F: 0.5, P: 0.25, Q: 0.75},
		rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rappor-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc.Encode("value")
		}
	})
	b.Run("epsilon-accounting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rr.EpsilonDPSampled(0.6, rr.Params{P: 0.5, Q: 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig 6: SplitX vs PrivApprox proxy pipelines. ---

func BenchmarkFig6SplitX(b *testing.B) {
	const batch = 2000
	b.Run("privapprox", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := splitx.RunPrivApprox(batch, 32); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch), "answers/batch")
	})
	b.Run("splitx", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < b.N; i++ {
			if _, err := splitx.RunSplitX(batch, 32, rng); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch), "answers/batch")
	})
}

// --- Fig 7: full case-study pipeline per epoch. ---

func BenchmarkFig7TaxiSweep(b *testing.B) {
	q, err := workload.TaxiQuery("bench", 1, time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	params := budget.Params{S: 0.6, RR: rr.Params{P: 0.9, Q: 0.3}}
	sys, err := core.New(core.Config{
		Clients: 500,
		Query:   q,
		Params:  &params,
		Seed:    8,
		Populate: func(i int, db *minisql.DB) error {
			rng := rand.New(rand.NewSource(int64(i)))
			return workload.PopulateTaxi(db, rng, 2, time.Unix(0, 0), time.Minute)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(500, "clients/epoch")
}

// --- Parallel epoch pipeline: workers sweep. ---

// BenchmarkEpochPipelineParallel measures one full epoch (concurrent
// client answering → proxies → parallel drain → aggregator) across
// worker-pool settings. workers=1 is the sequential baseline;
// workers=GOMAXPROCS should beat it by ≥ 2× on a multi-core runner while
// producing identical results under the fixed seed (see core's
// determinism tests).
func BenchmarkEpochPipelineParallel(b *testing.B) {
	q, err := workload.TaxiQuery("bench", 1, time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const clients = 1000
			sys, err := core.New(core.Config{
				Clients: clients,
				Query:   q,
				Params:  &params,
				Seed:    12,
				Workers: workers,
				Populate: func(i int, db *minisql.DB) error {
					rng := rand.New(rand.NewSource(int64(i)))
					return workload.PopulateTaxi(db, rng, 2, time.Unix(0, 0), time.Minute)
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.RunEpoch(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(clients)*float64(b.N)/b.Elapsed().Seconds(), "answers/sec")
		})
	}
}

// BenchmarkMultiQuery sweeps the number of concurrent queries sharing
// one fleet — the shared-fleet amortization the multi-query engine is
// built for. ns/op measures one full epoch (every client answers every
// query); the per-answer metric divides the shared split/transport/join
// machinery over Q queries, so sublinear per-query marginal cost shows
// up as answers/sec falling slower than Q grows.
func BenchmarkMultiQuery(b *testing.B) {
	params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
	for _, queries := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			const clients = 500
			sys, err := core.New(core.Config{
				Clients: clients,
				Params:  &params,
				Seed:    12,
				Populate: func(i int, db *minisql.DB) error {
					rng := rand.New(rand.NewSource(int64(i)))
					return workload.PopulateTaxi(db, rng, 2, time.Unix(0, 0), time.Minute)
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			for qi := 0; qi < queries; qi++ {
				q, err := workload.TaxiQuery("bench", uint64(qi+1), time.Second, 2*time.Second, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Register(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.RunEpoch(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			answers := float64(clients) * float64(queries) * float64(b.N)
			b.ReportMetric(answers/b.Elapsed().Seconds(), "answers/sec")
			b.ReportMetric(b.Elapsed().Seconds()/answers*1e9, "ns/answer")
		})
	}
}

// --- Networked transport: TCP batch × connections sweep. ---

// BenchmarkTCPPipeline measures client → TCP proxy share throughput
// over the batched, pipelined transport on loopback. batch=1,conns=1
// publishes one share per round-trip (a batch of one); batch ≥ 256 should beat
// it by ≥ 5× (one frame amortizes hundreds of shares), mirroring the
// netbench experiment in cmd/experiments.
func BenchmarkTCPPipeline(b *testing.B) {
	for _, conns := range []int{1, 4} {
		for _, batch := range []int{1, 64, 256, 1024} {
			b.Run(fmt.Sprintf("batch=%d,conns=%d", batch, conns), func(b *testing.B) {
				broker := pubsub.NewBroker()
				if err := broker.CreateTopic("answer", 4); err != nil {
					b.Fatal(err)
				}
				srv, err := pubsub.Serve(broker, "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				cli, err := pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: conns})
				if err != nil {
					b.Fatal(err)
				}
				defer cli.Close()
				payload := make([]byte, 32)
				key := make([]byte, 16)
				cols := pubsub.Columns{KeyLen: len(key), ValLen: len(payload)}
				b.SetBytes(int64(len(key) + len(payload)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
					cols.Keys = append(cols.Keys, key...)
					cols.Vals = append(cols.Vals, payload...)
					cols.Count++
					if cols.Count == batch || i == b.N-1 {
						if err := cli.PublishColumns("answer", cols, 0, 0); err != nil {
							b.Fatal(err)
						}
						cols.Count, cols.Keys, cols.Vals = 0, cols.Keys[:0], cols.Vals[:0]
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "shares/sec")
			})
		}
	}
}

// --- Fig 8: aggregator hot path (join + decrypt + window). ---

// BenchmarkFig8SubmitBatch is Fig 8's aggregator tail: messages split
// into per-proxy share lanes, each lane consumed by one SubmitShareBatch
// — join → decrypt → decode → accumulate. The sweep over batch sizes
// records the amortization frontier (ns/answer vs batch); batch=1 is
// share-by-share submission.
func BenchmarkFig8SubmitBatch(b *testing.B) {
	for _, batch := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			q, err := workload.TaxiQuery("bench", 1, time.Second, time.Hour, time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			agg, err := aggregator.New(aggregator.Config{
				Query:      q,
				Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
				Population: 1 << 30,
				Proxies:    2,
				Origin:     time.Unix(0, 0),
				Seed:       9,
			})
			if err != nil {
				b.Fatal(err)
			}
			splitter, err := xorcrypt.NewSplitter(2, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			vec, _ := answer.OneHot(11, 0)
			msg := newAgedMessage(b, q, vec)
			// Move event time on every 4,096 answers, as a long-lived
			// deployment's epochs do: the joiner forgets what it joined two
			// horizons ago — left at one epoch its completed-MID set grows
			// monotonically and the bucket growth shows up as phantom B/op
			// in what is a zero-allocation tail (TestFig8SubmitZeroAllocs).
			advanceEvery := max(1, 4096/batch)
			now := time.Now()
			var lanes shareLanes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for src, shares := range lanes.split(b, splitter, msg.raw, batch) {
					if _, err := agg.SubmitShareBatch(shares, src, now); err != nil {
						b.Fatal(err)
					}
				}
				if i%advanceEvery == advanceEvery-1 {
					msg.advance(b)
				}
			}
			b.StopTimer()
			answers := float64(batch) * float64(b.N)
			b.ReportMetric(answers/b.Elapsed().Seconds(), "answers/sec")
			b.ReportMetric(b.Elapsed().Seconds()/answers*1e9, "ns/answer")
		})
	}
}

// --- Fig 9: end-to-end epoch cost at different sampling fractions. ---

func BenchmarkFig9Network(b *testing.B) {
	for _, s := range []float64{0.1, 0.6, 1.0} {
		b.Run(fmt.Sprintf("s=%.1f", s), func(b *testing.B) {
			q, err := workload.TaxiQuery("bench", 1, time.Second, 2*time.Second, 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			params := budget.Params{S: s, RR: rr.Params{P: 0.9, Q: 0.6}}
			sys, err := core.New(core.Config{
				Clients: 300,
				Query:   q,
				Params:  &params,
				Seed:    10,
				Populate: func(i int, db *minisql.DB) error {
					rng := rand.New(rand.NewSource(int64(i)))
					return workload.PopulateTaxi(db, rng, 2, time.Unix(0, 0), time.Minute)
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.RunEpoch(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := sys.Fleet().TotalStats()
			b.ReportMetric(float64(st.BytesIn)/float64(b.N), "proxy-bytes/epoch")
		})
	}
}

// --- Ablations (DESIGN.md §5). ---

// Ablation: XOR share fan-out n (client-side encryption cost per proxy
// count).
func BenchmarkAblationShareFanout(b *testing.B) {
	msg := make([]byte, 32)
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("proxies=%d", n), func(b *testing.B) {
			splitter, err := xorcrypt.NewSplitter(n, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := splitter.Split(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: AES-CTR vs SHA-256 counter-mode keystream. The PRNG map is
// iterated in sorted key order so the sub-benchmark output order is
// deterministic run to run (map range order is randomized).
func BenchmarkAblationKeystream(b *testing.B) {
	buf := make([]byte, 256)
	aes, err := xorcrypt.NewAESPRNG(nil)
	if err != nil {
		b.Fatal(err)
	}
	sha, err := xorcrypt.NewSHAPRNG(nil)
	if err != nil {
		b.Fatal(err)
	}
	os := xorcrypt.NewCryptoRandPRNG()
	prngs := map[string]xorcrypt.PRNG{"aes-ctr": aes, "sha256-ctr": sha, "os-rand": os}
	names := make([]string, 0, len(prngs))
	for name := range prngs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prng := prngs[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if err := prng.Fill(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: window accumulate vs recompute — the incremental
// accumulator against rebuilding the histogram per result.
func BenchmarkAblationWindowAccumulate(b *testing.B) {
	vec, _ := answer.OneHot(11, 4)
	vecs := make([]*answer.BitVector, 1000)
	for i := range vecs {
		vecs[i] = vec.Clone()
	}
	b.Run("incremental", func(b *testing.B) {
		acc, _ := answer.NewAccumulator(11)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := acc.Add(vecs[i%len(vecs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc, _ := answer.NewAccumulator(11)
			for _, v := range vecs[:100] {
				if err := acc.Add(v); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Ablation: stratified vs simple random sampling estimators.
func BenchmarkAblationStratifiedSampling(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(rng.Intn(2))
	}
	b.Run("srs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sampling.EstimateSum(sample, 10000, 0.95); err != nil {
				b.Fatal(err)
			}
		}
	})
	strata := []sampling.Stratum{
		{Name: "a", Population: 5000, Sample: sample[:500]},
		{Name: "b", Population: 5000, Sample: sample[500:]},
	}
	b.Run("stratified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sampling.EstimateStratifiedSum(strata, 0.95); err != nil {
				b.Fatal(err)
			}
		}
	})
}
