package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/baseline/splitx"
	"privapprox/internal/budget"
	"privapprox/internal/cryptobench"
	"privapprox/internal/minisql"
	"privapprox/internal/netsim"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/workload"
	"privapprox/internal/xorcrypt"
)

// measureNs times fn over iters iterations and returns ns/op.
func measureNs(iters int, fn func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// Table 2: crypto operations per second, XOR vs RSA vs Goldwasser–
// Micali vs Paillier, 1024-bit keys, projected onto the paper's three
// device profiles.
func runTable2(fast bool) error {
	const keyBits = 1024
	msg := make([]byte, 18) // ≈144-bit answer message, as in the paper's setup
	for i := range msg {
		msg[i] = byte(i)
	}
	encIters, decIters := 200, 50
	if fast {
		encIters, decIters = 50, 10
	}

	// XOR split (2 proxies) and join.
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		return err
	}
	// Scratch-reusing split/join: the steady-state hot path the
	// allocgate pins at 0 allocs/op.
	var scratch xorcrypt.SplitScratch
	var lastShares []xorcrypt.Share
	xorEnc, err := measureNs(encIters*50, func() error {
		sh, err := splitter.SplitInto(msg, &scratch)
		lastShares = sh
		return err
	})
	if err != nil {
		return err
	}
	var joinBuf []byte
	xorDec, err := measureNs(decIters*50, func() error {
		out, err := xorcrypt.JoinInto(joinBuf, lastShares)
		joinBuf = out
		return err
	})
	if err != nil {
		return err
	}

	// RSA.
	rsaC, err := cryptobench.NewRSACipher(keyBits, nil)
	if err != nil {
		return err
	}
	var rsaCT []byte
	rsaEnc, err := measureNs(encIters, func() error {
		ct, err := rsaC.Encrypt(msg)
		rsaCT = ct
		return err
	})
	if err != nil {
		return err
	}
	rsaDec, err := measureNs(decIters, func() error {
		_, err := rsaC.Decrypt(rsaCT)
		return err
	})
	if err != nil {
		return err
	}

	// Goldwasser–Micali: one answer message = 144 bit encryptions.
	gmKey, err := cryptobench.GenerateGMKey(keyBits, nil)
	if err != nil {
		return err
	}
	var gmCT []*big.Int
	gmEnc, err := measureNs(max(encIters/10, 3), func() error {
		ct, err := gmKey.EncryptBits(msg, len(msg)*8, nil)
		gmCT = ct
		return err
	})
	if err != nil {
		return err
	}
	gmDec, err := measureNs(max(decIters/10, 3), func() error {
		_, err := gmKey.DecryptBits(gmCT)
		return err
	})
	if err != nil {
		return err
	}

	// Paillier.
	pKey, err := cryptobench.GeneratePaillierKey(keyBits, nil)
	if err != nil {
		return err
	}
	m := new(big.Int).SetBytes(msg)
	var pCT *big.Int
	pEnc, err := measureNs(max(encIters/10, 3), func() error {
		ct, err := pKey.Encrypt(m, nil)
		pCT = ct
		return err
	})
	if err != nil {
		return err
	}
	pDec, err := measureNs(max(decIters/10, 3), func() error {
		_, err := pKey.Decrypt(pCT)
		return err
	})
	if err != nil {
		return err
	}

	fmt.Printf("%-12s", "scheme")
	for _, d := range cryptobench.Devices() {
		fmt.Printf("  %12s-enc %12s-dec", d.Name, d.Name)
	}
	fmt.Println()
	rows := []struct {
		name     string
		enc, dec float64
	}{
		{"RSA", rsaEnc, rsaDec},
		{"Goldwasser", gmEnc, gmDec},
		{"Paillier", pEnc, pDec},
		{"PrivApprox", xorEnc, xorDec},
	}
	for _, r := range rows {
		fmt.Printf("%-12s", r.name)
		for _, d := range cryptobench.Devices() {
			fmt.Printf("  %16.0f %16.0f", d.OpsPerSec(r.enc), d.OpsPerSec(r.dec))
		}
		fmt.Println()
	}
	fmt.Println("paper: XOR beats public-key schemes by 2–4 orders of magnitude")
	return nil
}

// Table 3: client-side throughput of the three answering sub-steps.
func runTable3(fast bool) error {
	iters := 2000
	if fast {
		iters = 300
	}
	// The client's per-epoch pipeline on the taxi workload.
	db := minisql.NewDB()
	rng := rand.New(rand.NewSource(7))
	if err := workload.PopulateTaxi(db, rng, 50, time.Unix(0, 0), time.Minute); err != nil {
		return err
	}
	stmt, err := minisql.Parse("SELECT distance FROM rides")
	if err != nil {
		return err
	}
	// What a client does per epoch: scan its kept plan, keep the last value.
	plan := minisql.NewPlan(stmt.(*minisql.SelectStmt))
	var last minisql.Value
	keepLast := func(row []minisql.Value) { last = row[0] }
	dbRead, err := measureNs(iters, func() error {
		return plan.Scan(db, keepLast)
	})
	if err != nil {
		return err
	}
	if last.IsNull() {
		return fmt.Errorf("table3: the scan saw no distance")
	}

	rz, err := rr.NewRandomizer(rr.Params{P: 0.9, Q: 0.6}, rng)
	if err != nil {
		return err
	}
	vec, err := answer.OneHot(11, 3)
	if err != nil {
		return err
	}
	rrNs, err := measureNs(iters*20, func() error {
		rz.RespondBits(vec.Bytes(), vec.Len())
		return nil
	})
	if err != nil {
		return err
	}

	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		return err
	}
	raw, err := (&answer.Message{QueryID: 1, Epoch: 0, Answer: vec}).MarshalBinary()
	if err != nil {
		return err
	}
	var scratch xorcrypt.SplitScratch
	xorNs, err := measureNs(iters*20, func() error {
		_, err := splitter.SplitInto(raw, &scratch)
		return err
	})
	if err != nil {
		return err
	}

	totalNs := dbRead + rrNs + xorNs
	fmt.Printf("%-22s", "step (ops/sec)")
	for _, d := range cryptobench.Devices() {
		fmt.Printf("%14s", d.Name)
	}
	fmt.Println()
	rows := []struct {
		name string
		ns   float64
	}{
		{"SQL read", dbRead},
		{"Randomized response", rrNs},
		{"XOR encryption", xorNs},
		{"Total", totalNs},
	}
	for _, r := range rows {
		fmt.Printf("%-22s", r.name)
		for _, d := range cryptobench.Devices() {
			fmt.Printf("%14.0f", d.OpsPerSec(r.ns))
		}
		fmt.Println()
	}
	fmt.Println("paper: the database read dominates the client pipeline")
	return nil
}

// Fig 5b: proxy throughput vs answer bit-vector size on a 3-node
// (3-partition) pub/sub cluster.
func runFig5b(fast bool) error {
	msgs := 20000
	if fast {
		msgs = 3000
	}
	fmt.Printf("%12s  %16s  %14s\n", "vector bits", "responses/sec", "msg bytes")
	for _, bits := range []int{100, 1000, 10000} {
		broker := pubsub.NewBroker()
		if err := broker.CreateTopic("answer", 3); err != nil {
			return err
		}
		payload := make([]byte, answer.EncodedLen(bits))
		key := make([]byte, 16)
		// One response per publish: a batch of one.
		msg := pubsub.Columns{Count: 1, KeyLen: len(key), ValLen: len(payload), Keys: key, Vals: payload}
		start := time.Now()
		for i := 0; i < msgs; i++ {
			key[0], key[1], key[2] = byte(i), byte(i>>8), byte(i>>16)
			if err := broker.PublishColumns("answer", msg, 0, 0); err != nil {
				return err
			}
		}
		consumer, err := pubsub.NewConsumer(broker, "fig5b", "answer")
		if err != nil {
			return err
		}
		consumed := 0
		for {
			runs, err := consumer.PollRuns(8192, 0)
			if err != nil {
				return err
			}
			if len(runs) == 0 {
				break
			}
			for _, r := range runs {
				consumed += r.Count
			}
		}
		elapsed := time.Since(start)
		if consumed != msgs {
			return fmt.Errorf("lost messages: %d of %d", consumed, msgs)
		}
		rate := float64(msgs) / elapsed.Seconds()
		fmt.Printf("%12d  %16.0f  %14d\n", bits, rate, len(payload))
	}
	fmt.Println("paper: throughput inversely proportional to vector size")
	return nil
}

// Fig 6: proxy latency vs number of clients — SplitX's synchronized
// pipeline against PrivApprox's forward-only proxies, measured on the
// shared substrate and extrapolated linearly to the paper's range.
func runFig6(fast bool) error {
	base := 20000
	if fast {
		base = 4000
	}
	pa, err := splitx.RunPrivApprox(base, 32)
	if err != nil {
		return err
	}
	sx, err := splitx.RunSplitX(base, 32, rand.New(rand.NewSource(9)))
	if err != nil {
		return err
	}
	fmt.Printf("measured at n=%d: PrivApprox=%v, SplitX=%v (tx=%v comp=%v shuf=%v)\n",
		base, pa, sx.Total, sx.Transmission, sx.Computation, sx.Shuffling)
	fmt.Printf("%10s  %14s  %14s  %14s  %14s  %14s  %8s\n",
		"clients", "PrivApprox", "SplitX", "SplitX-tx", "SplitX-comp", "SplitX-shuf", "speedup")
	for _, n := range []int{100, 1000, 10000, 100000, 1000000, 10000000, 100000000} {
		paN := splitx.Extrapolate(pa, base, n)
		sxN := splitx.Extrapolate(sx.Total, base, n)
		txN := splitx.Extrapolate(sx.Transmission, base, n)
		cpN := splitx.Extrapolate(sx.Computation, base, n)
		shN := splitx.Extrapolate(sx.Shuffling, base, n)
		fmt.Printf("%10d  %14v  %14v  %14v  %14v  %14v  %7.2fx\n",
			n, paN.Round(time.Microsecond), sxN.Round(time.Microsecond),
			txN.Round(time.Microsecond), cpN.Round(time.Microsecond), shN.Round(time.Microsecond),
			float64(sxN)/float64(paN))
	}
	fmt.Println("paper: 6.48x speedup at 10^6 clients; SplitX dominated by sync phases")
	return nil
}

// Fig 8: proxy and aggregator throughput, scale-up on real cores and
// scale-out via the calibrated cluster model, for both case-study
// message sizes.
func runFig8(fast bool) error {
	msgs := 30000
	if fast {
		msgs = 5000
	}
	workloads := []struct {
		name string
		bits int
	}{
		{"NYC Taxi", 11},
		{"Electricity", 6},
	}
	maxCores := runtime.GOMAXPROCS(0)
	for _, w := range workloads {
		// Proxy: parallel publishers on one broker.
		perCore, err := measureProxyRate(msgs, w.bits, 1)
		if err != nil {
			return err
		}
		model, err := netsim.Calibrate(perCore, 8)
		if err != nil {
			return err
		}
		fmt.Printf("[%s] proxy scale-up (responses/sec):\n", w.name)
		for _, cores := range []int{2, 4, 6, 8} {
			var rate float64
			if cores <= maxCores {
				rate, err = measureProxyRate(msgs, w.bits, cores)
				if err != nil {
					return err
				}
			} else {
				rate, err = model.ScaleUp(cores)
				if err != nil {
					return err
				}
			}
			fmt.Printf("  %d cores: %.0f\n", cores, rate)
		}
		fmt.Printf("[%s] proxy scale-out (modeled, 8-core nodes):\n", w.name)
		for _, nodes := range []int{1, 2, 3, 4} {
			rate, err := model.ScaleOut(nodes)
			if err != nil {
				return err
			}
			fmt.Printf("  %d nodes: %.0f\n", nodes, rate)
		}

		// Aggregator: join + decrypt + accumulate per answer.
		aggPerCore, err := measureAggregatorRate(msgs/2, w.bits)
		if err != nil {
			return err
		}
		aggModel, err := netsim.Calibrate(aggPerCore, 8)
		if err != nil {
			return err
		}
		fmt.Printf("[%s] aggregator scale-out (modeled, 8-core nodes):\n", w.name)
		for _, nodes := range []int{1, 5, 10, 15, 20} {
			rate, err := aggModel.ScaleOut(nodes)
			if err != nil {
				return err
			}
			fmt.Printf("  %d nodes: %.0f\n", nodes, rate)
		}
	}
	fmt.Println("paper: proxies scale near-linearly; aggregator lower (join-bound)")
	return nil
}

func measureProxyRate(msgs, bits, workers int) (float64, error) {
	broker := pubsub.NewBroker()
	if err := broker.CreateTopic("answer", max(workers, 1)); err != nil {
		return 0, err
	}
	payload := make([]byte, answer.EncodedLen(bits))
	errc := make(chan error, workers)
	start := time.Now()
	per := msgs / workers
	for w := 0; w < workers; w++ {
		go func(w int) {
			key := make([]byte, 16)
			msg := pubsub.Columns{Count: 1, KeyLen: len(key), ValLen: len(payload), Keys: key, Vals: payload}
			for i := 0; i < per; i++ {
				key[0], key[1], key[2] = byte(w), byte(i), byte(i>>8)
				if err := broker.PublishColumns("answer", msg, 0, 0); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(per*workers) / elapsed.Seconds(), nil
}

func measureAggregatorRate(msgs, bits int) (float64, error) {
	// The real aggregator path per answer: two share-joiner map
	// operations (the join of the key and answer streams), XOR
	// decryption, message decoding, and window accumulation — the paper
	// attributes the aggregator's lower throughput to this join. Shares
	// go in as the aggregator role drains them: one batch per source of
	// up to one poll's worth of records.
	q, err := workload.TaxiQuery("bench", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		return 0, err
	}
	if bits != len(q.Buckets) {
		buckets, err := query.UniformRanges(0, float64(bits), bits, false)
		if err != nil {
			return 0, err
		}
		q.Buckets = buckets
	}
	agg, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: msgs,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       1,
	})
	if err != nil {
		return 0, err
	}
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		return 0, err
	}
	vec, err := answer.OneHot(len(q.Buckets), 0)
	if err != nil {
		return 0, err
	}
	raw, err := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	if err != nil {
		return 0, err
	}
	var lanes [2][]xorcrypt.Share
	for range msgs {
		sh, err := splitter.SplitInto(raw, new(xorcrypt.SplitScratch)) // the lanes keep every message's shares
		if err != nil {
			return 0, err
		}
		for src := range lanes {
			lanes[src] = append(lanes[src], sh[src])
		}
	}
	const pollRecords = 4096 // the aggregator role's largest poll
	start := time.Now()
	for lo := 0; lo < msgs; lo += pollRecords {
		hi := min(lo+pollRecords, msgs)
		for src, lane := range lanes {
			if _, err := agg.SubmitShareBatch(lane[lo:hi], src, time.Time{}); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(start)
	if agg.Stats().Decoded != int64(msgs) {
		return 0, fmt.Errorf("fig8: decoded %d of %d", agg.Stats().Decoded, msgs)
	}
	return float64(msgs) / elapsed.Seconds(), nil
}
