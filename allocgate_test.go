// The allocs/op regression gate for the share hot path. The paper's
// performance argument (Table 2, Fig. 8) rests on the per-answer
// pipeline being XOR-cheap; these gates pin the steady state of every
// hot-path stage at zero allocations per operation so a regression
// shows up as a test failure, not as a slow drift back into the Go
// allocator. Run as part of `make ci` (the allocgate target and the
// plain test target both cover it).
package privapprox

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/telemetry"
	"privapprox/internal/wal"
	"privapprox/internal/workload"
	"privapprox/internal/xorcrypt"
)

// gate asserts a steady-state zero-allocation contract.
func gate(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm up scratch buffers; steady state is what's gated
	if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, allocs)
	}
}

func TestHotPathZeroAllocs(t *testing.T) {
	// Client split (Table 3 / Table 2 encrypt).
	splitter, err := xorcrypt.NewSplitter(3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 32)
	var scratch xorcrypt.SplitScratch
	gate(t, "xorcrypt.SplitInto", func() {
		if _, err := splitter.SplitInto(msg, &scratch); err != nil {
			t.Fatal(err)
		}
	})

	// Aggregator join (Table 2 decrypt), share- and payload-level.
	shares, err := splitter.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	var joinBuf []byte
	gate(t, "xorcrypt.JoinInto", func() {
		out, err := xorcrypt.JoinInto(joinBuf, shares)
		if err != nil {
			t.Fatal(err)
		}
		joinBuf = out
	})
	payloads := make([][]byte, len(shares))
	for i, sh := range shares {
		payloads[i] = sh.Payload
	}
	gate(t, "xorcrypt.JoinPayloadsInto", func() {
		out, err := xorcrypt.JoinPayloadsInto(joinBuf, payloads)
		if err != nil {
			t.Fatal(err)
		}
		joinBuf = out
	})

	// Batch split/join — the columnar kernels.
	const bcount = 16
	bmsgs := make([]byte, bcount*len(msg))
	var bscratch xorcrypt.SplitBatchScratch
	gate(t, "xorcrypt.SplitBatchInto", func() {
		if _, err := splitter.SplitBatchInto(bmsgs, len(msg), bcount, &bscratch); err != nil {
			t.Fatal(err)
		}
	})
	cols, err := splitter.SplitBatchInto(bmsgs, len(msg), bcount, &bscratch)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "xorcrypt.JoinColumnsInto", func() {
		out, err := xorcrypt.JoinColumnsInto(joinBuf, cols.Lanes)
		if err != nil {
			t.Fatal(err)
		}
		joinBuf = out
	})

	// Randomized response over a packed answer vector (Table 3).
	rz, err := rr.NewRandomizer(rr.Params{P: 0.9, Q: 0.6}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	vec, err := answer.OneHot(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "rr.RespondBits", func() {
		rz.RespondBits(vec.Bytes(), vec.Len())
	})

	// Window accumulation (Fig. 8), per answer and over a packed answer
	// lane: 16 slots of 11 bits at the wire stride.
	const nbits = 11
	stride := answer.EncodedLen(nbits) - answer.HeaderLen
	lane := make([]byte, bcount*stride)
	acc, err := answer.NewAccumulator(11)
	if err != nil {
		t.Fatal(err)
	}
	gate(t, "answer.Accumulator.Add", func() {
		if err := acc.Add(vec); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "answer.Accumulator.AddBatch", func() {
		if err := acc.AddBatch(lane, stride, nbits, bcount); err != nil {
			t.Fatal(err)
		}
	})

	// Columnar batch encode: one fixed-stride lane per epoch flush.
	var enc answer.BatchEncoder
	bm := answer.Message{QueryID: 1, Epoch: 2, Answer: vec}
	gate(t, "answer.BatchEncoder.Append", func() {
		enc.Reset()
		for k := 0; k < 4; k++ {
			if err := enc.Append(&bm); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Message encode + zero-copy decode (the wire legs between them).
	m := answer.Message{QueryID: 1, Epoch: 2, Answer: vec}
	var wire []byte
	gate(t, "answer.Message.AppendBinary", func() {
		out, err := m.AppendBinary(wire[:0])
		if err != nil {
			t.Fatal(err)
		}
		wire = out
	})
	var decoded answer.Message
	var view answer.BitVector
	gate(t, "answer.Message.UnmarshalBinaryView", func() {
		if err := decoded.UnmarshalBinaryView(wire, &view); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAggregatorSubmitSteadyStateAllocs bounds the full join → decrypt
// → decode → accumulate tail. It cannot be exactly zero — the joiner's
// replay-suppression set records every completed MID until a sweep, and
// window bookkeeping fires occasionally — but steady state must stay
// within a small constant, an order of magnitude under the seed's 16
// allocs/op.
func TestAggregatorSubmitSteadyStateAllocs(t *testing.T) {
	q, err := workload.TaxiQuery("gate", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: 1 << 20,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       9,
		Shards:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 0)
	raw, err := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(10, 0)
	var scratch xorcrypt.SplitScratch
	submit := func() {
		shares, err := splitter.SplitInto(raw, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for src, sh := range shares {
			if _, err := agg.SubmitShare(sh, src, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit()
	if allocs := testing.AllocsPerRun(200, submit); allocs > 4 {
		t.Errorf("aggregator submit tail: %v allocs per message, want ≤ 4", allocs)
	}
}

// TestAggregatorMultiQuerySubmitAllocs holds the same steady-state
// budget with several active queries: the demux by wire QueryID (one
// atomic state-table load plus a map lookup) must not put the submit
// tail back in the allocator.
func TestAggregatorMultiQuerySubmitAllocs(t *testing.T) {
	agg, err := aggregator.NewMulti(aggregator.Config{
		Population: 1 << 20,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       9,
		Shards:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 4
	wires := make([]uint64, queries)
	for i := 0; i < queries; i++ {
		q, err := workload.TaxiQuery("gate", uint64(i+1), time.Second, time.Hour, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.AddQuery(aggregator.QuerySpec{
			Query:  q,
			Params: budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		}); err != nil {
			t.Fatal(err)
		}
		wires[i] = q.QID.Uint64()
	}
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 0)
	raws := make([][]byte, queries)
	for i, wire := range wires {
		raw, err := (&answer.Message{QueryID: wire, Epoch: 0, Answer: vec}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	now := time.Unix(10, 0)
	var scratch xorcrypt.SplitScratch
	next := 0
	submit := func() {
		// Round-robin the queries so every message demuxes to a
		// different per-query state.
		raw := raws[next%queries]
		next++
		shares, err := splitter.SplitInto(raw, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for src, sh := range shares {
			if _, err := agg.SubmitShare(sh, src, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < queries; i++ {
		submit() // warm every query's window state
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs > 4 {
		t.Errorf("multi-query aggregator submit tail: %v allocs per message, want ≤ 4", allocs)
	}
}

// agedMessage is the encoded answer the Fig 8 gates and benchmarks
// submit over and over. The aggregator forgets joined messages by event
// time alone, so a loop that has to hold its join maps at a steady size
// moves the message's epoch on: every advance lies a retain horizon and
// the lateness beyond the last, closes the window behind it and rotates
// the joiner's generations once.
type agedMessage struct {
	msg  answer.Message
	raw  []byte
	step uint64
}

func newAgedMessage(tb testing.TB, q *query.Query, vec *answer.BitVector) *agedMessage {
	m := &agedMessage{
		msg:  answer.Message{QueryID: q.QID.Uint64(), Answer: vec},
		step: uint64((q.Window + q.Slide) / q.Frequency), // lateness defaults to the slide
	}
	m.encode(tb)
	return m
}

func (m *agedMessage) encode(tb testing.TB) {
	raw, err := m.msg.AppendBinary(m.raw[:0])
	if err != nil {
		tb.Fatal(err)
	}
	m.raw = raw
}

func (m *agedMessage) advance(tb testing.TB) {
	m.msg.Epoch += m.step
	m.encode(tb)
}

// packed appends n copies of the message to dst: one lane of a batch.
func (m *agedMessage) packed(dst []byte, n int) []byte {
	for k := 0; k < n; k++ {
		dst = append(dst, m.raw...)
	}
	return dst
}

// TestFig8SubmitZeroAllocs pins BenchmarkFig8Scalability's loop shape —
// split + two per-share submits — at exactly zero steady-state
// allocations per message. The steady state is a joiner whose
// generations have rotated: the warm-up sizes its maps, two advances of
// event time forget what it joined, and the measured run refills maps
// that kept their capacity. Left to grow, the completed-MID set leaks
// its bucket growth back in as phantom B/op.
func TestFig8SubmitZeroAllocs(t *testing.T) {
	q, err := workload.TaxiQuery("gate", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: 1 << 20,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       9,
		Shards:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 0)
	msg := newAgedMessage(t, q, vec)
	now := time.Unix(10, 0)
	var scratch xorcrypt.SplitScratch
	submit := func() {
		shares, err := splitter.SplitInto(msg.raw, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for src, sh := range shares {
			if _, err := agg.SubmitShare(sh, src, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 256; i++ {
		submit()
	}
	for i := 0; i < 2; i++ {
		msg.advance(t)
		submit()
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs != 0 {
		t.Errorf("Fig 8 submit tail: %v allocs per message, want 0", allocs)
	}
}

// TestAggregatorSubmitBatchZeroAllocs holds the vectorized tail — one
// columnar split plus one SubmitShareBatch per proxy lane — at exactly
// zero steady-state allocations per batch (the steady state of
// TestFig8SubmitZeroAllocs: sized, then aged by two horizons).
func TestAggregatorSubmitBatchZeroAllocs(t *testing.T) {
	q, err := workload.TaxiQuery("gate", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: 1 << 20,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       9,
		Shards:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 0)
	msg := newAgedMessage(t, q, vec)
	const batch = 64
	size := len(msg.raw)
	msgs := msg.packed(nil, batch)
	shares := make([][]xorcrypt.Share, 2)
	for src := range shares {
		shares[src] = make([]xorcrypt.Share, batch)
	}
	now := time.Unix(10, 0)
	var scratch xorcrypt.SplitBatchScratch
	submit := func() {
		cols, err := splitter.SplitBatchInto(msgs, size, batch, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for src := range shares {
			for k := 0; k < batch; k++ {
				shares[src][k] = cols.Share(src, k)
			}
			if _, err := agg.SubmitShareBatch(shares[src], src, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Twice the measured run, so every shard's maps are sized for it.
	for i := 0; i < 128; i++ {
		submit()
	}
	for i := 0; i < 2; i++ {
		msg.advance(t)
		msgs = msg.packed(msgs[:0], batch)
		submit()
	}
	if allocs := testing.AllocsPerRun(50, submit); allocs != 0 {
		t.Errorf("batch submit tail: %v allocs per batch, want 0", allocs)
	}
}

// TestFig8TelemetryZeroAllocs re-runs both Fig 8 tail shapes — the
// per-share loop and the vectorized batch loop — with the telemetry
// plane fully attached: an epoch tracer on the aggregator (so every
// SubmitShareBatch is timed and charged to the join stage) and a live
// publish histogram observing each batch. The zero-allocation contract
// must hold with instrumentation enabled, not just with the hooks left
// nil — this is the gate behind the "≤ 3% overhead, 0 allocs" telemetry
// budget.
func TestFig8TelemetryZeroAllocs(t *testing.T) {
	q, err := workload.TaxiQuery("gate", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: 1 << 20,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       9,
		Shards:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	tracer.BeginEpoch(0)
	agg.SetTracer(tracer)
	reg.RegisterSource(agg)
	reg.RegisterSource(tracer)
	hist := reg.Histogram("privapprox_publish_ns")

	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 0)
	msg := newAgedMessage(t, q, vec)
	const batch = 64
	size := len(msg.raw)
	msgs := msg.packed(nil, batch)
	shares := make([][]xorcrypt.Share, 2)
	for src := range shares {
		shares[src] = make([]xorcrypt.Share, batch)
	}
	now := time.Unix(10, 0)
	var scratch xorcrypt.SplitBatchScratch
	submit := func() {
		t0 := time.Now()
		cols, err := splitter.SplitBatchInto(msgs, size, batch, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for src := range shares {
			for k := 0; k < batch; k++ {
				shares[src][k] = cols.Share(src, k)
			}
			if _, err := agg.SubmitShareBatch(shares[src], src, now); err != nil {
				t.Fatal(err)
			}
		}
		hist.Observe(int64(time.Since(t0)))
	}
	// Sized for both measured runs, then aged by two horizons
	// (TestFig8SubmitZeroAllocs).
	for i := 0; i < 256; i++ {
		submit()
	}
	for i := 0; i < 2; i++ {
		msg.advance(t)
		msgs = msg.packed(msgs[:0], batch)
		submit()
	}
	if allocs := testing.AllocsPerRun(50, submit); allocs != 0 {
		t.Errorf("instrumented batch submit tail: %v allocs per batch, want 0", allocs)
	}

	// A concurrent scrape must not perturb the hot tail's contract:
	// gather once mid-run and re-check.
	if s := reg.Gather(); len(s) == 0 {
		t.Fatal("registry gathered no samples")
	}
	if allocs := testing.AllocsPerRun(50, submit); allocs != 0 {
		t.Errorf("instrumented batch submit tail after scrape: %v allocs per batch, want 0", allocs)
	}
}

// discardSink consumes a share without keeping it, as the ShareSink
// contract allows.
type discardSink struct{ bytes int }

func (d *discardSink) Submit(share xorcrypt.Share) error {
	d.bytes += len(share.Payload)
	return nil
}

// TestClientAnswerZeroAllocs is the client half of the gate: one whole
// answer — sampling decision, plan scan over a 50-row taxi table, fold,
// typed bucketize, randomized response, encode, split, submit — makes no
// allocation once the subscription's plan is bound, at the taxi query's
// 11 buckets and at 128.
func TestClientAnswerZeroAllocs(t *testing.T) {
	for _, buckets := range []int{11, 128} {
		db := minisql.NewDB()
		if err := workload.PopulateTaxi(db, rand.New(rand.NewSource(5)), 50, time.Unix(0, 0), time.Minute); err != nil {
			t.Fatal(err)
		}
		q, err := workload.TaxiQuery("analyst", 1, time.Second, 10*time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if buckets != len(q.Buckets) {
			if q.Buckets, err = query.UniformRanges(0, 32, buckets-1, true); err != nil {
				t.Fatal(err)
			}
		}
		sinks := []*discardSink{{}, {}}
		c, err := client.New(client.Config{
			ID:        "client-000001",
			DB:        db,
			Sinks:     []client.ShareSink{sinks[0], sinks[1]},
			Seed:      9,
			MIDSource: rand.New(rand.NewSource(10)),
		})
		if err != nil {
			t.Fatal(err)
		}
		params := budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}}
		if err := c.Subscribe(&query.Signed{Query: q}, params); err != nil {
			t.Fatal(err)
		}
		epoch := uint64(0)
		gate(t, "client.AnswerOnce", func() {
			ok, err := c.AnswerOnce(epoch)
			if err != nil || !ok {
				t.Fatalf("epoch %d: participated=%v err=%v", epoch, ok, err)
			}
			epoch++
		})
		if st := c.Stats(); st.AnswersSent != int64(epoch) || sinks[0].bytes == 0 {
			t.Errorf("%d buckets: %d answers sent over %d epochs, %d bytes at sink 0", buckets, st.AnswersSent, epoch, sinks[0].bytes)
		}
	}
}

// TestSharePlaneAllocs bounds what lies between the client's answer and
// the aggregator's tail, both gated at zero above: the share plane. A
// share is flat bytes from publish to join — copied once into a
// partition slab, once out into the fetch's buffer (or the TCP response
// frame), and borrowed by the aggregator — so what is left is per epoch
// (a fetch's record slice and buffer, a frame, a round-trip) and per
// slab, never per share. Each gate runs epochs of 512 answers after a
// warm-up (all inside one retain horizon: the joiner's maps grow a few
// times, which the budgets absorb); the in-process gate also commits
// what it drained, as core.System does, so the commit, the trim and the
// reuse of the released slab sit inside its budget.
func TestSharePlaneAllocs(t *testing.T) {
	const answers = 512
	q, err := workload.TaxiQuery("gate", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	newAggregator := func() *aggregator.Aggregator {
		agg, err := aggregator.New(aggregator.Config{
			Query:      q,
			Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
			Population: 1 << 20,
			Proxies:    2,
			Origin:     time.Unix(0, 0),
			Seed:       9,
			Shards:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	splitter, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := answer.OneHot(11, 0)
	raw, err := (&answer.Message{QueryID: q.QID.Uint64(), Epoch: 0, Answer: vec}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(10, 0)
	var shares []xorcrypt.Share
	// submit decodes one polled batch and hands it to the aggregator,
	// as core.System and privapprox-node do.
	submit := func(agg *aggregator.Aggregator, recs []pubsub.Record, src int) {
		shares = shares[:0]
		for _, rec := range recs {
			share, err := proxy.DecodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, share)
		}
		if _, err := agg.SubmitShareBatch(shares, src, now); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(name string, limit float64, agg *aggregator.Aggregator, epoch func()) {
		t.Helper()
		for i := 0; i < 16; i++ {
			epoch()
		}
		decoded := agg.Stats().Decoded
		const runs = 20
		perAnswer := testing.AllocsPerRun(runs, epoch) / answers
		if got := agg.Stats().Decoded - decoded; got != (runs+1)*answers {
			t.Fatalf("%s: %d answers decoded, want %d", name, got, (runs+1)*answers)
		}
		t.Logf("%s: %.3f allocs per answer", name, perAnswer)
		if perAnswer > limit {
			t.Errorf("%s: want ≤ %.1f allocs per answer", name, limit)
		}
	}

	t.Run("inproc", func(t *testing.T) {
		fleet, err := proxy.NewFleet(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		consumers, err := fleet.Consumers("aggregator")
		if err != nil {
			t.Fatal(err)
		}
		agg := newAggregator()
		var scratch xorcrypt.SplitScratch
		measure("split → Submit×2 → Poll → DecodeRecord → SubmitShareBatch → Commit", 0.5, agg, func() {
			for k := 0; k < answers; k++ {
				split, err := splitter.SplitInto(raw, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				for i, sh := range split {
					if err := fleet.Proxy(i).Submit(sh); err != nil {
						t.Fatal(err)
					}
				}
			}
			for src, c := range consumers {
				recs, err := c.Poll(4096)
				if err != nil {
					t.Fatal(err)
				}
				submit(agg, recs, src)
				if err := c.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if st := fleet.TotalStats(); st.TotalBacklog != 0 {
			t.Errorf("backlog after the last committed drain = %d, want 0", st.TotalBacklog)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		const partitions = 4
		clients := make([]*pubsub.Client, 2)
		for i := range clients {
			b := pubsub.NewBroker()
			defer b.Close()
			if err := b.CreateTopic(proxy.TopicFor(i), partitions); err != nil {
				t.Fatal(err)
			}
			srv, err := pubsub.Serve(b, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if clients[i], err = pubsub.Dial(srv.Addr()); err != nil {
				t.Fatal(err)
			}
			defer clients[i].Close()
		}
		agg := newAggregator()
		msgs := make([]byte, 0, answers*len(raw))
		for k := 0; k < answers; k++ {
			msgs = append(msgs, raw...)
		}
		var scratch xorcrypt.SplitBatchScratch
		var next [2][partitions]int64
		measure("PublishColumns → Serve → Client.Fetch → SubmitShareBatch", 1.0, agg, func() {
			cols, err := splitter.SplitBatchInto(msgs, len(raw), answers, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			for i, cli := range clients {
				if err := cli.PublishColumns(proxy.TopicFor(i), pubsub.Columns{
					Count: answers, KeyLen: xorcrypt.MIDSize, ValLen: cols.Size, Keys: cols.MIDs, Vals: cols.Lanes[i],
				}, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			for src, cli := range clients {
				for p := 0; p < partitions; p++ {
					recs, err := cli.Fetch(proxy.TopicFor(src), p, next[src][p], 4096, 0)
					if err != nil {
						t.Fatal(err)
					}
					next[src][p] += int64(len(recs))
					submit(agg, recs, src)
				}
			}
		})
	})
}

// TestPublishColumnsAllocs pins a columnar publish at a per-batch
// constant: the batch is grouped by partition into pooled scratch and
// each partition's journal views are reused, so a 2,400-record batch over
// four partitions allocates exactly what a 24-record batch does, nothing
// — in memory and with a WAL behind every partition. Each publish is a new
// session sequence, as the proxies' producers send them, and a commit
// after it (outside the measurement) keeps the partitions recycling one
// slab.
func TestPublishColumnsAllocs(t *testing.T) {
	const topic, partitions = "answer", 4
	rng := rand.New(rand.NewSource(3))
	for _, durable := range []bool{false, true} {
		b := pubsub.NewBroker()
		if durable {
			var err error
			if b, err = pubsub.OpenBroker(t.TempDir(), wal.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		defer b.Close()
		if err := b.CreateTopic(topic, partitions); err != nil {
			t.Fatal(err)
		}
		var seq uint64
		var allocs []uint64
		for _, count := range []int{24, 2400} {
			cols := pubsub.Columns{Count: count, KeyLen: xorcrypt.MIDSize, ValLen: 22,
				Keys: make([]byte, count*xorcrypt.MIDSize), Vals: make([]byte, count*22)}
			rng.Read(cols.Keys)
			least := uint64(1 << 62)
			for run := 0; run < 24; run++ {
				seq++
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := b.PublishColumns(topic, cols, 7, seq)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < partitions; p++ {
					end, err := b.EndOffset(topic, p)
					if err == nil {
						err = b.CommitOffset("gate", topic, p, end)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if run >= 4 {
					least = min(least, after.Mallocs-before.Mallocs)
				}
			}
			allocs = append(allocs, least)
		}
		t.Logf("durable=%v: PublishColumns allocates %d (24 records), %d (2,400 records)", durable, allocs[0], allocs[1])
		if allocs[0] != 0 || allocs[1] != 0 {
			t.Errorf("durable=%v: PublishColumns allocates %d for 24 records and %d for 2,400, want 0 for both",
				durable, allocs[0], allocs[1])
		}
	}
}

// fireRig is one aggregator with a tumbling one-epoch window whose every
// epoch holds the same answers, so after the first window the estimator
// finds every randomization loss it needs already simulated and a fire
// is the steady state: merge the shards, bound the window, bound the
// buckets.
type fireRig struct {
	t        testing.TB
	agg      *aggregator.Aggregator
	splitter *xorcrypt.Splitter
	scratch  xorcrypt.SplitScratch
	msgs     [4]answer.Message
	raw      []byte
	epoch    uint64
}

func newFireRig(t testing.TB, nbuckets int) *fireRig {
	buckets, err := query.UniformRanges(0, 32, nbuckets-1, true)
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		QID:       query.ID{Analyst: "gate", Serial: uint64(nbuckets)},
		SQL:       "SELECT distance FROM rides",
		Buckets:   buckets,
		Frequency: time.Second, Window: time.Second, Slide: time.Second,
	}
	r := &fireRig{t: t}
	if r.agg, err = aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 0.3, RR: rr.Params{P: 0.9, Q: 0.6}},
		Population: 4000,
		Proxies:    2,
		Origin:     time.Unix(0, 0),
		Seed:       9,
		Shards:     1,
	}); err != nil {
		t.Fatal(err)
	}
	if r.splitter, err = xorcrypt.NewSplitter(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Every bucket hears yes from a quarter of the answers.
	for k := range r.msgs {
		bits := make([]bool, nbuckets)
		for i := range bits {
			bits[i] = (i+k)%4 == 0
		}
		vec, err := answer.FromBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		r.msgs[k] = answer.Message{QueryID: q.QID.Uint64(), Answer: vec}
	}
	return r
}

// fire fills the next window with 1,200 answers and closes it with the
// epoch timer's AdvanceTo, returning what that one call allocated and
// how long it took.
func (r *fireRig) fire() (allocs uint64, took time.Duration) {
	const answers = 1200
	for k := 0; k < answers; k++ {
		msg := &r.msgs[k%len(r.msgs)]
		msg.Epoch = r.epoch
		raw, err := msg.AppendBinary(r.raw[:0])
		if err != nil {
			r.t.Fatal(err)
		}
		r.raw = raw
		shares, err := r.splitter.SplitInto(raw, &r.scratch)
		if err != nil {
			r.t.Fatal(err)
		}
		for src, sh := range shares {
			if res, err := r.agg.SubmitShare(sh, src, time.Time{}); err != nil || len(res) != 0 {
				r.t.Fatalf("submit: %d windows fired, err %v", len(res), err)
			}
		}
	}
	r.epoch++
	// Lateness is one slide: a watermark at the window's end is an event
	// time one second past it.
	closeAt := time.Unix(int64(r.epoch)+1, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := r.agg.AdvanceTo(closeAt)
	took = time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil || len(res) != 1 || res[0].Responses != answers {
		r.t.Fatalf("AdvanceTo: %d windows, err %v", len(res), err)
	}
	return after.Mallocs - before.Mallocs, took
}

// TestFireAllocs pins the shape of a fire: one Student-t root-find per
// window and plain arithmetic per bucket. A fire allocates its merged
// accumulator, its bucket estimates and its result list whatever the
// bucket count, and — measured back to back, as a ratio, so a slow
// machine moves both sides — a 128-bucket window costs less than six
// 8-bucket windows (a root-find per bucket would make it sixteen).
func TestFireAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	narrow, wide := newFireRig(t, 8), newFireRig(t, 128)
	for i := 0; i < 3; i++ {
		narrow.fire()
		wide.fire()
	}
	const runs = 15
	minAllocs := [2]uint64{1 << 62, 1 << 62}
	best := [2]time.Duration{1 << 62, 1 << 62}
	for i := 0; i < runs; i++ {
		for k, rig := range []*fireRig{narrow, wide} {
			allocs, took := rig.fire()
			minAllocs[k] = min(minAllocs[k], allocs)
			best[k] = min(best[k], took)
		}
	}
	t.Logf("fire: 8 buckets %d allocs in %v, 128 buckets %d allocs in %v", minAllocs[0], best[0], minAllocs[1], best[1])
	for k, nbuckets := range []int{8, 128} {
		if minAllocs[k] > 4 {
			t.Errorf("firing a %d-bucket window: %d allocs, want ≤ 4", nbuckets, minAllocs[k])
		}
	}
	if best[1] >= 6*best[0] {
		t.Errorf("firing 128 buckets took %v, 8 buckets %v: the cost of a fire scales with its buckets", best[1], best[0])
	}
}
