// The allocs/op regression gate for the share hot path. The paper's
// performance argument (Table 2, Fig. 8) rests on the per-answer
// pipeline being XOR-cheap; these gates pin the steady state of every
// hot-path stage at zero allocations per operation so a regression
// shows up as a test failure, not as a slow drift back into the Go
// allocator. Run as part of `make ci` (the allocgate target and the
// plain test target both cover it).
package privapprox

import (
	"fmt"
	"math"
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
	"privapprox/internal/role"
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

	// Aggregator join (Table 2 decrypt): the Share-slice form, and the
	// one kernel over the lanes of a run of 16 messages, as the
	// aggregator's submit tail joins them.
	shares, err := splitter.SplitInto(msg, &scratch)
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
	const bcount = 16
	lanes := make([][]byte, 3)
	for k := 0; k < bcount; k++ {
		for i, sh := range shares {
			lanes[i] = append(lanes[i], sh.Payload...)
		}
	}
	gate(t, "xorcrypt.JoinColumnsInto", func() {
		out, err := xorcrypt.JoinColumnsInto(joinBuf, lanes)
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
// → decode → accumulate tail, one share per SubmitShareBatch call. It
// cannot be exactly zero — the joiner's
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
	one := make([]xorcrypt.Share, 1)
	submit := func() {
		shares, err := splitter.SplitInto(raw, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for src, sh := range shares {
			one[0] = sh
			if _, err := agg.SubmitShareBatch(one, src, now); err != nil {
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
	one := make([]xorcrypt.Share, 1)
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
			one[0] = sh
			if _, err := agg.SubmitShareBatch(one, src, now); err != nil {
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

// shareLanes splits copies of one message into per-proxy share lanes,
// the layout a client.Batcher flush carries: one SplitInto per message,
// each payload copied into lane storage the returned shares view.
type shareLanes struct {
	scratch xorcrypt.SplitScratch
	lanes   [2][]byte
	shares  [2][]xorcrypt.Share
}

func (l *shareLanes) split(tb testing.TB, sp *xorcrypt.Splitter, raw []byte, count int) [2][]xorcrypt.Share {
	size := len(raw)
	for src := range l.lanes {
		if len(l.lanes[src]) != count*size {
			l.lanes[src] = make([]byte, count*size)
			l.shares[src] = make([]xorcrypt.Share, count)
		}
	}
	for k := range count {
		split, err := sp.SplitInto(raw, &l.scratch)
		if err != nil {
			tb.Fatal(err)
		}
		for src, sh := range split {
			p := l.lanes[src][k*size : (k+1)*size]
			copy(p, sh.Payload)
			l.shares[src][k] = xorcrypt.Share{MID: sh.MID, Payload: p}
		}
	}
	return l.shares
}

// TestFig8SubmitZeroAllocs pins the batch-size-1 row of
// BenchmarkFig8SubmitBatch — a split and one one-share SubmitShareBatch
// per proxy — at exactly zero steady-state allocations per message. The steady state is a joiner whose
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
	one := make([]xorcrypt.Share, 1)
	submit := func() {
		shares, err := splitter.SplitInto(msg.raw, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for src, sh := range shares {
			one[0] = sh
			if _, err := agg.SubmitShareBatch(one, src, now); err != nil {
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

// TestAggregatorSubmitBatchZeroAllocs holds the vectorized tail — a
// batch split into share lanes plus one SubmitShareBatch per proxy lane —
// at exactly
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
	now := time.Unix(10, 0)
	var lanes shareLanes
	submit := func() {
		for src, shares := range lanes.split(t, splitter, msg.raw, batch) {
			if _, err := agg.SubmitShareBatch(shares, src, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Twice the measured run, so the joiner's maps are sized for it.
	for i := 0; i < 128; i++ {
		submit()
	}
	for i := 0; i < 2; i++ {
		msg.advance(t)
		submit()
	}
	if allocs := testing.AllocsPerRun(50, submit); allocs != 0 {
		t.Errorf("batch submit tail: %v allocs per batch, want 0", allocs)
	}
}

// TestFig8TelemetryZeroAllocs re-runs the Fig 8 batch tail with the
// telemetry plane fully attached: an epoch tracer on the aggregator (so every
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
	now := time.Unix(10, 0)
	var lanes shareLanes
	submit := func() {
		t0 := time.Now()
		for src, shares := range lanes.split(t, splitter, msg.raw, batch) {
			if _, err := agg.SubmitShareBatch(shares, src, now); err != nil {
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

// columnPublisher is a client.ColumnSink that publishes each flushed
// segment straight to one topic of a broker connection.
type columnPublisher struct {
	cli   *pubsub.Client
	topic string
}

func (p columnPublisher) SubmitColumns(mids, payloads []byte, count, size int) error {
	return p.cli.PublishColumns(p.topic, pubsub.Columns{
		Count: count, KeyLen: xorcrypt.MIDSize, ValLen: size, Keys: mids, Vals: payloads,
	}, 0, 0)
}

// TestSharePlaneAllocs bounds what lies between the client's answer and
// the aggregator's tail, both gated at zero above: the share plane. A
// share is flat bytes from publish to join — copied once into the
// client's batch lanes, once into a partition slab, once out into the
// consumer's fetch memory (over TCP, the reply frame read there), and
// borrowed by the aggregator — so what is left is per slab and per
// joiner growth, never per share: a TCP round trip allocates nothing
// (internal/pubsub's TestTCPRoundTripZeroAllocs). Each gate
// runs epochs of 512 answers after a warm-up (all inside one retain
// horizon: the joiner's maps grow a few times, which the budgets
// absorb). The in-process gates also commit what they drained, as
// core.System does, so the commit, the trim and the reuse of the
// released slab sit inside their budgets; the drain gates, which run
// the aggregator role itself in process and over loopback TCP, bound
// its heap bytes per answer too.
func TestSharePlaneAllocs(t *testing.T) {
	const answers = 512
	q, err := workload.TaxiQuery("gate", 1, time.Second, time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	newAggregator := func(q *query.Query) *aggregator.Aggregator {
		agg, err := aggregator.New(aggregator.Config{
			Query:      q,
			Params:     budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
			Population: 1 << 20,
			Proxies:    2,
			Origin:     time.Unix(0, 0),
			Seed:       9,
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
	// submit decodes one polled batch of records and hands it to the
	// aggregator: the record path a caller of Poll takes.
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
	// submitRuns hands the shares of one fetch's runs to the aggregator:
	// the drain's own path (proxy.AppendShares).
	submitRuns := func(agg *aggregator.Aggregator, runs []pubsub.Run, src int) {
		shares = shares[:0]
		for _, r := range runs {
			var skipped int
			if shares, skipped = proxy.AppendShares(shares, r); skipped > 0 {
				t.Fatalf("%d records without a share", skipped)
			}
		}
		if _, err := agg.SubmitShareBatch(shares, src, now); err != nil {
			t.Fatal(err)
		}
	}
	// answerEpoch splits one epoch of answers, each the message raw, into
	// the batchers and flushes them.
	answerEpoch := func(t *testing.T, raw []byte, batchers []*client.Batcher, scratch *xorcrypt.SplitScratch) {
		for k := 0; k < answers; k++ {
			split, err := splitter.SplitInto(raw, scratch)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range split {
				if err := batchers[i].Submit(sh); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, b := range batchers {
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
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
		agg := newAggregator(q)
		batchers := []*client.Batcher{client.NewBatcher(fleet.Proxy(0), 0), client.NewBatcher(fleet.Proxy(1), 0)}
		var scratch xorcrypt.SplitScratch
		measureEpochs(t, "split → Batcher → SubmitColumns → Poll → DecodeRecord → SubmitShareBatch → Commit", answers, 0.5, agg, func() {
			answerEpoch(t, raw, batchers, &scratch)
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
			if clients[i], err = pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: 1}); err != nil {
				t.Fatal(err)
			}
			defer clients[i].Close()
		}
		agg := newAggregator(q)
		batchers := make([]*client.Batcher, len(clients))
		for i, cli := range clients {
			batchers[i] = client.NewBatcher(columnPublisher{cli, proxy.TopicFor(i)}, 0)
		}
		var scratch xorcrypt.SplitScratch
		var next [2][partitions]int64
		var runs []pubsub.Run
		var mem []byte
		measureEpochs(t, "split → Batcher → PublishColumns → Serve → Client.FetchWait → AppendShares → SubmitShareBatch", answers, 0.05, agg, func() {
			answerEpoch(t, raw, batchers, &scratch)
			for src, cli := range clients {
				for p := 0; p < partitions; p++ {
					var err error
					// Each fetch reads into the last one's memory, as a
					// consumer's polls do.
					if runs, mem, err = cli.FetchWait(proxy.TopicFor(src), p, next[src][p], 4096, 0, runs[:0], mem[:0]); err != nil {
						t.Fatal(err)
					}
					for _, r := range runs {
						next[src][p] += int64(r.Count)
					}
					submitRuns(agg, runs, src)
				}
			}
		})
	})

	// The drain that ships: the aggregator role core.System and
	// privapprox-node run, polling runs into each consumer's own memory
	// and submitting each round's shares in one call, then committing.
	// Each consumer keeps its fetch arena across the empty poll that ends
	// a drain, so the epochs reuse it. steadyDrain answers for a tumbling
	// window of four epochs, one epoch later each time, so windows fire
	// and the joiner rotates, and it warms up for 160 epochs: the
	// joiner's maps, the slabs and every high-water scratch reach their
	// steady size first. In process it reads 1 B per answer, and 12 in
	// about one run in six, where a partition slab and the aggregator's
	// round scratch are regrown inside the measured epochs; 290 when every
	// drain regrows its fetch memory. Over loopback TCP it reads 1–3 B;
	// under the hour-long window above it read 65–79, most of it a joiner
	// map doubling inside the measured epochs, and 160 when every TCP
	// fetch reply took a frame of its own. steadyDrainBytesLimit is 12 B
	// plus a margin of 8. The drain-point legs keep drainBytesLimit: they
	// read 0–13 B.
	const steadyDrainBytesLimit, drainBytesLimit = 20, 100
	tumbling, err := workload.TaxiQuery("gate", 3, time.Second, 4*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// One message per epoch, marshalled before the measurement: the
	// leg's own warm-up, then measureEpochs' 37 epochs.
	const warm = 160
	msgs := make([][]byte, warm+37)
	for e := range msgs {
		if msgs[e], err = (&answer.Message{QueryID: tumbling.QID.Uint64(), Epoch: uint64(e), Answer: vec}).MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	steadyDrain := func(t *testing.T, name string, limit float64, consumers []*pubsub.Consumer, control *pubsub.Consumer, batchers []*client.Batcher) {
		agg := newAggregator(tumbling)
		drain := role.NewDrain(agg, consumers, control)
		var scratch xorcrypt.SplitScratch
		epoch := 0
		run := func() {
			answerEpoch(t, msgs[epoch], batchers, &scratch)
			epoch++
			if _, _, err := drain.UpTo(math.MaxInt); err != nil {
				t.Fatal(err)
			}
			if err := drain.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for range warm {
			run()
		}
		perAnswer := measureEpochs(t, name, answers, limit, agg, run)
		if perAnswer > steadyDrainBytesLimit {
			t.Errorf("want ≤ %d B per answer", steadyDrainBytesLimit)
		}
		if st := agg.Stats(); st.Malformed+st.Duplicates+st.Late+st.UnknownQuery+st.LengthMismatch != 0 {
			t.Errorf("answers dropped: %+v", st)
		}
	}
	t.Run("drain", func(t *testing.T) {
		fleet, err := proxy.NewFleet(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		consumers, err := fleet.Consumers("aggregator")
		if err != nil {
			t.Fatal(err)
		}
		control, err := fleet.Proxy(0).ControlConsumer("aggregator-control")
		if err != nil {
			t.Fatal(err)
		}
		batchers := []*client.Batcher{client.NewBatcher(fleet.Proxy(0), 0), client.NewBatcher(fleet.Proxy(1), 0)}
		steadyDrain(t, "split → Batcher → SubmitColumns → role.Drain.UpTo → Commit", 0.01, consumers, control, batchers)
	})

	// The drain overlapped with the answering: core.System's RunEpoch,
	// whose client-role workers cut a frame per proxy and drain it between
	// chunks (drain points) before the tail is drained and committed. An
	// epoch is three times role.cutFloor's 1,024 answers, room for two
	// points and a tail. A point reads exactly the frame it cut, never
	// polling a consumer empty, so points do not add up to the idle polls
	// that release a consumer's fetch arena, which would then regrow. On
	// one worker there is nothing to overlap: answer, then drain. The query
	// is a one-epoch tumbling window, so the joiner rotates its generations
	// and reuses their maps: under the hour-long window above its maps
	// grow all run, and at this epoch size a doubling that lands in the
	// measured epochs read 0.017 allocs and 173 B per answer, with and
	// without drain points. A fired window per epoch costs 0.003 allocs
	// per answer.
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("drain/points/workers=%d", workers), func(t *testing.T) {
			const clients = 3072
			tumbling, err := workload.TaxiQuery("gate", 2, time.Second, time.Second, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(SystemConfig{
				Clients: clients,
				Proxies: 2,
				Query:   tumbling,
				Params:  &budget.Params{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
				Seed:    9,
				Workers: workers,
				Populate: func(i int, db *minisql.DB) error {
					return workload.PopulateTaxi(db, rand.New(rand.NewSource(int64(i))), 1, time.Unix(0, 0), time.Minute)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			perAnswer := measureEpochs(t, "RunEpoch: answer, cut and drain frames → drain the tail → Commit", clients, 0.01, sys.Aggregator(), func() {
				if _, _, err := sys.RunEpoch(); err != nil {
					t.Fatal(err)
				}
			})
			if perAnswer > drainBytesLimit {
				t.Errorf("want ≤ %d B per answer", drainBytesLimit)
			}
			spans := sys.Tracer().Spans(nil)
			if n := spans[len(spans)-1].Stages[telemetry.StageDrain].Events; workers > 1 && n < 2 || workers == 1 && n != 1 {
				t.Errorf("the last epoch drained %d times, at drain points and in its tail", n)
			}
		})
	}

	// The same drain as privapprox-node wires it: one pubsub.Client
	// consumer per proxy over loopback TCP, each fetch's reply read into
	// its consumer's arena, and the control topic followed over proxy 0's
	// client.
	t.Run("drain/tcp", func(t *testing.T) {
		consumers := make([]*pubsub.Consumer, 2)
		batchers := make([]*client.Batcher, len(consumers))
		var control *pubsub.Consumer
		for i := range consumers {
			b := pubsub.NewBroker()
			defer b.Close()
			if err := b.CreateTopic(proxy.TopicFor(i), 4); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := b.CreateTopic(proxy.TopicControl, 1); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := pubsub.Serve(b, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			if consumers[i], err = pubsub.NewConsumer(cli, "aggregator", proxy.TopicFor(i)); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if control, err = pubsub.NewConsumer(cli, "aggregator-control", proxy.TopicControl); err != nil {
					t.Fatal(err)
				}
			}
			batchers[i] = client.NewBatcher(columnPublisher{cli, proxy.TopicFor(i)}, 0)
		}
		steadyDrain(t, "split → Batcher → SubmitColumns → Serve → role.Drain.UpTo over Client → Commit", 0.05, consumers, control, batchers)
	})
}

// measureEpochs runs epochs of perEpoch answers through a leg of
// TestSharePlaneAllocs, bounds its allocations per answer and returns its
// heap bytes per answer.
func measureEpochs(t *testing.T, name string, perEpoch int, limit float64, agg *aggregator.Aggregator, epoch func()) (bytesPerAnswer float64) {
	t.Helper()
	for i := 0; i < 16; i++ {
		epoch()
	}
	decoded := agg.Stats().Decoded
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perAnswer := testing.AllocsPerRun(runs, epoch) / float64(perEpoch)
	runtime.ReadMemStats(&after)
	if got := agg.Stats().Decoded - decoded; got != int64((runs+1)*perEpoch) {
		t.Fatalf("%s: %d answers decoded, want %d", name, got, (runs+1)*perEpoch)
	}
	bytesPerAnswer = float64(after.TotalAlloc-before.TotalAlloc) / float64((runs+1)*perEpoch)
	t.Logf("%s: %.3f allocs and %.0f B per answer", name, perAnswer, bytesPerAnswer)
	if perAnswer > limit {
		t.Errorf("%s: want ≤ %g allocs per answer", name, limit)
	}
	return bytesPerAnswer
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
// is the steady state: close the window, bound it, bound the buckets.
type fireRig struct {
	t        testing.TB
	agg      *aggregator.Aggregator
	splitter *xorcrypt.Splitter
	scratch  xorcrypt.SplitScratch
	one      [1]xorcrypt.Share
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
			r.one[0] = sh
			if res, err := r.agg.SubmitShareBatch(r.one[:], src, time.Time{}); err != nil || len(res) != 0 {
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
// window and plain arithmetic per bucket. A fire allocates its bucket
// estimates and its result list whatever the bucket count, and — measured back to back, as a ratio, so a slow
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
