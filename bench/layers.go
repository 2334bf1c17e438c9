package main

// This file holds every call the benchmark makes into the product, so a
// later change that removes an entry point sees here which signatures the
// benchmark pins. The list is repeated in README.md.
//
// Driving the pipeline:
//   privapprox.NewSystem, System.Register, System.RunEpoch,
//   System.AnswerEpoch, System.DrainUpTo, System.Flush, System.Close,
//   System.Clients, System.Aggregator, System.Fleet
//   pubsub.NewBroker, Broker.CreateTopic, pubsub.Serve, pubsub.DialOptions,
//   proxy.AttachFleet, Fleet.Proxy, Fleet.Consumers, client.NewBatcher,
//   Batcher.Flush, Proxy.SubmitColumns, client.New, Client.Subscribe,
//   Client.AnswerOnce, Consumer.Poll, proxy.DecodeRecord,
//   aggregator.NewMulti, Aggregator.AddQuery, Aggregator.SubmitShareBatch,
//   Aggregator.Flush
// Counters: Client.Stats, Aggregator.Stats, Aggregator.PendingJoins,
//   Fleet.TotalStats, Broker.Stats, Batcher.Dropped
// Kernel replays: DB.QueryPrepared, client.ReduceLast, Buckets.Index,
//   HashDecider.Participate, Randomizer.RespondBits, Message.AppendBinary,
//   Splitter.SplitInto, wal.Log.AppendBatch

import (
	"crypto/ed25519"
	"fmt"
	"math"
	mrand "math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privapprox"
	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/client"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/sampling"
	"privapprox/internal/wal"
	"privapprox/internal/xorcrypt"
)

// fired is one window result with the instant the call that emitted it
// returned.
type fired struct {
	res aggregator.Result
	at  time.Time
}

// counters is what the product reports about its own work.
type counters struct {
	answersSent  int64 // Σ Client.Stats().AnswersSent
	agg          aggregator.Stats
	pendingJoins int
	broker       pubsub.Stats // summed over the two brokers; MaxBacklog is the maximum
	frames       int64        // publish calls that reached a broker
	dropped      int64        // shares a degraded Batcher discarded
}

// pipeline is one wired deployment the driver runs epoch by epoch. It has
// two implementations because the in-process workloads drive core.System
// while the TCP workload wires the same building blocks itself.
type pipeline interface {
	// epoch answers, forwards, drains and fires epoch e the way a user of
	// the system would.
	epoch(e uint64) ([]fired, error)
	// tracedEpoch does the same stage by stage, recording a span around
	// each call into a layer. Windows still fire inside the submit call:
	// Aggregator.AdvanceTo would give firing its own span, but each call
	// also walks the joiner's map of completed message IDs, which nothing
	// prunes (see README.md, findings), and that walk would dwarf the
	// epoch.
	tracedEpoch(e uint64, tr *tracer) ([]fired, error)
	// flush drains what is left and closes every open window.
	flush() ([]aggregator.Result, error)
	counters() counters
	close() error
}

func sumAnswersSent(clients []*client.Client) int64 {
	var n int64
	for _, c := range clients {
		n += c.Stats().AnswersSent
	}
	return n
}

// ---- in-process: core.System ----

type inprocPipeline struct {
	sys *privapprox.System
}

// newInproc builds core.System over the inputs. dir, when not empty,
// makes the brokers durable.
func newInproc(in *inputs, workers, shards int, dir string) (*inprocPipeline, error) {
	cfg := privapprox.SystemConfig{
		Clients:    in.spec.clients,
		Proxies:    proxies,
		Params:     &in.params,
		Origin:     origin,
		Populate:   in.populate,
		Seed:       in.seed,
		AnalystKey: in.key,
		Workers:    workers,
		Shards:     shards,
		DataDir:    dir,
		WALFsync:   wal.PolicyNever,
		MultiQuery: in.spec.multi,
	}
	if !in.spec.multi {
		cfg.Query = in.queries[0]
	}
	sys, err := privapprox.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if in.spec.multi {
		for _, q := range in.queries {
			if err := sys.Register(q); err != nil {
				sys.Close()
				return nil, err
			}
		}
	}
	return &inprocPipeline{sys: sys}, nil
}

func stamp(results []aggregator.Result, at time.Time) []fired {
	out := make([]fired, len(results))
	for i, r := range results {
		out[i] = fired{res: r, at: at}
	}
	return out
}

func (p *inprocPipeline) epoch(uint64) ([]fired, error) {
	results, _, err := p.sys.RunEpoch()
	return stamp(results, time.Now()), err
}

func (p *inprocPipeline) tracedEpoch(e uint64, tr *tracer) ([]fired, error) {
	root := tr.begin(spanEpoch, -1, e)
	defer tr.end(root)

	id := tr.begin(spanAnswer, root, e)
	_, err := p.sys.AnswerEpoch()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	// The bounded drain with no bound: fetch, decode, join, decrypt,
	// accumulate and the firing of closed windows all happen inside this
	// one call.
	id = tr.begin(spanSubmit, root, e)
	drained, _, err := p.sys.DrainUpTo(math.MaxInt32)
	tr.end(id)
	return stamp(drained, time.Now()), err
}

func (p *inprocPipeline) flush() ([]aggregator.Result, error) { return p.sys.Flush() }

func (p *inprocPipeline) counters() counters {
	broker := p.sys.Fleet().TotalStats()
	return counters{
		answersSent:  sumAnswersSent(p.sys.Clients()),
		agg:          p.sys.Aggregator().Stats(),
		pendingJoins: p.sys.Aggregator().PendingJoins(),
		broker:       broker,
		frames:       broker.MessagesIn, // in-process, every share is its own publish
	}
}

func (p *inprocPipeline) close() error {
	p.sys.Close()
	return nil
}

// ---- TCP: the building blocks privapprox-node uses, over loopback ----

// publishSink stands between a Batcher and its proxy so the columnar
// publish gets its own span and its frames are counted.
type publishSink struct {
	px     *proxy.Proxy
	frames atomic.Int64
	// tr and parent are set by tracedEpoch around Batcher.Flush.
	tr     *tracer
	parent int
	epoch  uint64
}

func (s *publishSink) SubmitBatch(shares []xorcrypt.Share) error {
	s.frames.Add(1)
	return s.px.SubmitBatch(shares)
}

func (s *publishSink) SubmitColumns(mids, payloads []byte, count, size int) error {
	s.frames.Add(1)
	if s.tr == nil {
		return s.px.SubmitColumns(mids, payloads, count, size)
	}
	id := s.tr.begin(spanPub, s.parent, s.epoch)
	err := s.px.SubmitColumns(mids, payloads, count, size)
	s.tr.end(id)
	return err
}

type tcpPipeline struct {
	brokers   []*pubsub.Broker
	servers   []*pubsub.Server
	dials     []*pubsub.Client
	sinks     []*publishSink
	batchers  []*client.Batcher
	clients   []*client.Client
	agg       *aggregator.Aggregator
	consumers []*pubsub.Consumer
	workers   int
	scratch   [][]xorcrypt.Share // one decode buffer per consumer
}

// dialFleet opens one connection per proxy (two is the protocol minimum)
// and attaches a fleet handle over them.
func (p *tcpPipeline) dialFleet() (*proxy.Fleet, error) {
	transports := make([]pubsub.Transport, len(p.servers))
	for i, srv := range p.servers {
		cli, err := pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: 1})
		if err != nil {
			return nil, err
		}
		p.dials = append(p.dials, cli)
		transports[i] = cli
	}
	return proxy.AttachFleet(transports)
}

// newTCP wires two brokers behind pubsub.Serve, a client side that
// batches each epoch into one columnar frame per proxy, and an aggregator
// side polling over its own connections. Seeds and client identifiers are
// derived exactly as core.New derives them, so results equal the
// in-process reference byte for byte.
func newTCP(in *inputs, workers, shards int) (_ *tcpPipeline, err error) {
	p := &tcpPipeline{workers: workers}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	for i := 0; i < proxies; i++ {
		b := pubsub.NewBroker()
		p.brokers = append(p.brokers, b)
		if err := b.CreateTopic(proxy.TopicFor(i), 4); err != nil {
			return nil, err
		}
		srv, err := pubsub.Serve(b, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		p.servers = append(p.servers, srv)
	}

	clientFleet, err := p.dialFleet()
	if err != nil {
		return nil, err
	}
	sinks := make([]client.ShareSink, proxies)
	for i := range sinks {
		sink := &publishSink{px: clientFleet.Proxy(i)}
		b := client.NewBatcher(sink, 0)
		p.sinks = append(p.sinks, sink)
		p.batchers = append(p.batchers, b)
		sinks[i] = b
	}

	q := in.queries[0]
	signed, err := query.Sign(q, in.key)
	if err != nil {
		return nil, err
	}
	pub := in.key.Public().(ed25519.PublicKey)
	for i := 0; i < in.spec.clients; i++ {
		db := minisql.NewDB()
		if err := in.populate(i, db); err != nil {
			return nil, err
		}
		c, err := client.New(client.Config{
			ID:         clientID(i),
			DB:         db,
			AnalystKey: pub,
			Sinks:      sinks,
			Seed:       in.seed + int64(i) + 2,
			MIDSource:  mrand.New(mrand.NewSource(in.seed + (int64(i)+1)*1_000_003)),
		})
		if err != nil {
			return nil, err
		}
		if err := c.Subscribe(signed, in.params); err != nil {
			return nil, err
		}
		p.clients = append(p.clients, c)
	}

	p.agg, err = aggregator.NewMulti(aggregator.Config{
		Population: in.spec.clients,
		Proxies:    proxies,
		Origin:     origin,
		Seed:       in.seed + 1,
		Shards:     shards,
	})
	if err != nil {
		return nil, err
	}
	if err := p.agg.AddQuery(aggregator.QuerySpec{Query: q, Params: in.params}); err != nil {
		return nil, err
	}
	aggFleet, err := p.dialFleet()
	if err != nil {
		return nil, err
	}
	p.consumers, err = aggFleet.Consumers("aggregator")
	if err != nil {
		return nil, err
	}
	p.scratch = make([][]xorcrypt.Share, len(p.consumers))
	return p, nil
}

// answerAll fans AnswerOnce over the clients on a bounded worker pool,
// as core.System and privapprox-node do.
func (p *tcpPipeline) answerAll(e uint64) error {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.clients) {
					return
				}
				if _, err := p.clients[i].AnswerOnce(e); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// decode turns one polled batch into shares, reusing the consumer's
// scratch slice.
func (p *tcpPipeline) decode(src int, recs []pubsub.Record) ([]xorcrypt.Share, error) {
	shares := p.scratch[src][:0]
	for _, rec := range recs {
		share, err := proxy.DecodeRecord(rec)
		if err != nil {
			return nil, err
		}
		shares = append(shares, share)
	}
	p.scratch[src] = shares
	return shares, nil
}

func (p *tcpPipeline) epoch(e uint64) ([]fired, error) {
	if err := p.answerAll(e); err != nil {
		return nil, err
	}
	for _, b := range p.batchers {
		if err := b.Flush(); err != nil {
			return nil, err
		}
	}
	// One goroutine per proxy consumer, all feeding the sharded
	// aggregator, until both are dry: core.System's parallel drain.
	var (
		mu    sync.Mutex
		out   []fired
		first error
		wg    sync.WaitGroup
	)
	for src := range p.consumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs, err := p.drain(src)
			mu.Lock()
			out = append(out, fs...)
			if first == nil {
				first = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, first
}

// drain polls one consumer dry, submitting each polled batch.
func (p *tcpPipeline) drain(src int) ([]fired, error) {
	var out []fired
	for {
		recs, err := p.consumers[src].Poll(4096)
		if err != nil || len(recs) == 0 {
			return out, err
		}
		shares, err := p.decode(src, recs)
		if err != nil {
			return out, err
		}
		results, err := p.agg.SubmitShareBatch(shares, src, time.Now())
		out = append(out, stamp(results, time.Now())...)
		if err != nil {
			return out, err
		}
	}
}

func (p *tcpPipeline) tracedEpoch(e uint64, tr *tracer) ([]fired, error) {
	root := tr.begin(spanEpoch, -1, e)
	defer tr.end(root)

	id := tr.begin(spanAnswer, root, e)
	err := p.answerAll(e)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	for i, b := range p.batchers {
		id = tr.begin(spanFlush, root, e)
		p.sinks[i].tr, p.sinks[i].parent, p.sinks[i].epoch = tr, id, e
		err := b.Flush()
		p.sinks[i].tr = nil
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}

	// The sequential drain (round-robin over the consumers), so each
	// call's span stands alone.
	var out []fired
	for progressed := true; progressed; {
		progressed = false
		for src, c := range p.consumers {
			id = tr.begin(spanFetch, root, e)
			recs, err := c.Poll(4096)
			tr.end(id)
			if err != nil {
				return out, err
			}
			if len(recs) == 0 {
				continue
			}
			progressed = true
			id = tr.begin(spanDecode, root, e)
			shares, err := p.decode(src, recs)
			tr.end(id)
			if err != nil {
				return out, err
			}
			id = tr.begin(spanSubmit, root, e)
			results, err := p.agg.SubmitShareBatch(shares, src, time.Now())
			tr.end(id)
			out = append(out, stamp(results, time.Now())...)
			if err != nil {
				return out, err
			}
		}
	}

	return out, nil
}

func (p *tcpPipeline) flush() ([]aggregator.Result, error) { return p.agg.Flush() }

func (p *tcpPipeline) counters() counters {
	c := counters{
		answersSent:  sumAnswersSent(p.clients),
		agg:          p.agg.Stats(),
		pendingJoins: p.agg.PendingJoins(),
	}
	for i, b := range p.brokers {
		st := b.Stats()
		c.broker.MessagesIn += st.MessagesIn
		c.broker.BytesIn += st.BytesIn
		c.broker.MessagesOut += st.MessagesOut
		c.broker.BytesOut += st.BytesOut
		c.broker.MaxBacklog = max(c.broker.MaxBacklog, st.MaxBacklog)
		c.frames += p.sinks[i].frames.Load()
		c.dropped += p.batchers[i].Dropped()
	}
	return c
}

// close stops the dialed connections, then the listeners (Server.Close
// waits for its connection goroutines), then the brokers.
func (p *tcpPipeline) close() error {
	var first error
	for _, cli := range p.dials {
		if err := cli.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range p.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, b := range p.brokers {
		b.Close()
	}
	return first
}

// build wires the pipeline a workload names. Durable workloads journal
// under dir.
func build(in *inputs, workers, shards int, dir string) (pipeline, error) {
	switch {
	case in.spec.tcp:
		return newTCP(in, workers, shards)
	case in.spec.durable:
		return newInproc(in, workers, shards, filepath.Join(dir, "wal"))
	default:
		return newInproc(in, workers, shards, "")
	}
}

// ---- kernel replays: one layer's public function, timed alone ----

// timeOps calls op in batches until about budget has passed and returns
// nanoseconds and heap allocations per call.
func timeOps(budget time.Duration, op func(i int)) (ns, allocs float64) {
	const batch = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		for k := 0; k < batch; k++ {
			op(n + k)
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replays are per call; the caller scales to per answer.
type replays struct {
	evalNs, evalAllocs float64 // QueryPrepared + reducer on the workload's DBs
	decideNs           float64 // one participation decision
	bucketizeNs        float64 // Buckets.Index on one reduced value
	respondNs          float64 // randomized response over one answer vector
	encodeNs           float64 // one answer message
	splitNs            float64 // one message into two shares
	walAppendNs        float64 // one journal record of the workload's share size
	shareBytes         int     // payload bytes of one share
}

// replayPerEpoch sizes the kernel replays to the workload: each kernel is
// replayed for about 2% of the time the workload's epochs take.
const replayPerEpoch = 300 * time.Microsecond

func runReplays(in *inputs, dir string) (replays, error) {
	var r replays
	budget := time.Duration(in.spec.epochs) * replayPerEpoch
	q := in.queries[0]

	const sample = 64
	dbs := make([]*minisql.DB, sample)
	for i := range dbs {
		dbs[i] = minisql.NewDB()
		if err := in.populate(i*(in.spec.clients/sample), dbs[i]); err != nil {
			return r, err
		}
	}
	stmt, err := minisql.Parse(q.SQL)
	if err != nil {
		return r, err
	}
	sel, ok := stmt.(*minisql.SelectStmt)
	if !ok {
		return r, fmt.Errorf("query %q is not a SELECT", q.SQL)
	}
	var evalErr error
	values := make([]string, sample) // what each sampled client answers
	r.evalNs, r.evalAllocs = timeOps(budget, func(i int) {
		rows, err := dbs[i%sample].QueryPrepared(sel)
		if err != nil {
			evalErr = err
			return
		}
		values[i%sample], _ = client.ReduceLast(rows)
	})
	if evalErr != nil {
		return r, evalErr
	}
	r.bucketizeNs, _ = timeOps(budget, func(i int) { q.Buckets.Index(values[i%sample]) })

	decider, err := sampling.NewHashDecider(in.params.S, q.QID.Uint64())
	if err != nil {
		return r, err
	}
	ids := make([]string, sample)
	for i := range ids {
		ids[i] = clientID(i)
	}
	r.decideNs, _ = timeOps(budget, func(i int) { decider.Participate(ids[i%sample], uint64(i)) })

	rz, err := rr.NewRandomizer(in.params.RR, mrand.New(mrand.NewSource(in.seed)))
	if err != nil {
		return r, err
	}
	vec, err := answer.NewBitVector(in.spec.buckets)
	if err != nil {
		return r, err
	}
	r.respondNs, _ = timeOps(budget, func(i int) {
		vec.Reset()
		_ = vec.Set(i%in.spec.buckets, true) // index is in range
		rz.RespondBits(vec.Bytes(), vec.Len())
	})

	msg := answer.Message{QueryID: q.QID.Uint64(), Answer: vec}
	var raw []byte
	var encErr error
	r.encodeNs, _ = timeOps(budget, func(i int) {
		msg.Epoch = uint64(i)
		raw, encErr = msg.AppendBinary(raw[:0])
	})
	if encErr != nil {
		return r, encErr
	}

	splitter, err := xorcrypt.NewSplitter(proxies, nil, mrand.New(mrand.NewSource(in.seed)))
	if err != nil {
		return r, err
	}
	var scratch xorcrypt.SplitScratch
	var splitErr error
	r.splitNs, _ = timeOps(budget, func(int) {
		shares, err := splitter.SplitInto(raw, &scratch)
		if err != nil {
			splitErr = err
			return
		}
		r.shareBytes = len(shares[0].Payload)
	})
	if splitErr != nil {
		return r, splitErr
	}

	// One in-process durable publish journals one record: u64 timestamp,
	// u32 key length, the 16-byte MID, the share payload.
	walDir := filepath.Join(dir, "replay-wal")
	log, err := wal.Open(walDir, wal.Options{Policy: wal.PolicyNever})
	if err != nil {
		return r, err
	}
	rec := [][]byte{make([]byte, 12+xorcrypt.MIDSize+r.shareBytes)}
	var walErr error
	r.walAppendNs, _ = timeOps(budget, func(int) {
		if _, err := log.AppendBatch(rec); err != nil {
			walErr = err
		}
	})
	if err := log.Close(); err != nil && walErr == nil {
		walErr = err
	}
	if err := os.RemoveAll(walDir); err != nil && walErr == nil {
		walErr = err
	}
	return r, walErr
}

// expectedAnswers replays the participation decision of every client for
// every (query, epoch): the answers each epoch must have produced.
func expectedAnswers(in *inputs, epochs int) ([][]int64, error) {
	out := make([][]int64, len(in.queries))
	ids := make([]string, in.spec.clients)
	for i := range ids {
		ids[i] = clientID(i)
	}
	for qi, q := range in.queries {
		decider, err := sampling.NewHashDecider(in.params.S, q.QID.Uint64())
		if err != nil {
			return nil, err
		}
		counts := make([]int64, epochs)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					e := int(next.Add(1)) - 1
					if e >= epochs {
						return
					}
					var n int64
					for _, id := range ids {
						if decider.Participate(id, uint64(e)) {
							n++
						}
					}
					counts[e] = n
				}
			}()
		}
		wg.Wait()
		out[qi] = counts
	}
	return out, nil
}
