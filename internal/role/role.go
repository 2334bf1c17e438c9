// Package role holds the two halves of the pipeline every deployment
// runs (paper Fig. 3): the client role — a process's logical clients
// following the announced query set and answering an epoch into one
// client.Batcher per proxy — and the aggregator role — rounds that poll
// one consumer per proxy and submit what they read in one call,
// following the same announcements — plus the one checkpoint record a
// durable aggregator writes. Both roles learn their queries from a
// control topic, each through its own engine.Follower: a query, a
// parameter change, a shed change or a stop reaches the aggregator the
// way it reaches the clients. core.System runs both roles over
// in-process brokers and privapprox-node runs each over TCP, so the two
// wirings differ only in what they connect, never in how a query
// arrives or how an epoch is answered, drained or checkpointed. In one
// process the two roles can also overlap: handed a Drain, an epoch's
// client-role workers run drain points between their chunks, each
// cutting one frame per proxy and draining it while the other workers
// answer on.
package role

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/telemetry"
	"privapprox/internal/xorcrypt"
)

// pollMax is the most records one poll reads.
const pollMax = 4096

// chunk is how many clients a client-role worker claims at a time and
// answers into its own lanes before flushing them to the shared batchers.
const chunk = 64

// cutFloor is the fewest shares every proxy's batcher must hold before a
// drain point cuts a frame. A frame costs a publish per proxy and, on a
// durable fleet, a journal write per partition, so a point that cut
// every chunk would spend on frames what it gains by overlapping. Of the
// floors measured (DESIGN §3), 1,024 overlapped as well as 256 and 512
// in memory and was the one that did not cost the durable fleet.
const cutFloor = 1024

// Clients is a process's logical clients. Every client's shares reach
// one Batcher per proxy, so an epoch reaches each proxy as columnar
// frames — one per epoch unless a batch limit cuts it earlier. The
// clients learn their queries from a control topic: one follower
// reconciles all of them against the announced query sets, each at the
// start of the epoch it is in force from (engine's in-force rule).
type Clients struct {
	clients  []*client.Client
	batchers []*client.Batcher
	follower *engine.Follower
	lanes    [][]client.ShareSink // per worker, a *client.Batcher per proxy, empty between chunks
	run      answerRun
	// cut orders every lane flush and every frame cut (flush).
	cut sync.Mutex
	// point is held by the one worker running a drain point; the others
	// answer on rather than wait for it.
	point sync.Mutex
}

// answerRun is the state an epoch's workers share. drain is nil in an
// epoch without drain points; fired and pointErr are what its drain
// points fired and the first failure of one, guarded by Clients.point.
type answerRun struct {
	next, participants atomic.Int64
	stop               atomic.Bool
	err                atomic.Pointer[error]
	wg                 sync.WaitGroup
	drain              *Drain
	fired              []aggregator.Result
	pointErr           error
}

// NewClients builds logical clients offset … offset+n−1 over fleet,
// following the query announcements on control. The role names a client
// client-%06d after its global index and seeds it with seed+index+2;
// setup fills in the rest of its configuration, its database first.
// batch is the Batcher limit (0 flushes once per epoch) and workers
// bounds how many clients answer at once.
func NewClients(fleet *proxy.Fleet, control *pubsub.Consumer, seed int64, offset, n, batch, workers int, setup func(i int, cfg *client.Config) error) (*Clients, error) {
	c := &Clients{batchers: make([]*client.Batcher, fleet.Size()), lanes: make([][]client.ShareSink, max(1, min(workers, n)))}
	sinks := make([]client.ShareSink, fleet.Size())
	for i := range c.batchers {
		c.batchers[i] = client.NewBatcher(fleet.Proxy(i), batch)
		sinks[i] = c.batchers[i]
		for w := range c.lanes {
			c.lanes[w] = append(c.lanes[w], client.NewBatcher(c.batchers[i], 0))
		}
	}
	for i := offset; i < offset+n; i++ {
		cfg := client.Config{ID: fmt.Sprintf("client-%06d", i), Sinks: sinks, Seed: seed + int64(i) + 2}
		if err := setup(i, &cfg); err != nil {
			return nil, fmt.Errorf("role: client %d: %w", i, err)
		}
		cl, err := client.New(cfg)
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	subs := make([]engine.Subscriber, len(c.clients))
	for i, cl := range c.clients {
		subs[i] = cl
	}
	c.follower = engine.NewFollower(control, engine.NewApplier(subs...))
	return c, nil
}

// Clients returns the logical clients in index order.
func (c *Clients) Clients() []*client.Client { return c.clients }

// Batchers returns the shared per-proxy batchers, proxy i's at index i.
func (c *Clients) Batchers() []*client.Batcher { return c.batchers }

// Follower returns the follower that subscribes the clients to the
// announced queries.
func (c *Clients) Follower() *engine.Follower { return c.follower }

// Epoch applies the announcements in force by the start of epoch e,
// then answers it on every client and flushes every proxy's batch,
// returning how many clients answered at least one query. With no query
// active it answers nothing. Clients never share mutable state and each
// worker has its own lanes; each proxy receives the same shares in the
// same order (flush). Shares batched before an error are still flushed.
//
// Given a drain, an epoch answered on more than one worker runs drain
// points: a worker that finishes a chunk while no other worker drains
// and every proxy's batcher holds at least cutFloor unsent shares cuts
// and sends a frame per proxy and drains it (Drain.UpTo's rounds).
// Epoch returns the windows its drain points fired, in the order they
// fired, and the first drain point failure after the answers; the frame
// the epoch's end flushes is the caller's to drain.
func (c *Clients) Epoch(e uint64, drain *Drain) ([]aggregator.Result, int, error) {
	if active, err := c.syncActive(e); err != nil || active == 0 {
		return nil, 0, err
	}
	for _, b := range c.batchers {
		b.BeginEpoch(e)
	}
	if len(c.lanes) == 1 {
		drain = nil
	}
	n, err := c.answer(e, drain)
	if ferr := c.flush(nil, true); err == nil {
		err = ferr
	}
	if err == nil {
		err = c.run.pointErr
	}
	return c.run.fired, n, err
}

// syncActive is the control-plane step of every epoch: it applies the
// announcements in force by the start of epoch e and returns how many
// queries are active. With nothing new on the control topic it
// allocates nothing.
func (c *Clients) syncActive(e uint64) (int, error) {
	_, err := c.follower.Sync()
	if aerr := c.follower.Applier().Advance(e, math.MaxUint64); err == nil {
		err = aerr
	}
	return c.follower.Applier().ActiveQueries(), err
}

// FastForward replays epochs [from, to) as Epoch would, skipping the
// coins each subscription would have drawn from the epoch that last
// (re)subscribed it on. Sync the follower first.
func (c *Clients) FastForward(from, to uint64) error {
	for e := from; e < to; e++ {
		if err := c.follower.Applier().Advance(e, math.MaxUint64); err != nil {
			return err
		}
		for _, cl := range c.clients {
			cl.FastForward(e, e+1)
		}
	}
	return nil
}

// answer runs worker 0 on the calling goroutine and the rest on their own.
func (c *Clients) answer(e uint64, drain *Drain) (int, error) {
	c.run = answerRun{drain: drain}
	for w := 1; w < len(c.lanes); w++ {
		c.run.wg.Add(1)
		go func() {
			defer c.run.wg.Done()
			c.work(e, c.lanes[w])
		}()
	}
	c.work(e, c.lanes[0])
	c.run.wg.Wait()
	return int(c.run.participants.Load()), firstErr(&c.run.err)
}

// work claims chunks until none is left or a worker fails, answering each
// into lanes and flushing them, after an error too, and offering a drain
// point after each chunk.
func (c *Clients) work(e uint64, lanes []client.ShareSink) {
	r, n := &c.run, 0
	var err error
	for err == nil && !r.stop.Load() {
		lo := int(r.next.Add(chunk)) - chunk
		if lo >= len(c.clients) {
			break
		}
		for _, cl := range c.clients[lo:min(lo+chunk, len(c.clients))] {
			if r.stop.Load() {
				break
			}
			var ok bool
			if ok, err = cl.AnswerTo(e, lanes); err != nil {
				break
			}
			if ok {
				n++
			}
		}
		if ferr := c.flush(lanes, false); err == nil {
			err = ferr
		}
		if err == nil {
			err = c.drainPoint(e)
		}
	}
	r.participants.Add(int64(n))
	if err != nil {
		setErr(&r.err, err)
		r.stop.Store(true)
	}
}

// flush is the client role's one lane-flush rule: under cut, lanes
// flush into the shared batchers and, with cutAll, every shared batcher
// cuts a frame, so all of them cut the same frames in the same order;
// after cut, each sends its frames in cut order and, with cutAll, waits
// until they have reached its proxy.
func (c *Clients) flush(lanes []client.ShareSink, cutAll bool) error {
	var err error
	c.cut.Lock()
	for _, lane := range lanes {
		if ferr := lane.(*client.Batcher).Flush(); err == nil {
			err = ferr
		}
	}
	for _, b := range c.batchers {
		if cutAll {
			b.Cut()
		}
	}
	c.cut.Unlock()
	for _, b := range c.batchers {
		if ferr := b.Send(); err == nil {
			err = ferr
		}
		if cutAll {
			b.Wait()
		}
	}
	return err
}

// drainPoint cuts and sends one frame per proxy and drains it, unless
// the epoch has no drain, another worker is running a drain point, an
// earlier one failed, or some proxy's batcher holds fewer than cutFloor
// unsent shares. It drains from each proxy the most any held unsent:
// once the frames are sent, each holds at least that many undrained
// shares, the same ones in the same order. A failed send stops the
// epoch's answering; a failed drain only ends its drain points and is
// reported after the answers. It allocates nothing unless a window
// fires.
func (c *Clients) drainPoint(e uint64) error {
	r := &c.run
	if r.drain == nil || !c.point.TryLock() {
		return nil
	}
	defer c.point.Unlock()
	if r.pointErr != nil {
		return nil
	}
	most := 0
	for _, b := range c.batchers {
		n := b.Pending()
		if n < cutFloor {
			return nil
		}
		most = max(most, n)
	}
	if err := c.flush(nil, true); err != nil {
		return err
	}
	t0 := time.Now()
	var drained int
	r.fired, drained, r.pointErr = r.drain.upTo(r.fired, most*len(c.batchers))
	if tr := r.drain.agg.Tracer(); tr != nil {
		tr.Record(e, telemetry.StageDrain, time.Since(t0), drained, 0)
	}
	if r.drain.pointDone != nil {
		r.drain.pointDone()
	}
	return nil
}

// Drain is the aggregator role: one consumer per proxy feeding one
// aggregator, which follows the query announcements on a control topic.
// Every way of draining — until dry, up to a budget, one round at a time
// — runs the same round: poll every consumer, sync, submit all the
// polled shares in one call, with one share scratch per consumer. A
// Drain is driven by one goroutine at a time.
type Drain struct {
	agg       *aggregator.Aggregator
	consumers []*pubsub.Consumer
	scratch   [][]xorcrypt.Share
	follower  *engine.Follower
	queries   *aggQueries
	clock     uint64 // the epoch its wiring has reached (Sync), math.MaxUint64 until set
	pointDone func() // for tests: called after each drain point's rounds
}

// NewDrain builds the aggregator role over one consumer per proxy, the
// consumer of proxy i at index i, following the query announcements on
// control. The control consumer is never committed: a restarted drain
// reads the control topic from its start, up to the checkpoint's
// control position when it restores one.
func NewDrain(agg *aggregator.Aggregator, consumers []*pubsub.Consumer, control *pubsub.Consumer) *Drain {
	queries := &aggQueries{agg: agg}
	queries.ap = engine.NewApplier(queries)
	return &Drain{
		agg:       agg,
		consumers: consumers,
		scratch:   make([][]xorcrypt.Share, len(consumers)),
		follower:  engine.NewFollower(control, queries.ap),
		queries:   queries,
		clock:     math.MaxUint64,
	}
}

// aggQueries is the aggregator as the drain's follower manages it: a
// subscription opens the query (or schedules a revision's parameters
// from the epoch it applies from), a shed change schedules its
// threshold, and an unsubscription removes the query, whose flushed
// windows and first failure it keeps for the next Sync.
type aggQueries struct {
	agg     *aggregator.Aggregator
	ap      *engine.Applier
	flushed []aggregator.Result
	err     error
}

func (q *aggQueries) SubscribeVerified(v query.Verified, params budget.Params) error {
	return q.agg.AddQuery(aggregator.QuerySpec{Query: v.Query(), Params: params, From: q.ap.Applied().From})
}

func (q *aggQueries) SetShed(id query.ID, shed float64) bool {
	return q.agg.SetShed(id, q.ap.Applied().From, shed) == nil
}

func (q *aggQueries) UnsubscribeQuery(id query.ID) bool {
	res, err := q.agg.RemoveQuery(id)
	q.flushed = append(q.flushed, res...)
	if err != nil && q.err == nil {
		q.err = err
	}
	return err == nil
}

// Consumers returns the role's consumers, proxy i's at index i.
func (d *Drain) Consumers() []*pubsub.Consumer { return d.consumers }

// Follower returns the follower that keeps the aggregator's queries in
// step with the announcements.
func (d *Drain) Follower() *engine.Follower { return d.follower }

// Sync sets the drain's clock to epoch e of its wiring — an answer of a
// later epoch waits, parked, until a round reaches it
// (aggregator.SubmitRound) — and applies to the aggregator the
// announcements in force by (e, v) (engine.Applier's Advance),
// returning the windows a stopped query's removal flushed, with the
// first refusal or removal failure. A drain whose wiring never sets its
// clock parks no answer, and a snapshot from epoch 0 applies as it
// arrives. With nothing new on the control topic it allocates nothing.
func (d *Drain) Sync(e, v uint64) ([]aggregator.Result, error) {
	d.clock = e
	if err := d.queries.ap.Advance(e, v); err != nil && d.queries.err == nil {
		d.queries.err = err
	}
	return d.sync()
}

// sync applies the announcements that arrived since the last sync.
func (d *Drain) sync() ([]aggregator.Result, error) {
	_, err := d.follower.Sync()
	flushed, ferr := d.queries.flushed, d.queries.err
	d.queries.flushed, d.queries.err = nil, nil
	if err == nil {
		err = ferr
	}
	return flushed, err
}

// round polls every consumer once, in proxy order — each for up to chunk
// records, all of them together for up to budget, each waiting up to
// wait for its first — as runs, syncs the control topic and submits the
// polled shares in one call (aggregator.SubmitRound), each a view of its
// record in its consumer's fetch memory. A run whose key is not a MID
// carries no shares: its records are counted malformed and skipped, and
// the rest of the round is submitted. It returns the windows the round
// fired — a removal's flushed windows first — and the records it read.
//
// The sync comes after the polls and before the submit, so every
// announcement made before a submitted share was published has been
// applied — its own query's among them: a query announced while the
// polls ran is open before its first answers decode. A refused snapshot
// or a failed poll does not cost what the round polled: those shares are
// submitted all the same, and the failure is returned after them. A
// round that reads nothing does not sync.
func (d *Drain) round(chunk, budget int, wait time.Duration) ([]aggregator.Result, int, error) {
	read, skipped := 0, 0
	var pollErr error
	for src, c := range d.consumers {
		shares := d.scratch[src][:0]
		if room := min(chunk, budget-read); room > 0 && pollErr == nil {
			var runs []pubsub.Run
			runs, pollErr = c.PollRuns(room, wait)
			for _, r := range runs {
				var n int
				shares, n = proxy.AppendShares(shares, r)
				read += r.Count
				skipped += n
			}
		}
		d.scratch[src] = shares
	}
	if read == 0 {
		return nil, 0, pollErr
	}
	flushed, syncErr := d.sync()
	if skipped > 0 {
		d.agg.CountMalformed(skipped)
	}
	fired, err := d.agg.SubmitRound(d.scratch, d.clock)
	// The aggregator only borrowed the payloads: drop them so the scratch
	// does not pin the consumers' fetch memory.
	for src, shares := range d.scratch {
		clear(shares)
		d.scratch[src] = shares[:0]
	}
	if len(flushed) > 0 {
		fired = append(flushed, fired...)
	}
	if err == nil {
		err = pollErr
	}
	if err == nil {
		err = syncErr
	}
	return fired, read, err
}

// Round polls every consumer once, each reading up to max records and
// waiting up to wait for its first, and submits what they read. Fired
// windows come back in the order they fired.
func (d *Drain) Round(max int, wait time.Duration) ([]aggregator.Result, int, error) {
	return d.round(max, math.MaxInt, wait)
}

// UpTo drains at most max records round by round until the budget is
// spent or a round reads nothing. Each round splits the budget fairly
// over the consumers: a share decodes only once all its sibling shares
// have arrived, so draining one proxy's backlog before the next would
// spend the budget on halves that cannot join. Fired windows come back
// in canonical order (aggregator.SortResults); a count under max means
// the proxies ran dry.
func (d *Drain) UpTo(max int) ([]aggregator.Result, int, error) {
	fired, drained, err := d.upTo(nil, max)
	aggregator.SortResults(fired, d.agg.QueryOrder())
	return fired, drained, err
}

// upTo is UpTo appending the fired windows to fired in the order they
// fired.
func (d *Drain) upTo(fired []aggregator.Result, max int) ([]aggregator.Result, int, error) {
	chunk := max / len(d.consumers)
	if max%len(d.consumers) != 0 {
		chunk++
	}
	chunk = min(chunk, pollMax)
	var (
		drained int
		err     error
	)
	for drained < max {
		var res []aggregator.Result
		var n int
		res, n, err = d.round(chunk, max-drained, 0)
		fired = append(fired, res...)
		drained += n
		if err != nil || n == 0 {
			break
		}
	}
	return fired, drained, err
}

// Dry drains every consumer until it is empty: UpTo without a budget.
// Fired windows come back in canonical order.
func (d *Drain) Dry() ([]aggregator.Result, error) {
	fired, _, err := d.UpTo(math.MaxInt)
	return fired, err
}

// Commit records every consumer's position at the proxies. It is the
// role's statement that it will never read below them again, which lets
// the brokers release those records and frees room under a partition
// bound.
func (d *Drain) Commit() error {
	for _, c := range d.consumers {
		if err := c.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// setErr records err unless a goroutine of the group recorded one first.
func setErr(p *atomic.Pointer[error], err error) { p.CompareAndSwap(nil, &err) }

// firstErr returns the error a group of goroutines recorded first, nil
// when none failed.
func firstErr(p *atomic.Pointer[error]) error {
	if err := p.Load(); err != nil {
		return *err
	}
	return nil
}
