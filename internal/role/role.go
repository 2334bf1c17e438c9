// Package role holds the two halves of the pipeline every deployment
// runs (paper Fig. 3): the client role — a process's logical clients
// following the announced query set and answering an epoch into one
// client.Batcher per proxy — and the
// aggregator role — one poll → decode → submit loop over one consumer
// per proxy — plus the one checkpoint record a durable aggregator
// writes. core.System runs both roles over in-process brokers and
// privapprox-node runs each over TCP, so the two wirings differ only in
// what they connect, never in how an epoch is answered, drained or
// checkpointed.
package role

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/xorcrypt"
)

// pollMax is the most records one poll reads.
const pollMax = 4096

// chunk is how many clients a client-role worker claims at a time and
// answers into its own lanes before flushing them to the shared batchers.
const chunk = 64

// Clients is a process's logical clients. Every client's shares reach
// one Batcher per proxy, so an epoch reaches each proxy as columnar
// frames — one per epoch unless a batch limit cuts it earlier. The
// clients learn their queries from a control topic: one follower
// reconciles all of them against the newest announced query set.
type Clients struct {
	clients  []*client.Client
	batchers []*client.Batcher
	follower *engine.Follower
	lanes    [][]client.ShareSink // per worker, a *client.Batcher per proxy, empty between chunks
	run      answerRun
}

// answerRun is the state an epoch's workers share.
type answerRun struct {
	next, participants atomic.Int64
	stop               atomic.Bool
	err                atomic.Pointer[error]
	wg                 sync.WaitGroup
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

// Epoch applies the announcements that arrived since the last epoch,
// then answers epoch e on every client and flushes every proxy's batch,
// returning how many clients answered at least one query. With no query
// active it answers nothing. Clients never share mutable state and each
// worker has its own lanes, so the worker pool only interleaves shares
// within a batch chunk by chunk, which the aggregator is
// insensitive to. Shares batched before an error are still flushed.
func (c *Clients) Epoch(e uint64) (int, error) {
	if active, err := c.syncActive(); err != nil || active == 0 {
		return 0, err
	}
	for _, b := range c.batchers {
		b.BeginEpoch(e)
	}
	n, err := c.answer(e)
	for _, b := range c.batchers {
		if ferr := b.Flush(); err == nil {
			err = ferr
		}
	}
	return n, err
}

// syncActive is the control-plane step of every epoch: it applies the
// pending announcements and returns how many queries are active. With
// nothing new on the control topic it allocates nothing.
func (c *Clients) syncActive() (int, error) {
	if _, err := c.follower.Sync(); err != nil {
		return 0, err
	}
	return c.follower.Applier().ActiveQueries(), nil
}

// answer runs worker 0 on the calling goroutine and the rest on their own.
func (c *Clients) answer(e uint64) (int, error) {
	c.run = answerRun{}
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
// into lanes and flushing them, after an error too.
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
		for _, lane := range lanes {
			if ferr := lane.(*client.Batcher).Flush(); err == nil {
				err = ferr
			}
		}
	}
	r.participants.Add(int64(n))
	if err != nil {
		setErr(&r.err, err)
		r.stop.Store(true)
	}
}

// Drain is the aggregator role: one consumer per proxy feeding one
// aggregator. Every way of draining — until dry, up to a budget, one
// round at a time — runs the same poll → decode → submit step, with one
// share scratch per consumer.
type Drain struct {
	agg       *aggregator.Aggregator
	consumers []*pubsub.Consumer
	scratch   [][]xorcrypt.Share
	parallel  bool
}

// NewDrain builds the aggregator role over one consumer per proxy, the
// consumer of proxy i at index i. With workers > 1 and more than one
// consumer, Dry drains each consumer on its own goroutine.
func NewDrain(agg *aggregator.Aggregator, consumers []*pubsub.Consumer, workers int) *Drain {
	return &Drain{
		agg:       agg,
		consumers: consumers,
		scratch:   make([][]xorcrypt.Share, len(consumers)),
		parallel:  workers > 1 && len(consumers) > 1,
	}
}

// Consumers returns the role's consumers, proxy i's at index i.
func (d *Drain) Consumers() []*pubsub.Consumer { return d.consumers }

// step reads up to max records from consumer src — waiting up to wait
// for the first — as runs, and submits their shares as one batch, each a
// view of its record in the consumer's fetch memory. A run whose key is
// not a MID carries no shares: its records are counted malformed and
// skipped, and the rest of the poll is submitted. It returns the windows
// the batch fired and the records it read.
func (d *Drain) step(src, max int, wait time.Duration) ([]aggregator.Result, int, error) {
	runs, err := d.consumers[src].PollRuns(max, wait)
	if err != nil || len(runs) == 0 {
		return nil, 0, err
	}
	shares, read, skipped := d.scratch[src][:0], 0, 0
	for _, r := range runs {
		var n int
		shares, n = proxy.AppendShares(shares, r)
		read += r.Count
		skipped += n
	}
	if skipped > 0 {
		d.agg.CountMalformed(skipped)
	}
	fired, err := d.agg.SubmitShareBatch(shares, src, time.Time{})
	// The aggregator only borrowed the payloads: drop them so the scratch
	// does not pin the consumer's fetch memory.
	clear(shares)
	d.scratch[src] = shares[:0]
	return fired, read, err
}

// round steps every consumer once, in proxy order, each for up to chunk
// records and all of them together for up to budget.
func (d *Drain) round(chunk, budget int, wait time.Duration) (fired []aggregator.Result, n int, err error) {
	for src := range d.consumers {
		room := min(chunk, budget-n)
		if room <= 0 {
			break
		}
		res, got, err := d.step(src, room, wait)
		fired = append(fired, res...)
		n += got
		if err != nil {
			return fired, n, err
		}
	}
	return fired, n, nil
}

// Round steps every consumer once, each reading up to max records and
// waiting up to wait for its first. Fired windows come back in the
// order they fired.
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
	chunk := max / len(d.consumers)
	if max%len(d.consumers) != 0 {
		chunk++
	}
	chunk = min(chunk, pollMax)
	var (
		fired   []aggregator.Result
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
	aggregator.SortResults(fired, d.agg.QueryOrder())
	return fired, drained, err
}

// Dry drains every consumer until it is empty — each on its own
// goroutine when the role runs parallel, else as UpTo without a budget.
// Fired windows come back in canonical order, so the result does not
// depend on goroutine scheduling.
func (d *Drain) Dry() ([]aggregator.Result, error) {
	if !d.parallel {
		fired, _, err := d.UpTo(math.MaxInt)
		return fired, err
	}
	var (
		mu    sync.Mutex
		fired []aggregator.Result
		fail  atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	for src := range d.consumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fail.Load() == nil {
				res, n, err := d.step(src, pollMax, 0)
				if len(res) > 0 {
					mu.Lock()
					fired = append(fired, res...)
					mu.Unlock()
				}
				if err != nil {
					setErr(&fail, err)
				}
				if err != nil || n == 0 {
					return
				}
			}
		}()
	}
	wg.Wait()
	aggregator.SortResults(fired, d.agg.QueryOrder())
	return fired, firstErr(&fail)
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
