// Package client implements the PrivApprox client runtime (paper §5):
// each client stores the user's private data in an embedded database,
// verifies and subscribes to analyst queries, and every epoch runs the
// four client-side steps — sampling decision (§3.2.1), local query
// execution and randomized response (§3.2.2), and XOR-based share
// transmission to the proxies (§3.2.3).
//
// A client holds any number of concurrent subscriptions — the paper's
// normal operating mode has many analysts' queries running over the
// same population — and answers every active query each epoch. Each
// subscription owns its own deterministic randomness (derived from the
// client seed, the query's wire identifier, and a per-query
// subscription generation), so a query's coin flips never depend on
// which other queries happen to be active: query Q answered alongside
// nine others produces exactly the bits it would produce running alone.
package client

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/minisql"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/sampling"
	"privapprox/internal/seeded"
	"privapprox/internal/xorcrypt"
)

// Errors reported by the client runtime.
var (
	ErrNotSubscribed = errors.New("client: no active subscription")
	ErrBadConfig     = errors.New("client: invalid configuration")
)

// ShareSink accepts one XOR share — each of the n proxies is one sink.
//
// Ownership contract: Submit must copy or fully consume share.Payload
// before returning. The client splits every epoch's message into
// caller-owned scratch and reuses those buffers for the next epoch, so
// a sink that retains the slice uncopied would see its bytes change
// underneath it. The in-process broker copies on publish, the TCP
// transport serializes into its frame before returning, and the Batcher
// copies into its arena — all three satisfy the contract.
type ShareSink interface {
	Submit(share xorcrypt.Share) error
}

// Reducer names how the rows the local query returned fold into the
// client's single answer value for the epoch, read from each row's
// first column. The zero value is Last.
type Reducer uint8

// The reductions.
const (
	Last  Reducer = iota // the last row's value (e.g. the latest reading)
	Sum                  // the sum of the numeric values
	Mean                 // their mean
	Count                // the number of rows
)

// fold is one reduction in progress. Rows reach it one at a time and
// borrowed — the slice is valid only during the call — so it keeps
// values, never rows.
type fold struct {
	kind  Reducer
	rows  int     // rows seen
	nums  int     // of which numeric
	total float64 // their sum
	last  minisql.Value
}

func (f *fold) row(row []minisql.Value) {
	f.rows++
	switch f.kind {
	case Last:
		// Field by field: the scan has just assembled row[0] from its
		// table's columns with narrow stores, and a whole-Value copy's
		// wide loads would stall on them, row after row.
		v := &row[0]
		f.last.Kind, f.last.Num, f.last.Str, f.last.B = v.Kind, v.Num, v.Str, v.B
	case Sum, Mean:
		if x, err := row[0].AsNumber(); err == nil {
			f.total += x
			f.nums++
		}
	}
}

// value is the epoch's answer value. The boolean is false when the
// client has none; it still answers with an all-zero truthful vector so
// that non-participation never leaks query-dependent information.
func (f *fold) value() (minisql.Value, bool) {
	switch f.kind {
	case Sum:
		return minisql.Number(f.total), f.rows > 0
	case Mean:
		return minisql.Number(f.total / float64(f.nums)), f.nums > 0
	case Count:
		return minisql.Number(float64(f.rows)), true
	default:
		return f.last, f.rows > 0
	}
}

// reduce folds a materialised result the way the answer path folds a
// scanned one, and renders the value.
func reduce(kind Reducer, rows *minisql.Rows) (string, bool) {
	f := fold{kind: kind}
	for _, r := range rows.Rows {
		f.row(r)
	}
	v, ok := f.value()
	if !ok {
		return "", false
	}
	return v.String(), true
}

// ReduceLast returns the first column of the last row.
func ReduceLast(rows *minisql.Rows) (string, bool) { return reduce(Last, rows) }

// ReduceSum sums the first column over all rows.
func ReduceSum(rows *minisql.Rows) (string, bool) { return reduce(Sum, rows) }

// ReduceMean averages the first column over all rows.
func ReduceMean(rows *minisql.Rows) (string, bool) { return reduce(Mean, rows) }

// ReduceCount counts rows.
func ReduceCount(rows *minisql.Rows) (string, bool) { return reduce(Count, rows) }

// Stats counts client-side work for the Table 3 and Fig. 9 experiments.
// With multiple subscriptions, Participated and AnswersSent count
// per-(query, epoch) events while EpochsSeen counts epochs.
type Stats struct {
	EpochsSeen   int64
	Participated int64
	AnswersSent  int64
	BytesSent    int64
	// Shedded counts (query, epoch) events where the base sampling coin
	// said participate but the overload shed threshold suppressed the
	// answer — approximation spent instead of backlog grown.
	Shedded int64
}

// Config assembles a client.
type Config struct {
	ID         string
	DB         *minisql.DB
	AnalystKey ed25519.PublicKey
	Sinks      []ShareSink
	Reducer    Reducer // defaults to Last
	Seed       int64   // deterministic randomness for experiments
	// MIDSource optionally supplies the splitter's message-identifier
	// bytes (16 per answer). MIDs are the pub/sub partition keys, so a
	// seeded source makes partition routing — and therefore bounded,
	// mid-stream drains — reproducible across runs; nil keeps the
	// default crypto-random generator (the right choice for deployments,
	// where MIDs must be unlinkable across runs).
	MIDSource io.Reader
}

// Client is one user device.
type Client struct {
	id      string
	db      *minisql.DB
	analyst ed25519.PublicKey
	sinks   []ShareSink
	reducer Reducer
	seed    int64

	// subs holds the active subscriptions in registration order; byWire
	// indexes them by the query's wire identifier. gens counts how many
	// times each wire QID has been (re-)subscribed, so a feedback-driven
	// re-subscription draws a fresh, deterministic coin stream instead of
	// replaying the old one.
	subs   []*subscription
	byWire map[uint64]int
	gens   map[uint64]uint64

	splitter *xorcrypt.Splitter

	// Per-epoch scratch, reused across epochs so the steady-state
	// answering path allocates nothing: the encoded message and the
	// split-share buffers (the truthful answer vector lives per
	// subscription — bucket counts differ across queries). Safe because
	// every ShareSink copies or consumes before returning (see
	// ShareSink).
	msgBuf  []byte
	scratch xorcrypt.SplitScratch

	epochsSeen   atomic.Int64
	participated atomic.Int64
	answersSent  atomic.Int64
	bytesSent    atomic.Int64
	shedded      atomic.Int64
}

type subscription struct {
	query   *query.Query
	params  budget.Params
	decider *sampling.HashDecider
	rz      *rr.Randomizer
	qidWire uint64
	// The answer stage, compiled once: the statement's plan (bound to the
	// local table on the first epoch that finds it), the typed
	// bucketizer, and the truthful-answer scratch. There is no row
	// scratch: the plan lends rows one at a time to a fold that lives on
	// the answering goroutine's stack.
	plan    *minisql.Plan
	buckets query.Bucketizer
	vec     *answer.BitVector
	// shed ∈ (0, 1] is the overload-control threshold: the effective
	// participation fraction this epoch is params.S·shed. Unlike a
	// re-subscription it does NOT redraw the coin stream — a
	// shed-suppressed client still consumes its randomized-response
	// draws (see answerQuery), so the stream stays independent of the
	// shed history and crash recovery needs no shed replay.
	shed float64
}

// New validates the configuration and builds a client.
func New(cfg Config) (*Client, error) {
	if cfg.ID == "" || cfg.DB == nil {
		return nil, fmt.Errorf("%w: need ID and DB", ErrBadConfig)
	}
	if len(cfg.Sinks) < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2 proxies, got %d", ErrBadConfig, len(cfg.Sinks))
	}
	if cfg.Reducer > Count {
		return nil, fmt.Errorf("%w: unknown reducer %d", ErrBadConfig, cfg.Reducer)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	splitter, err := xorcrypt.NewSplitter(len(cfg.Sinks), nil, cfg.MIDSource)
	if err != nil {
		return nil, err
	}
	return &Client{
		id:       cfg.ID,
		db:       cfg.DB,
		analyst:  cfg.AnalystKey,
		sinks:    cfg.Sinks,
		reducer:  cfg.Reducer,
		seed:     seed,
		byWire:   make(map[uint64]int),
		gens:     make(map[uint64]uint64),
		splitter: splitter,
	}, nil
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.id }

// splitmix64 is the SplitMix64 finalizer, used to mix the client seed
// with per-subscription coordinates.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// subSeed derives the deterministic randomizer seed for one
// subscription: a pure function of (client seed, wire QID, subscribe
// generation). Every code path that activates a query — the legacy
// single-query Subscribe, the multi-query SubscribeVerified, in-process or
// via the control topic — lands on the same derivation, which is what
// makes a query's randomized responses identical whether it runs alone
// or alongside others.
func subSeed(seed int64, qidWire, gen uint64) int64 {
	z := splitmix64(uint64(seed) ^ qidWire)
	return int64(splitmix64(z + gen))
}

// Subscribe verifies the analyst's signature (when a key is configured)
// and activates the query with the system parameters the aggregator
// derived from the budget. Subscribe keeps the single-query contract of
// the original runtime: the new subscription replaces the entire active
// set. A process hosting many clients verifies once and hands each the
// result through SubscribeVerified instead.
func (c *Client) Subscribe(signed *query.Signed, params budget.Params) error {
	q := signed.Query
	var sel *minisql.SelectStmt // parsed by buildSubscription when not verified
	if c.analyst != nil {
		v, err := query.Verify(signed, c.analyst)
		if err != nil {
			return err
		}
		q, sel = v.Query(), v.Statement()
	}
	sub, err := c.buildSubscription(q, sel, params)
	if err != nil {
		return err
	}
	c.subs = c.subs[:0]
	clear(c.byWire)
	c.byWire[sub.qidWire] = 0
	c.subs = append(c.subs, sub)
	return nil
}

// SubscribeVerified activates one already verified query alongside any
// others active (upserting by wire QID: re-subscribing an active query
// swaps its parameters in place and redraws its coin stream). The zero
// Verified is refused. The subscription's plan runs the Verified's
// statement, which it shares with every other holder of v.
func (c *Client) SubscribeVerified(v query.Verified, params budget.Params) error {
	sub, err := c.buildSubscription(v.Query(), v.Statement(), params)
	if err != nil {
		return err
	}
	if i, ok := c.byWire[sub.qidWire]; ok {
		// Re-subscription swaps parameters and redraws coins but keeps
		// the overload-control threshold — shedding is a property of the
		// query's standing load, not of one parameter revision.
		sub.shed = c.subs[i].shed
		c.subs[i] = sub
		return nil
	}
	c.byWire[sub.qidWire] = len(c.subs)
	c.subs = append(c.subs, sub)
	return nil
}

// UnsubscribeQuery deactivates a query, reporting whether it was
// active. The wire-QID generation counter survives, so a later
// re-subscription still draws a fresh coin stream.
func (c *Client) UnsubscribeQuery(id query.ID) bool {
	wire := id.Uint64()
	i, ok := c.byWire[wire]
	if !ok {
		return false
	}
	c.subs = append(c.subs[:i], c.subs[i+1:]...)
	delete(c.byWire, wire)
	for j := i; j < len(c.subs); j++ {
		c.byWire[c.subs[j].qidWire] = j
	}
	return true
}

// buildSubscription validates and assembles one subscription to a
// trusted query, drawing the next generation's deterministic randomness
// for it. sel is q's parsed SQL; nil parses it here.
func (c *Client) buildSubscription(q *query.Query, sel *minisql.SelectStmt, params budget.Params) (*subscription, error) {
	if q == nil {
		return nil, fmt.Errorf("%w: no verified query", query.ErrInvalidQuery)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if sel == nil {
		stmt, err := minisql.Parse(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("client: query SQL: %w", err)
		}
		var ok bool
		if sel, ok = stmt.(*minisql.SelectStmt); !ok {
			return nil, fmt.Errorf("client: query must be a SELECT")
		}
	}
	wire := q.QID.Uint64()
	decider, err := sampling.NewHashDecider(params.S, wire)
	if err != nil {
		return nil, err
	}
	gen := c.gens[wire]
	c.gens[wire] = gen + 1
	rz, err := rr.NewRandomizer(params.RR, seeded.New(subSeed(c.seed, wire, gen)))
	if err != nil {
		return nil, err
	}
	vec, err := answer.NewBitVector(len(q.Buckets))
	if err != nil {
		return nil, err
	}
	return &subscription{
		query:   q,
		params:  params,
		decider: decider,
		rz:      rz,
		qidWire: wire,
		plan:    minisql.NewPlan(sel),
		buckets: q.Buckets.Compile(),
		vec:     vec,
		shed:    1,
	}, nil
}

// SetShed sets a query's shed threshold ∈ (0, 1] — 1 means no shedding.
// It reports whether the query was an active subscription. Setting the
// threshold touches neither the subscription generation nor the
// randomizer, so it is safe to call between epochs at any frequency:
// the coin streams are untouched and determinism per (client, query,
// epoch, shed-schedule) holds.
func (c *Client) SetShed(id query.ID, shed float64) bool {
	i, ok := c.byWire[id.Uint64()]
	if !ok {
		return false
	}
	if !(shed > 0) || shed > 1 {
		shed = 1
	}
	c.subs[i].shed = shed
	return true
}

// FastForward advances every active subscription's deterministic
// randomness through epochs [from, to) without answering them — the
// client-side half of crash recovery. A client process restarted to
// resume at epoch e takes its subscriptions from the control topic as
// usual (same seed, same generation) and fast-forwards to e epoch by
// epoch, each subscription from the epoch that last (re)subscribed it
// (role.Clients.FastForward); from there each subscription's coin stream
// is exactly the one an uninterrupted run would produce, because the
// randomness a subscription consumes per epoch is a deterministic
// function of the participation decision (hash-based, rng-free) and the
// query's bucket count (rr.Randomizer.Skip replays RespondBits' draws).
//
// Stats are not advanced: they count the work of this process, not of
// the crashed one.
func (c *Client) FastForward(from, to uint64) {
	for _, sub := range c.subs {
		for e := from; e < to; e++ {
			if sub.decider.Participate(c.id, e) {
				sub.rz.Skip(len(sub.query.Buckets))
				// One message identifier per base-participating epoch:
				// answered and shed epochs consume a MID alike (see
				// answerQuery), so the splitter's MID stream needs no shed
				// history either. The skip order across subscriptions
				// differs from the live run's epoch-major order, but only
				// the stream position matters.
				_ = c.splitter.SkipMID()
			}
		}
	}
}

// Query returns the first active query, or nil — the legacy single-query
// accessor.
func (c *Client) Query() *query.Query {
	if len(c.subs) == 0 {
		return nil
	}
	return c.subs[0].query
}

// ActiveQueries returns the active queries in registration order.
func (c *Client) ActiveQueries() []*query.Query {
	out := make([]*query.Query, len(c.subs))
	for i, sub := range c.subs {
		out[i] = sub.query
	}
	return out
}

// Subscriptions returns the number of active subscriptions.
func (c *Client) Subscriptions() int { return len(c.subs) }

// AnswerOnce runs one epoch of the query answering process for every
// active subscription, one local minisql evaluation and one
// split-and-transmit per query; shares for all queries flow through the
// same sinks, so a Batcher-backed deployment carries the whole epoch in
// one flush per proxy. It returns whether the client participated in at
// least one query (the §3.2.1 sampling coin, drawn independently per
// query).
func (c *Client) AnswerOnce(epoch uint64) (bool, error) { return c.AnswerTo(epoch, c.sinks) }

// AnswerTo is AnswerOnce into sinks, one per proxy in Config.Sinks'
// order: a worker answering many clients passes its own lanes.
func (c *Client) AnswerTo(epoch uint64, sinks []ShareSink) (bool, error) {
	if len(c.subs) == 0 {
		return false, ErrNotSubscribed
	}
	c.epochsSeen.Add(1)
	any := false
	for _, sub := range c.subs {
		ok, err := c.answerQuery(sub, epoch, sinks)
		if err != nil {
			return any, err
		}
		if ok {
			any = true
		}
	}
	return any, nil
}

// answerQuery runs the sample → local query → randomize → split →
// transmit pipeline for one subscription.
//
// The participation gate is three-way. Non-participants (the base
// sampling coin says no) consume nothing. Shed-suppressed clients —
// base-participating but above the effective fraction S·shed — skip
// the query and transmission but still consume exactly the randomness
// a full answer would (rz.Skip), so the coin stream's position is a
// function of the base participation pattern alone: FastForward and
// crash recovery never need to know the shed history.
func (c *Client) answerQuery(sub *subscription, epoch uint64, sinks []ShareSink) (bool, error) {
	if !sub.decider.Participate(c.id, epoch) {
		return false, nil
	}
	if sub.shed < 1 && !sub.decider.ParticipateShed(c.id, epoch, sub.shed) {
		// A shed answer still consumes its randomized-response draws AND
		// its message identifier, so both streams' positions stay
		// functions of base participation alone — crash recovery can
		// fast-forward them without replaying the shed history.
		sub.rz.Skip(len(sub.query.Buckets))
		if err := c.splitter.SkipMID(); err != nil {
			return false, err
		}
		c.shedded.Add(1)
		return false, nil
	}
	c.participated.Add(1)

	// Step II part 1: execute the query on the local private data,
	// streaming its rows into the fold.
	f := fold{kind: c.reducer}
	if err := sub.plan.Scan(c.db, f.row); err != nil {
		return false, fmt.Errorf("client: local query: %w", err)
	}
	vec, err := sub.truthVector(&f)
	if err != nil {
		return false, err
	}

	// Step II part 2: randomized response over every bucket bit.
	sub.rz.RespondBits(vec.Bytes(), vec.Len())

	// Step III: encode, split, transmit — all through per-client
	// scratch buffers reused across epochs and subscriptions.
	msg := answer.Message{QueryID: sub.qidWire, Epoch: epoch, Answer: vec}
	raw, err := msg.AppendBinary(c.msgBuf[:0])
	if err != nil {
		return false, err
	}
	c.msgBuf = raw
	shares, err := c.splitter.SplitInto(raw, &c.scratch)
	if err != nil {
		return false, err
	}
	for i, share := range shares {
		if err := sinks[i].Submit(share); err != nil {
			return false, fmt.Errorf("client: proxy %d: %w", i, err)
		}
		c.bytesSent.Add(int64(len(share.Payload) + xorcrypt.MIDSize))
	}
	c.answersSent.Add(1)
	return true, nil
}

// truthVector bucketizes the folded answer value into the
// subscription's reusable vector. No value, or a value outside every
// bucket, yields the all-zero vector: participating clients always
// transmit, so silence never correlates with data.
func (sub *subscription) truthVector(f *fold) (*answer.BitVector, error) {
	sub.vec.Reset()
	value, ok := f.value()
	if !ok {
		return sub.vec, nil
	}
	idx := sub.buckets.IndexValue(value)
	if idx < 0 {
		return sub.vec, nil
	}
	if err := sub.vec.Set(idx, true); err != nil {
		return nil, err
	}
	return sub.vec, nil
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() Stats {
	return Stats{
		EpochsSeen:   c.epochsSeen.Load(),
		Participated: c.participated.Load(),
		AnswersSent:  c.answersSent.Load(),
		BytesSent:    c.bytesSent.Load(),
		Shedded:      c.shedded.Load(),
	}
}
