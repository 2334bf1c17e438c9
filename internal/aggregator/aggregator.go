// Package aggregator implements PrivApprox's aggregator (paper §3.2.4,
// §5): it joins the encrypted answer stream with the key streams by
// message identifier, XOR-decrypts, decodes the randomized answers, runs
// sliding-window aggregation, and produces per-bucket query results with
// a confidence interval combining the two independent error sources —
// sampling (Eq. 2–4) and randomized response (estimated empirically, as
// in the paper's "experimental method").
//
// # Multi-query demultiplexing
//
// One aggregator serves any number of concurrent queries over the same
// share streams. The share join is query-agnostic — shares are keyed by
// message identifier, and the query a message belongs to is only
// revealed by the wire QueryID after decryption — so the join front-end
// is shared, and everything after decode (panes, watermark, firing,
// estimation, budgets) lives in per-query state demultiplexed by the
// wire QueryID. Queries can be added and removed while shares
// are in flight; messages for unknown queries and messages whose answer
// length does not match their query are counted and surfaced through
// Stats, never silently discarded.
package aggregator

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/sampling"
	"privapprox/internal/seeded"
	"privapprox/internal/stats"
	"privapprox/internal/stream"
	"privapprox/internal/telemetry"
	"privapprox/internal/telemetry/lineage"
	"privapprox/internal/xorcrypt"
)

// Errors reported by aggregator configuration and query registration.
var (
	ErrConfig = errors.New("aggregator: invalid config")
	// ErrWireCollision reports two distinct query IDs hashing to the same
	// 64-bit wire identifier — the demux key inside answer messages.
	ErrWireCollision = errors.New("aggregator: wire query-ID collision")
	// ErrUnknownQuery reports an operation on a query that is not
	// registered.
	ErrUnknownQuery = errors.New("aggregator: unknown query")
)

// Config assembles an aggregator. Query/Params describe the first query
// (optional for NewMulti; further queries arrive via AddQuery);
// everything else is shared across queries.
type Config struct {
	Query      *query.Query
	Params     budget.Params
	Population int // U: number of subscribed clients
	Proxies    int // n: shares per message
	// Origin anchors epoch numbers to event time: event time of epoch e
	// is Origin + e×Frequency (per query).
	Origin time.Time
	// Confidence for every query's error bound; defaults to 0.95.
	Confidence float64
	// Seed makes the RR-loss micro-benchmark deterministic; 0 draws a
	// random seed. Every query's estimator stream starts from it, so a
	// query produces the same stream whether it runs alone or among
	// others.
	Seed int64
	// Deprecated: Shards has no effect; the share join is one joiner
	// under one lock.
	Shards int
	// OnDecoded, when set, receives every decoded answer message (its
	// wire bytes and event time) — the hook the historical store uses
	// (§3.3.1). It may be invoked concurrently from multiple
	// SubmitShareBatch goroutines, so the callback must be safe for
	// concurrent use, and the order of invocations within an epoch is
	// scheduling-dependent (a reproducible store sequence requires a
	// single submitter).
	OnDecoded func(raw []byte, eventTime time.Time)
}

// QuerySpec registers one query with an aggregator, Params in force from
// epoch From on. A query tolerates one slide of lateness, bounds its
// errors at Config.Confidence and starts unshed (SetShed moves it).
type QuerySpec struct {
	Query  *query.Query
	Params budget.Params
	From   uint64
}

// rrLossRounds is the number of micro-benchmark rounds that estimate
// the randomized-response accuracy loss at one truthful fraction.
const rrLossRounds = 5

// BucketEstimate is the query result for one answer bucket.
type BucketEstimate struct {
	Label string
	// ObservedYes is Ry: raw randomized "Yes" responses in the window.
	ObservedYes int
	// Truthful is the RR-corrected count among the window's responses
	// (Ey, or En for inverted queries), clamped to [0, N].
	Truthful float64
	// Estimate is the population-scaled count with the combined
	// sampling + randomization margin.
	Estimate stats.ConfidenceInterval
}

// Result is one fired window of one query.
type Result struct {
	// Query identifies which query the window belongs to.
	Query      query.ID
	Window     stream.Window
	Responses  int // N: decoded answers in the window
	Population int // U
	Inverted   bool
	Buckets    []BucketEstimate
	// Shed is the overload shed threshold in force at the window's
	// closing epoch (1 = no shedding). The margins already reflect the
	// realized sample size; Shed documents *why* they widened.
	Shed float64
}

// Stats is a snapshot of the aggregator's message accounting. Decoded
// counts successfully demultiplexed answers; every other counter is a
// reason a message (or share) went no further, so the sum of drops is
// always observable — a demux bug shows up as UnknownQuery or
// LengthMismatch climbing, not as silence.
type Stats struct {
	// Decoded answers demultiplexed to their query (a Late one included).
	Decoded int64
	// Malformed joined messages that failed decryption or decoding, and
	// polled records that carry no share at all — a key that is not a
	// MID — which the drain skips (CountMalformed).
	Malformed int64
	// Duplicates are replayed shares rejected by the joiner (ageJoins).
	Duplicates int64
	// Late answers discarded behind their query's watermark.
	Late int64
	// Swept counts partial join groups that expired waiting for their
	// sibling shares: a share-level drop, not part of Dropped().
	Swept int64
	// UnknownQuery counts well-formed messages whose wire QueryID
	// matches no registered query (a stopped query's stragglers, or a
	// demux bug).
	UnknownQuery int64
	// LengthMismatch counts messages whose answer length does not match
	// their query's bucket count.
	LengthMismatch int64
	// Queries is the number of registered queries.
	Queries int
}

// Dropped returns the total number of discarded messages across every
// drop reason.
func (s Stats) Dropped() int64 {
	return s.Malformed + s.Duplicates + s.Late + s.UnknownQuery + s.LengthMismatch
}

// Aggregator processes share streams for any number of queries. It is
// safe for concurrent use: shares from any number of drain goroutines
// may be submitted at once. The join is one joiner under one lock,
// which a batch takes twice (join, recycle); decrypt and decode run on
// the caller's scratch, and each open pane accumulates under its own
// lock. Watermark advancement and window firing serialize per query,
// which keeps the sequence of fired results (and the rng each query's
// estimator consumes) deterministic under fixed seeds regardless of
// submission interleaving within an epoch.
type Aggregator struct {
	cfg Config

	// joinMu guards joiner, the share join of every query's messages.
	joinMu sync.Mutex
	joiner *stream.KeyedShareJoiner[xorcrypt.MID]

	// states is the registered-query table, copy-on-write so the demux
	// lookup on the submit hot path is one atomic load; stateMu
	// serializes mutations (AddQuery/RemoveQuery) and guards nextOrd.
	states  atomic.Pointer[stateTable]
	stateMu sync.Mutex
	nextOrd int

	malformed  atomic.Int64
	duplicates atomic.Int64
	unknownQID atomic.Int64 // decoded messages matching no registered query
	badLength  atomic.Int64 // messages whose answer length mismatched their query
	swept      atomic.Int64 // partial groups expired by rotation
	// A submit holds genMu shared from its first join to its last
	// observation; the joiner generations rotate under it exclusively.
	// sealedHigh (guarded by genMu) is the highest event time any query
	// had seen at the last rotation, ageDue that a watermark has moved
	// since (ageJoins).
	genMu      sync.RWMutex
	sealedHigh int64
	ageDue     atomic.Bool
	// through is the last epoch SubmitRound's caller has reached; parked
	// holds the decoded messages of later epochs, in arrival order, each
	// a copy of its plaintext slot (guarded by parkMu).
	through atomic.Uint64
	parkMu  sync.Mutex
	parked  [][]byte
	// removedDecoded/removedLate preserve a removed query's counters so
	// Stats never goes backwards across RemoveQuery.
	removedDecoded atomic.Int64
	removedLate    atomic.Int64

	// tracer, when set, receives join-stage spans and window-fire spans
	// (telemetry.go); nil costs the hot path one atomic load.
	tracer atomic.Pointer[telemetry.Tracer]
	// cards, when set, receives one provenance result card per fired
	// window (telemetry.go). Card assembly runs inside fireLocked —
	// already off the share hot path and already allocating for the
	// estimate — so the zero-alloc submit contract is untouched.
	cards atomic.Pointer[lineage.Recorder]
}

// stateTable is one immutable snapshot of the registered queries.
type stateTable struct {
	byWire  map[uint64]*queryState
	ordered []*queryState // registration order: the deterministic tie-break
	// single short-circuits the map lookup in the (common) one-query
	// case.
	single *queryState
	// maxWindow is the joiner's retain horizon: the longest window of
	// any registered query.
	maxWindow time.Duration
}

// queryState is everything per-query: open panes, watermark, firing,
// estimator. The shared join front-end routes decoded messages
// here by wire QueryID.
type queryState struct {
	q       *query.Query
	qidWire uint64
	// qname is the query ID rendered once at registration, so fire
	// spans and labeled telemetry samples never format on a hot path.
	qname    string
	nbuckets int
	// The estimator's per-query constants, compiled at registration like
	// the client's answer plan: the bucket labels rendered once (every
	// fired Result shares the strings), the inversion flag, and the
	// answer slots one client fills per window, Window/Frequency.
	labels   []string
	inverted bool
	slots    int
	ord      int // registration index, for deterministic result order
	assigner *stream.SlidingAssigner

	// paneMu guards the registry of open panes; accumulation inside a
	// pane goes through the pane's own lock, not this one.
	paneMu sync.RWMutex
	panes  map[int64]*pane // keyed by pane start UnixNano

	// fireMu serializes window firing so each window fires exactly once
	// and results come out in window-start order. It guards firedWM, the
	// watermark of the last fire but a flush (every window ending at or
	// below it has fired), and the fire's scratch. Lock order: fireMu
	// before paneMu before a pane's lock.
	fireMu  sync.Mutex
	firedWM int64
	sum     *answer.Accumulator
	firing  []*pane
	// wmMax is the maximum observed event time as UnixNano (wmUnseen
	// before any event); the watermark is wmMax − one slide. Kept atomic
	// so the add path never serializes on watermark reads.
	wmMax   atomic.Int64
	dropped atomic.Int64
	decoded atomic.Int64
	// firedThrough is the maximum window start (UnixNano) this query
	// has fired, wmUnseen before any fire. Checkpointed, so a restored
	// aggregator knows which windows' cards were already emitted.
	firedThrough atomic.Int64
	// cardsBelow suppresses card emission for windows starting at or
	// below it (wmUnseen = no suppression): set from a restored
	// checkpoint's firedThrough so re-fired windows do not produce
	// duplicate cards. The Recorder's own log-scan dedup covers windows
	// fired after the last checkpoint; this is the cheap first line.
	cardsBelow atomic.Int64

	// estMu guards the estimator's stream, memoized RR-loss cache and
	// entries (estimates normally run under fireMu; BatchAnalyze calls
	// the estimator directly). A window is estimated, and an entry
	// scheduled with the cache cleared, under it whole: one window sees
	// one parameter generation and only losses simulated under that
	// generation. The stream's 16-byte state and the cache (at most 100
	// entries) are all a checkpoint holds of the estimator, however long
	// it has run.
	estMu       sync.Mutex
	entries     []entry // by the epoch each is in force from; never empty
	src         *seeded.Source
	rng         *rand.Rand      // draws from src
	rrLossCache map[int]float64 // yes-fraction percent → simulated loss
}

// entry is the parameters and shed threshold a query's windows are
// estimated and stamped under from epoch from on.
type entry struct {
	from   uint64
	params *budget.Params
	shed   float64
}

// schedule puts params and shed in force from epoch from, replacing the
// newest entry when it starts there or later. Caller holds estMu.
func (st *queryState) schedule(from uint64, params *budget.Params, shed float64) {
	if n := len(st.entries); n > 0 && st.entries[n-1].from >= from {
		st.entries[n-1] = entry{st.entries[n-1].from, params, shed}
		return
	}
	st.entries = append(st.entries, entry{from, params, shed})
}

// inForce returns the entry in force at epoch e — the newest starting at
// or before it, else the first — and forgets those before it: windows
// close in the order they end. Caller holds estMu.
func (st *queryState) inForce(e uint64) entry {
	i := len(st.entries) - 1
	for i > 0 && st.entries[i].from > e {
		i--
	}
	if i > 0 {
		st.entries = append(st.entries[:0], st.entries[i:]...)
	}
	return st.entries[0]
}

// newest returns the entry scheduled last.
func (st *queryState) newest() entry {
	st.estMu.Lock()
	defer st.estMu.Unlock()
	return st.entries[len(st.entries)-1]
}

// pane is one pane of a query's event time (stream.SlidingAssigner)
// still accumulating answers: an answer folds into its pane once, and a
// fire sums a window's panes. mu guards acc and summed: a fire sets
// summed as it reads acc, so an add racing the fire either lands before
// the counts are read or is counted late — never silently lost. mu is
// innermost: nothing else is acquired while it is held.
type pane struct {
	start int64
	mu    sync.Mutex
	acc   *answer.Accumulator
	// summed: a window covering the pane has fired, or was behind the
	// watermark when the pane opened. Answers still land, for the
	// windows yet to fire, but count late.
	summed bool
}

// New validates the configuration and builds a single-query aggregator
// (Config.Query is required). Additional queries may still be added
// with AddQuery.
func New(cfg Config) (*Aggregator, error) {
	if cfg.Query == nil {
		return nil, fmt.Errorf("%w: nil query", ErrConfig)
	}
	return NewMulti(cfg)
}

// NewMulti builds an aggregator that may start with no queries at all:
// when cfg.Query is nil the aggregator accepts shares (joining and
// counting them) and registers queries dynamically via AddQuery.
func NewMulti(cfg Config) (*Aggregator, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("%w: population %d", ErrConfig, cfg.Population)
	}
	if cfg.Proxies < 2 {
		return nil, fmt.Errorf("%w: %d proxies", ErrConfig, cfg.Proxies)
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = 0.95
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		return nil, fmt.Errorf("%w: confidence %v", ErrConfig, cfg.Confidence)
	}
	if cfg.Seed == 0 {
		cfg.Seed = rand.Int63()
	}
	joiner, err := stream.NewKeyedShareJoiner[xorcrypt.MID](cfg.Proxies)
	if err != nil {
		return nil, err
	}
	a := &Aggregator{cfg: cfg, joiner: joiner}
	a.sealedHigh = wmUnseen
	a.through.Store(math.MaxUint64)
	a.states.Store(&stateTable{byWire: map[uint64]*queryState{}})
	if cfg.Query != nil {
		if err := a.AddQuery(QuerySpec{Query: cfg.Query, Params: cfg.Params}); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// AddQuery registers one query. Registering an ID that is already
// active schedules its new parameters from spec.From on (the feedback
// loop's redistribution path) without touching its windows or estimator
// state; registering a distinct ID whose 64-bit wire hash collides with
// an active query is rejected with ErrWireCollision — the wire QueryID
// is the demux key, so a collision would silently merge two queries'
// answers.
func (a *Aggregator) AddQuery(spec QuerySpec) error {
	if spec.Query == nil {
		return fmt.Errorf("%w: nil query", ErrConfig)
	}
	if err := spec.Query.Validate(); err != nil {
		return err
	}
	if err := spec.Params.Validate(); err != nil {
		return err
	}
	wire := spec.Query.QID.Uint64()

	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	old := a.states.Load()
	if st := old.byWire[wire]; st != nil {
		if st.q.QID != spec.Query.QID {
			return fmt.Errorf("%w: %s and %s both map to %#x",
				ErrWireCollision, st.q.QID, spec.Query.QID, wire)
		}
		// Parameter update: windows and the estimator keep running
		// undisturbed. The feedback controller only moves the sampling
		// fraction, but AddQuery is a public API — if the randomization
		// pair did change, the memoized RR-loss simulations are no longer
		// valid and must be redone.
		st.estMu.Lock()
		newest := st.entries[len(st.entries)-1]
		if newest.params.RR != spec.Params.RR {
			clear(st.rrLossCache)
		}
		st.schedule(spec.From, &spec.Params, newest.shed)
		st.estMu.Unlock()
		return nil
	}
	assigner, err := stream.NewSlidingAssigner(spec.Query.Window, spec.Query.Slide, a.cfg.Origin)
	if err != nil {
		return err
	}
	st := &queryState{
		q:        spec.Query,
		qidWire:  wire,
		qname:    spec.Query.QID.String(),
		nbuckets: len(spec.Query.Buckets),
		labels:   spec.Query.Buckets.Labels(),
		inverted: spec.Query.Inverted,
		slots:    max(1, int(spec.Query.Window/spec.Query.Frequency)),
		// ord comes from a monotonic counter, not len(ordered): after a
		// removal the next registration must still sort after every
		// earlier one in the (window start, registration order) result
		// order.
		ord:         a.nextOrd,
		assigner:    assigner,
		panes:       make(map[int64]*pane),
		firedWM:     wmUnseen,
		src:         seeded.NewSource(a.cfg.Seed),
		rrLossCache: make(map[int]float64),
		entries:     []entry{{spec.From, &spec.Params, 1}},
	}
	if st.sum, err = answer.NewAccumulator(st.nbuckets); err != nil {
		return err
	}
	st.rng = rand.New(st.src)
	a.nextOrd++
	st.wmMax.Store(wmUnseen)
	st.firedThrough.Store(wmUnseen)
	st.cardsBelow.Store(wmUnseen)
	a.swapStates(old, st, nil)
	return nil
}

// SetShed schedules a query's overload shed threshold ∈ (0, 1] from
// epoch from on, so the windows closing from then on report it (values
// outside the range normalize to 1). It touches no window or estimator
// state — the estimate is already realized-rate-aware — and is safe to
// call concurrently with firing.
func (a *Aggregator) SetShed(id query.ID, from uint64, shed float64) error {
	st := a.states.Load().byWire[id.Uint64()]
	if st == nil || st.q.QID != id {
		return fmt.Errorf("%w: %s", ErrUnknownQuery, id)
	}
	if !(shed > 0) || shed > 1 {
		shed = 1
	}
	st.estMu.Lock()
	st.schedule(from, st.entries[len(st.entries)-1].params, shed)
	st.estMu.Unlock()
	return nil
}

// RemoveQuery deregisters a query, flushing and returning its still-open
// windows. Shares of the query still in flight join as usual but then
// count under Stats.UnknownQuery.
func (a *Aggregator) RemoveQuery(id query.ID) ([]Result, error) {
	wire := id.Uint64()
	a.stateMu.Lock()
	old := a.states.Load()
	st := old.byWire[wire]
	if st == nil || st.q.QID != id {
		a.stateMu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownQuery, id)
	}
	a.swapStates(old, nil, st)
	a.stateMu.Unlock()

	// A submit in flight may have resolved st from the old table and not
	// yet reached its windows or its decoded count. It holds genMu shared
	// until it is done, so taking genMu once waits it out: everything it
	// adds to st lands before the flush and the fold below.
	a.genMu.Lock()
	a.genMu.Unlock()

	st.fireMu.Lock()
	res, err := a.fireLocked(st, true)
	st.fireMu.Unlock()
	// Fold the removed query's counters into the aggregator-level
	// totals so Stats never moves backwards.
	a.removedDecoded.Add(st.decoded.Load())
	a.removedLate.Add(st.dropped.Load())
	return res, err
}

// swapStates installs a new state table derived from old with add
// appended and/or del removed. Caller holds stateMu.
func (a *Aggregator) swapStates(old *stateTable, add, del *queryState) {
	next := &stateTable{byWire: make(map[uint64]*queryState, len(old.byWire)+1)}
	for _, st := range old.ordered {
		if st == del {
			continue
		}
		next.byWire[st.qidWire] = st
		next.ordered = append(next.ordered, st)
	}
	if add != nil {
		next.byWire[add.qidWire] = add
		next.ordered = append(next.ordered, add)
	}
	for _, st := range next.ordered {
		if st.q.Window > next.maxWindow {
			next.maxWindow = st.q.Window
		}
	}
	if len(next.ordered) == 1 {
		next.single = next.ordered[0]
	}
	a.states.Store(next)
}

// stateFor demultiplexes a wire QueryID to its per-query state, nil
// when no such query is registered. One atomic load plus (at most) one
// map lookup — allocation-free on the submit hot path.
func (a *Aggregator) stateFor(wire uint64) *queryState {
	t := a.states.Load()
	if s := t.single; s != nil && s.qidWire == wire {
		return s
	}
	return t.byWire[wire]
}

// ageJoins is the joiner's clock: event time, as the watermarks tell it.
// The generations rotate once every registered query's watermark has
// passed, by the retain horizon (the longest registered window), the
// highest event time any query had seen at the previous rotation. Every
// submit ends here, after releasing genMu, so a rotation runs with no
// submit in flight: a key in a current generation at rotation k carries
// an observed event time ≤ the mark sealed at k, and when rotation k+1
// forgets it a replay lands behind its query's watermark — Late, never
// in an open window (DESIGN §7). One call rotates at most once, and the
// first (of a restored aggregator too) only starts the clock. A query
// that has seen no event holds the rotation back; AdvanceTo moves it.
func (a *Aggregator) ageJoins() {
	if !a.ageDue.Swap(false) {
		return
	}
	a.genMu.Lock()
	defer a.genMu.Unlock()
	tbl := a.states.Load()
	if len(tbl.ordered) == 0 {
		return
	}
	slow, high := int64(math.MaxInt64), int64(wmUnseen)
	for _, st := range tbl.ordered {
		m := st.wmMax.Load()
		if m == wmUnseen {
			return
		}
		slow = min(slow, m-int64(st.q.Slide))
		high = max(high, m)
	}
	if a.sealedHigh != wmUnseen {
		if slow-int64(tbl.maxWindow) < a.sealedHigh {
			return
		}
		a.joinMu.Lock() // against PendingJoins and Checkpoint
		a.swept.Add(int64(a.joiner.Rotate()))
		a.joinMu.Unlock()
	}
	a.sealedHigh = high
}

// wmUnseen marks "no event observed yet"; it cannot collide with a
// real UnixNano (event times near the int64 minimum are out of range
// for the window arithmetic anyway).
const wmUnseen = math.MinInt64

// isLate, observe, and watermark implement the watermark over one
// atomic so the add path reads it without any lock: the watermark is
// the maximum observed event time − the lateness a query tolerates, one
// slide, and an event strictly before it is late.
func (st *queryState) isLate(t time.Time) bool {
	m := st.wmMax.Load()
	return m != wmUnseen && t.Before(time.Unix(0, m).Add(-st.q.Slide))
}

// observe reports whether the observation advanced the watermark; only
// an advance can close a window, so non-advancing callers skip the
// serialized fire path entirely.
func (st *queryState) observe(t time.Time) bool {
	n := t.UnixNano()
	for {
		m := st.wmMax.Load()
		if m != wmUnseen && n <= m {
			return false
		}
		if st.wmMax.CompareAndSwap(m, n) {
			return true
		}
	}
}

// watermark is the watermark as UnixNano, wmUnseen before any event.
func (st *queryState) watermark() int64 {
	m := st.wmMax.Load()
	if m == wmUnseen {
		return wmUnseen
	}
	return m - int64(st.q.Slide)
}

// paneFor returns the open pane starting at start, opening it if
// needed. It returns nil when every window covering the pane is behind
// the watermark, so a racing late answer can never reopen a pane whose
// windows have all fired.
func (a *Aggregator) paneFor(st *queryState, start int64) *pane {
	st.paneMu.RLock()
	p := st.panes[start]
	st.paneMu.RUnlock()
	if p != nil {
		return p
	}
	st.paneMu.Lock()
	defer st.paneMu.Unlock()
	if p := st.panes[start]; p != nil {
		return p
	}
	wm, size := st.watermark(), int64(st.q.Window)
	first, last := st.assigner.Covering(start)
	if last+size <= wm {
		return nil
	}
	acc, err := answer.NewAccumulator(st.nbuckets)
	if err != nil {
		return nil
	}
	p = &pane{start: start, acc: acc, summed: first+size <= wm}
	st.panes[start] = p
	return p
}

// sortedPanes returns the open panes, earliest first.
func (st *queryState) sortedPanes() []*pane {
	st.paneMu.RLock()
	defer st.paneMu.RUnlock()
	return slices.SortedFunc(maps.Values(st.panes), earlierPane)
}

func earlierPane(x, y *pane) int { return cmp.Compare(x.start, y.start) }

// add folds count answers laid out at stride in lane into the pane,
// reporting them late when the pane has been summed.
func (p *pane) add(lane []byte, stride, nbits, count int) (late bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.summed, p.acc.AddBatch(lane, stride, nbits, count)
}

// appendWindows appends, earliest first, the start of every window that
// covers one of panes (sorted by start) and has not fired — it ends
// above firedWM — and, unless all is set, ends at or below wm. Caller
// holds fireMu.
func (st *queryState) appendWindows(dst []int64, panes []*pane, wm int64, all bool) []int64 {
	size, slide := int64(st.q.Window), int64(st.q.Slide)
	next := int64(math.MinInt64) // the first start not yet considered
	for _, p := range panes {
		first, last := st.assigner.Covering(p.start)
		for s := max(first, next); s <= last; s += slide {
			if end := s + size; end > st.firedWM && (all || end <= wm) {
				dst = append(dst, s)
			}
		}
		next = max(next, last+slide)
	}
	return dst
}

// fireLocked fires every window of one query behind its watermark (every
// unfired window covering an open pane when flush is set), earliest
// first, each estimated from the sum of its panes; the panes no unfired
// window covers leave the registry (all of them on a flush). Caller
// holds st.fireMu.
func (a *Aggregator) fireLocked(st *queryState, flush bool) ([]Result, error) {
	wm, size := st.watermark(), int64(st.q.Window)
	if !flush && wm <= st.firedWM {
		return nil, nil
	}
	st.paneMu.Lock()
	panes := st.firing[:0]
	for start, p := range st.panes {
		panes = append(panes, p)
		if _, last := st.assigner.Covering(start); flush || last+size <= wm {
			delete(st.panes, start)
		}
	}
	st.paneMu.Unlock()
	slices.SortFunc(panes, earlierPane)
	// One watermark step fires one window of a sliding query, so the
	// usual fire keeps its list on the stack.
	var few [4]int64
	starts := st.appendWindows(few[:0], panes, wm, flush)
	if !flush {
		st.firedWM = wm
	}
	tr := a.tracer.Load()
	rec := a.cards.Load()
	var out []Result
	lo := 0 // the first pane not before the window
	for _, start := range starts {
		var t0 time.Time
		if tr != nil || rec != nil {
			t0 = time.Now()
		}
		st.sum.Reset()
		for lo < len(panes) && panes[lo].start < start {
			lo++
		}
		for _, p := range panes[lo:] {
			if p.start >= start+size {
				break
			}
			p.mu.Lock()
			p.summed = true
			err := st.sum.Merge(p.acc)
			p.mu.Unlock()
			if err != nil {
				return nil, err
			}
		}
		w := stream.Window{Start: time.Unix(0, start), End: time.Unix(0, start+size)}
		res, params, err := a.estimate(st, w, st.sum, a.cfg.Population*st.slots)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make([]Result, 0, len(starts))
		}
		out = append(out, res)
		if tr != nil {
			tr.RecordFire(telemetry.FireSpan{
				Epoch:       tr.Epoch(),
				Query:       st.qname,
				WindowStart: start,
				WindowEnd:   start + size,
				Responses:   int64(res.Responses),
				Lag:         time.Unix(0, wm).Sub(w.End),
				Dur:         time.Since(t0),
			})
		}
		if ft := st.firedThrough.Load(); ft == wmUnseen || start > ft {
			st.firedThrough.Store(start)
		}
		if rec != nil {
			a.emitCard(rec, st, params, res, time.Since(t0))
		}
	}
	clear(panes) // the closed panes are garbage once the fire is done
	st.firing = panes[:0]
	return out, nil
}

// emitCard assembles the provenance result card for one fired window
// and hands it to the recorder; params is the generation the window was
// estimated under. Runs under fireMu at fire cadence; the recorder fills
// in stamp-derived latency and stage legs and performs its own
// exactly-once dedup against the card log.
func (a *Aggregator) emitCard(rec *lineage.Recorder, st *queryState, params *budget.Params, res Result, dur time.Duration) {
	start, end := res.Window.Start.UnixNano(), res.Window.End.UnixNano()
	if below := st.cardsBelow.Load(); below != wmUnseen && start <= below {
		return
	}
	eps, err := params.EpsilonZK()
	if err != nil {
		eps = -1 // params were validated at registration; defensive only
	}
	width := RelativeWidth(res)
	c := lineage.Card{
		Query:       st.qname,
		WindowStart: start,
		WindowEnd:   end,
		Responses:   res.Responses,
		Population:  res.Population,
		Fraction:    lineage.JSONFloat(params.S),
		Shed:        lineage.JSONFloat(res.Shed),
		CIWidth:     lineage.JSONFloat(width),
		EpsilonZK:   lineage.JSONFloat(eps),
		// Duplicates/Malformed are aggregator-cumulative snapshots at
		// fire time (per-window attribution is impossible: a duplicate
		// share or undecodable message reveals no window). Zero in clean
		// runs; a nonzero value flags *some* window at or before this one.
		Duplicates: a.duplicates.Load(),
		Malformed:  a.malformed.Load(),
		FiredAtNs:  time.Now().UnixNano(),
		FireDurNs:  int64(dur),
	}
	if res.Population > 0 {
		c.Realized = lineage.JSONFloat(float64(res.Responses) / float64(res.Population))
	}
	if first, last, ok := lineage.EpochRange(a.cfg.Origin.UnixNano(), int64(st.q.Frequency), start, end); ok {
		c.EpochFirst, c.EpochLast = first, last
	}
	rec.EmitCard(c)
}

// AdvanceTo moves every query's watermark forward (e.g. on an epoch
// timer) and returns any windows that close, ordered by window start
// with registration order breaking ties. It is also what ages the join
// state of an idle stream (ageJoins): O(open windows), however
// many messages have been joined.
func (a *Aggregator) AdvanceTo(t time.Time) ([]Result, error) {
	tbl := a.states.Load()
	var out []Result
	for _, st := range tbl.ordered {
		st.fireMu.Lock()
		if st.observe(t) {
			a.ageDue.Store(true)
		}
		res, err := a.fireLocked(st, false)
		st.fireMu.Unlock()
		if err != nil {
			return out, err
		}
		out = extend(out, res)
	}
	a.ageJoins()
	SortResults(out, tbl.orderOf)
	return out, nil
}

// Flush closes all open windows of every query at end of stream,
// ordered by window start with registration order breaking ties.
func (a *Aggregator) Flush() ([]Result, error) {
	tbl := a.states.Load()
	var out []Result
	for _, st := range tbl.ordered {
		st.fireMu.Lock()
		res, err := a.fireLocked(st, true)
		st.fireMu.Unlock()
		if err != nil {
			return out, err
		}
		out = extend(out, res)
	}
	SortResults(out, tbl.orderOf)
	return out, nil
}

// extend appends one query's fired windows to the merged list, adopting
// the first list as it is: the single-query fire copies nothing.
func extend(out, res []Result) []Result {
	if len(out) == 0 {
		return res
	}
	return append(out, res...)
}

// orderOf maps a query ID to its registration index (unknown queries
// sort last, by ID string).
func (t *stateTable) orderOf(id query.ID) int {
	if st := t.byWire[id.Uint64()]; st != nil && st.q.QID == id {
		return st.ord
	}
	return int(^uint(0) >> 1)
}

// SortResults orders results by window start, breaking ties with the
// query order function (nil falls back to the ID's textual order) —
// the canonical deterministic result order every drain path sorts
// into.
func SortResults(res []Result, order func(query.ID) int) {
	slices.SortStableFunc(res, func(x, y Result) int {
		if c := x.Window.Start.Compare(y.Window.Start); c != 0 || x.Query == y.Query {
			return c
		}
		if order != nil {
			if c := cmp.Compare(order(x.Query), order(y.Query)); c != 0 {
				return c
			}
		}
		return strings.Compare(x.Query.String(), y.Query.String())
	})
}

// QueryOrder returns the aggregator's registration-order function for
// SortResults, so external drains sort fired windows exactly like
// Flush/AdvanceTo do.
func (a *Aggregator) QueryOrder() func(query.ID) int {
	return a.states.Load().orderOf
}

// ByQuery splits a merged result stream into per-query streams,
// preserving order.
func ByQuery(results []Result) map[query.ID][]Result {
	out := make(map[query.ID][]Result)
	for _, r := range results {
		out[r.Query] = append(out[r.Query], r)
	}
	return out
}

// Stats returns a snapshot of the aggregator's message accounting.
func (a *Aggregator) Stats() Stats {
	tbl := a.states.Load()
	s := Stats{
		Decoded:        a.removedDecoded.Load(),
		Malformed:      a.malformed.Load(),
		Duplicates:     a.duplicates.Load(),
		Late:           a.removedLate.Load(),
		UnknownQuery:   a.unknownQID.Load(),
		LengthMismatch: a.badLength.Load(),
		Swept:          a.swept.Load(),
		Queries:        len(tbl.ordered),
	}
	for _, st := range tbl.ordered {
		s.Decoded += st.decoded.Load()
		s.Late += st.dropped.Load()
	}
	return s
}

// CountMalformed counts n polled records that carry no share — their key
// is not a MID — as Malformed: a drain skips them, and the count is the
// trace they leave.
func (a *Aggregator) CountMalformed(n int) { a.malformed.Add(int64(n)) }

// PendingJoins returns the number of messages waiting for shares.
func (a *Aggregator) PendingJoins() int {
	pending, _ := a.joinCounts()
	return pending
}

// joinCounts returns the messages waiting for shares and the completed
// message IDs remembered to refuse their replays.
func (a *Aggregator) joinCounts() (pending, completed int) {
	a.joinMu.Lock()
	defer a.joinMu.Unlock()
	return a.joiner.PendingCount(), a.joiner.CompletedCount()
}

// OpenWindows returns the number of windows still accumulating across
// all queries: the windows not yet fired that cover an open pane. It is
// counted here, off the submit path.
func (a *Aggregator) OpenWindows() int {
	n := 0
	for _, st := range a.states.Load().ordered {
		st.fireMu.Lock()
		n += len(st.appendWindows(nil, st.sortedPanes(), 0, true))
		st.fireMu.Unlock()
	}
	return n
}

// estimate turns a window's accumulated randomized answers into the
// paper's queryResult ± errorBound (§3.2.4) under the entry in force at
// its closing epoch ⌈(End + Slide − Origin)/Frequency⌉, the first whose
// answers push the watermark past its end, and returns the parameter
// generation it used. The SRS population is measured in answer slots:
// every client produces one answer per epoch, so a window spanning k
// epochs draws from U×k potential answers (effPopulation).
//
// What the window fixes is computed once — N, the population, one
// snapshot of the parameters and the SRS estimator with its Student-t
// critical value, which depends on (confidence, N − 1) and on no bucket
// — and the buckets run through plain arithmetic.
func (a *Aggregator) estimate(st *queryState, w stream.Window, acc *answer.Accumulator, effPopulation int) (Result, *budget.Params, error) {
	n := acc.N()
	if effPopulation < n {
		// More answers than slots (e.g. replayed epochs): treat the
		// observed set as the whole population.
		effPopulation = n
	}
	res := Result{
		Query:      st.q.QID,
		Window:     w,
		Responses:  n,
		Population: effPopulation,
		Inverted:   st.inverted,
		Buckets:    make([]BucketEstimate, st.nbuckets),
	}
	closing := uint64(0)
	if d := w.End.Add(st.q.Slide).Sub(a.cfg.Origin); d > 0 {
		closing = uint64((d + st.q.Frequency - 1) / st.q.Frequency)
	}
	st.estMu.Lock()
	defer st.estMu.Unlock()
	in := st.inForce(closing)
	params := in.params
	res.Shed = in.shed
	if n == 0 {
		for i := range res.Buckets {
			res.Buckets[i] = BucketEstimate{
				Label:       st.labels[i],
				ObservedYes: acc.Yes(i),
				Estimate:    stats.ConfidenceInterval{Confidence: a.cfg.Confidence, Margin: math.Inf(1)},
			}
		}
		return res, params, nil
	}
	srs, err := sampling.NewSRS(n, effPopulation, a.cfg.Confidence)
	if err != nil {
		return Result{}, nil, err
	}
	lossParams := params.RR
	if st.inverted {
		// The inverted query estimates the "No" side: simulate its loss.
		lossParams = lossParams.Invert()
	}
	for i := range res.Buckets {
		yes := acc.Yes(i)
		// Randomized-response correction (Eq. 5), inverted when the
		// analyst flipped the query (§3.3.2).
		truthful, err := estimateYesForWindow(params.RR, st.inverted, yes, n)
		if err != nil {
			return Result{}, nil, err
		}
		truthful = clamp(truthful, 0, float64(n))

		// Sampling scale-up and margin (Eq. 2–4) over the corrected
		// window counts.
		scaled, err := srs.Count(int(math.Round(truthful)))
		if err != nil {
			return Result{}, nil, err
		}
		// Randomization margin: simulated accuracy loss at this bucket's
		// truthful fraction (the paper's micro-benchmark method).
		rrLoss, err := a.rrLoss(st, lossParams, truthful/float64(n), n)
		if err != nil {
			return Result{}, nil, err
		}
		res.Buckets[i] = BucketEstimate{
			Label:       st.labels[i],
			ObservedYes: yes,
			Truthful:    truthful,
			Estimate: stats.ConfidenceInterval{
				Estimate:   scaled.Sum,
				Margin:     scaled.Margin + rrLoss*scaled.Sum,
				Confidence: a.cfg.Confidence,
			},
		}
	}
	return res, params, nil
}

// rrLoss estimates the randomized-response accuracy loss at a truthful
// fraction via simulation under params (the window's pair, inversion
// applied), memoized on the fraction percent. Caller holds st.estMu.
func (a *Aggregator) rrLoss(st *queryState, params rr.Params, fraction float64, n int) (float64, error) {
	if fraction <= 0 {
		return 0, nil
	}
	pct := int(math.Round(fraction * 100))
	if pct == 0 {
		pct = 1
	}
	if loss, ok := st.rrLossCache[pct]; ok {
		return loss, nil
	}
	simN := n
	if simN > 10000 {
		simN = 10000
	}
	if simN < 100 {
		simN = 100
	}
	loss, err := rr.SimulateAccuracyLoss(params, float64(pct)/100, simN, rrLossRounds, st.rng)
	if err != nil {
		return 0, err
	}
	st.rrLossCache[pct] = loss
	return loss, nil
}

// RelativeWidth is the feedback signal for the budget controller: the
// mean over buckets of margin/estimate, skipping empty buckets.
func RelativeWidth(res Result) float64 {
	var sum float64
	var k int
	for _, b := range res.Buckets {
		if b.Estimate.Estimate <= 0 || math.IsInf(b.Estimate.Margin, 1) {
			continue
		}
		sum += b.Estimate.Margin / b.Estimate.Estimate
		k++
	}
	if k == 0 {
		return math.Inf(1)
	}
	return sum / float64(k)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
