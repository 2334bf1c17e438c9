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
// revealed by the wire QueryID after decryption — so the sharded join
// front-end is shared, and everything after decode (windows, watermark,
// firing, estimation, budgets) lives in per-query state demultiplexed
// by the wire QueryID. Queries can be added and removed while shares
// are in flight; messages for unknown queries and messages whose answer
// length does not match their query are counted per shard and surfaced
// through Stats, never silently discarded.
package aggregator

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// Config assembles an aggregator. Query/Params/Seed describe the first
// query (optional for NewMulti; further queries arrive via AddQuery);
// everything else is shared across queries.
type Config struct {
	Query      *query.Query
	Params     budget.Params
	Population int // U: number of subscribed clients
	Proxies    int // n: shares per message
	// Origin anchors epoch numbers to event time: event time of epoch e
	// is Origin + e×Frequency (per query).
	Origin time.Time
	// Confidence for the error bound; defaults to 0.95.
	Confidence float64
	// Lateness tolerated before records are dropped; defaults to one
	// slide interval (per query).
	Lateness time.Duration
	// RRLossRounds is the number of micro-benchmark rounds used to
	// estimate the randomized-response accuracy loss; defaults to 5.
	RRLossRounds int
	// Seed makes the RR-loss micro-benchmark deterministic; 0 draws a
	// random seed. Each query registered through AddQuery may override
	// it, so a query produces the same estimator stream whether it runs
	// alone or among others.
	Seed int64
	// Shards splits the share-join map and the per-window accumulators
	// into independently locked shards keyed by message-ID hash, so
	// SubmitShare from concurrent drain goroutines scales instead of
	// serializing on one lock. Defaults to GOMAXPROCS. Results and
	// counters are identical for every shard count: per-bucket counts
	// are integer sums, so the merged window state does not depend on
	// how messages were distributed over shards.
	Shards int
	// OnDecoded, when set, receives every decoded answer message (its
	// wire bytes and event time) — the hook the historical store uses
	// (§3.3.1). It may be invoked concurrently from multiple
	// SubmitShare goroutines, so the callback must be safe for
	// concurrent use, and the order of invocations within an epoch is
	// scheduling-dependent (a reproducible store sequence requires a
	// single submitter).
	OnDecoded func(raw []byte, eventTime time.Time)
}

// QuerySpec registers one query with an aggregator.
type QuerySpec struct {
	Query  *query.Query
	Params budget.Params
	// Seed for the query's estimator randomness; 0 inherits Config.Seed.
	Seed int64
	// Lateness tolerated for this query; 0 defaults to the query slide.
	Lateness time.Duration
	// Confidence for this query's error bounds; 0 inherits the
	// aggregator default.
	Confidence float64
	// Shed is the overload shed threshold ∈ (0, 1] the estimator should
	// report with fired windows; 0 means "leave unchanged" (new queries
	// start at 1, no shedding). The estimate itself needs no correction —
	// the SRS scale-up uses the *observed* sample size, so shedding
	// shows up as honestly wider margins, not bias — but results carry
	// the threshold so consumers can see approximation being spent.
	Shed float64
}

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
	// Shed is the overload shed threshold in effect when the window
	// fired (1 = no shedding). The margins already reflect the realized
	// sample size; Shed documents *why* they widened.
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
	// Malformed joined messages that failed decryption or decoding.
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
// may be submitted at once. The hot path — join, decrypt, decode,
// demux, window accumulation — is sharded by message-ID hash with
// per-shard locks; only watermark advancement and window firing (per
// query) serialize, which keeps the sequence of fired results (and the
// rng each query's estimator consumes) deterministic under fixed seeds
// regardless of submission interleaving within an epoch.
type Aggregator struct {
	cfg    Config
	shards []joinShard

	// states is the registered-query table, copy-on-write so the demux
	// lookup on the submit hot path is one atomic load; stateMu
	// serializes mutations (AddQuery/RemoveQuery) and guards nextOrd.
	states  atomic.Pointer[stateTable]
	stateMu sync.Mutex
	nextOrd int

	malformed  atomic.Int64
	duplicates atomic.Int64
	// A submit holds genMu shared from its first join to its last
	// observation; the joiner generations rotate under it exclusively.
	// sealedHigh (guarded by genMu) is the highest event time any query
	// had seen at the last rotation, ageDue that a watermark has moved
	// since (ageJoins).
	genMu      sync.RWMutex
	sealedHigh int64
	ageDue     atomic.Bool
	// removedDecoded/removedLate preserve a removed query's counters so
	// Decoded()/Dropped()/Stats() never go backwards across RemoveQuery.
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

// queryState is everything per-query: window registry, watermark,
// firing, estimator. The shared join front-end routes decoded messages
// here by wire QueryID.
type queryState struct {
	q *query.Query
	// params is swapped atomically by AddQuery's in-place parameter
	// update while drain goroutines read it during estimation, so the
	// multi-word struct is held behind a pointer.
	params     atomic.Pointer[budget.Params]
	lateness   time.Duration
	confidence float64
	qidWire    uint64
	// qname is the query ID rendered once at registration, so fire
	// spans and labeled telemetry samples never format on a hot path.
	qname    string
	nbuckets int
	// With confidence, the estimator's per-query constants, compiled at
	// registration like the client's answer plan: the bucket labels
	// rendered once (every fired Result shares the strings), the
	// inversion flag, and the answer slots one client fills per window,
	// Window/Frequency.
	labels   []string
	inverted bool
	slots    int
	ord      int   // registration index, for deterministic result order
	seed     int64 // effective estimator seed, recorded for checkpoint verification
	assigner *stream.SlidingAssigner

	// winMu guards the registry of open windows; accumulation inside a
	// window goes through the sharded accumulator, not this lock.
	winMu   sync.RWMutex
	windows map[int64]*openWindow // keyed by window start UnixNano

	// fireMu serializes window firing so each window fires exactly once
	// and results come out in window-start order. Lock order: fireMu
	// before winMu.
	fireMu sync.Mutex
	// wmMax is the maximum observed event time as UnixNano (wmUnseen
	// before any event); the watermark is wmMax − lateness. Kept atomic
	// so the sharded add path never serializes on watermark reads.
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
	// lateMu guards lateByWin: late answers attributed to the windows
	// they would have joined, drained into each window's card at fire
	// time and pruned for windows already fired.
	lateMu    sync.Mutex
	lateByWin map[int64]int64
	// shedBits is the current shed threshold as Float64bits, atomic so
	// the SLO controller can move it while windows fire. Zero (never
	// stored) reads as 1.
	shedBits atomic.Uint64

	// estMu guards the estimator's rng and memoized RR-loss cache
	// (estimates normally run under fireMu; BatchAnalyze calls the
	// estimator directly). A window is estimated, and params swapped with
	// the cache cleared, under it whole: one window sees one parameter
	// generation and only losses simulated under that generation.
	estMu       sync.Mutex
	rng         *rand.Rand
	rrLossCache map[int]float64 // yes-fraction percent → simulated loss
	// estLog records every rng-consuming estimator event (simulation
	// calls and cache clears) in order. The rng's internal state cannot
	// be serialized, so a checkpoint stores this log instead and Restore
	// replays it against a freshly seeded rng — reproducing both the
	// memoized cache and the exact rng position. Guarded by estMu.
	//
	// The log grows for the life of the query — bounded by ~100 cache
	// misses per randomization-parameter generation plus one clear per
	// retune — so checkpoints of a long-lived, frequently retuned query
	// grow with its history. Compacting (recording raw draw counts
	// instead of simulation inputs) would cap this at the cost of a
	// format change; revisit if retune-heavy deployments appear.
	estLog []estEvent
}

// estEvent is one entry of the estimator replay log: either a cache
// clear (a randomization-parameter change invalidated the memoized
// losses) or one SimulateAccuracyLoss call with the inputs it was made
// with and the loss it produced (re-verified on restore).
type estEvent struct {
	clear  bool
	pct    int
	params rr.Params // as passed to the simulation (inversion applied)
	frac   float64
	simN   int
	rounds int
	loss   float64
}

// joinShard is one lock's worth of share-join state plus the scratch
// buffers the join → decrypt → decode tail reuses across messages, and
// the per-shard demux drop counters (plain ints — they are only touched
// under mu). All scratch is touched only under mu (SubmitShare holds
// the shard lock through ingest), so buffers never alias across
// concurrent messages; the struct is padded to a cache-line multiple so
// adjacent shard locks do not false-share (the size check pins this).
type joinShard struct {
	mu         sync.Mutex
	joiner     *stream.KeyedShareJoiner[xorcrypt.MID]
	plain      []byte           // reusable XOR-joined plaintext
	vec        answer.BitVector // reusable zero-copy decode view
	msg        answer.Message
	wins       []stream.Window // reusable window-assignment scratch
	unknownQID int64           // decoded messages matching no registered query
	badLength  int64           // messages whose answer length mismatched their query
	swept      int64           // partial groups expired by rotation
	_          [48]byte        // pad to a cache-line multiple
}

// openWindow is one window still accumulating answers.
type openWindow struct {
	window stream.Window
	acc    *answer.ShardedAccumulator
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
	if cfg.RRLossRounds == 0 {
		cfg.RRLossRounds = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = rand.Int63()
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: %d shards", ErrConfig, cfg.Shards)
	}
	shards := make([]joinShard, cfg.Shards)
	for i := range shards {
		joiner, err := stream.NewKeyedShareJoiner[xorcrypt.MID](cfg.Proxies)
		if err != nil {
			return nil, err
		}
		shards[i].joiner = joiner
	}
	a := &Aggregator{cfg: cfg, shards: shards}
	a.sealedHigh = wmUnseen
	a.states.Store(&stateTable{byWire: map[uint64]*queryState{}})
	if cfg.Query != nil {
		if err := a.AddQuery(QuerySpec{
			Query:      cfg.Query,
			Params:     cfg.Params,
			Seed:       cfg.Seed,
			Lateness:   cfg.Lateness,
			Confidence: cfg.Confidence,
		}); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// AddQuery registers one query. Registering an ID that is already
// active swaps its parameters in place (the feedback loop's
// redistribution path) without touching its windows or estimator
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
	if spec.Seed == 0 {
		spec.Seed = a.cfg.Seed
	}
	if spec.Lateness == 0 {
		spec.Lateness = spec.Query.Slide
	}
	if spec.Confidence == 0 {
		spec.Confidence = a.cfg.Confidence
	}
	if spec.Confidence <= 0 || spec.Confidence >= 1 {
		return fmt.Errorf("%w: confidence %v", ErrConfig, spec.Confidence)
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
		// Parameter update in place: windows and the estimator keep
		// running undisturbed. The feedback controller only moves the
		// sampling fraction, but AddQuery is a public API — if the
		// randomization pair did change, the memoized RR-loss
		// simulations are no longer valid and must be redone.
		st.estMu.Lock()
		if prev := st.params.Swap(&spec.Params); prev.RR != spec.Params.RR {
			clear(st.rrLossCache)
			st.estLog = append(st.estLog, estEvent{clear: true})
		}
		st.estMu.Unlock()
		if spec.Shed != 0 {
			st.storeShed(spec.Shed)
		}
		return nil
	}
	assigner, err := stream.NewSlidingAssignerAt(spec.Query.Window, spec.Query.Slide, a.cfg.Origin)
	if err != nil {
		return err
	}
	st := &queryState{
		q:          spec.Query,
		lateness:   spec.Lateness,
		confidence: spec.Confidence,
		qidWire:    wire,
		qname:      spec.Query.QID.String(),
		nbuckets:   len(spec.Query.Buckets),
		labels:     spec.Query.Buckets.Labels(),
		inverted:   spec.Query.Inverted,
		slots:      max(1, int(spec.Query.Window/spec.Query.Frequency)),
		// ord comes from a monotonic counter, not len(ordered): after a
		// removal the next registration must still sort after every
		// earlier one in the (window start, registration order) result
		// order.
		ord:         a.nextOrd,
		seed:        spec.Seed,
		assigner:    assigner,
		windows:     make(map[int64]*openWindow),
		rng:         seeded.New(spec.Seed),
		rrLossCache: make(map[int]float64),
		lateByWin:   make(map[int64]int64),
	}
	a.nextOrd++
	st.params.Store(&spec.Params)
	st.wmMax.Store(wmUnseen)
	st.firedThrough.Store(wmUnseen)
	st.cardsBelow.Store(wmUnseen)
	st.storeShed(spec.Shed)
	a.swapStates(old, st, nil)
	return nil
}

// storeShed normalizes and records a query's shed threshold.
func (st *queryState) storeShed(shed float64) {
	if !(shed > 0) || shed > 1 {
		shed = 1
	}
	st.shedBits.Store(math.Float64bits(shed))
}

// loadShed returns the query's current shed threshold (1 = unshed).
func (st *queryState) loadShed() float64 {
	bits := st.shedBits.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// SetShed records a query's overload shed threshold ∈ (0, 1] so
// subsequently fired windows report it (values outside the range
// normalize to 1). It touches no window or estimator state — the
// estimate is already realized-rate-aware — and is safe to call
// concurrently with firing.
func (a *Aggregator) SetShed(id query.ID, shed float64) error {
	st := a.states.Load().byWire[id.Uint64()]
	if st == nil || st.q.QID != id {
		return fmt.Errorf("%w: %s", ErrUnknownQuery, id)
	}
	st.storeShed(shed)
	return nil
}

// Shed returns a query's current shed threshold.
func (a *Aggregator) Shed(id query.ID) (float64, error) {
	st := a.states.Load().byWire[id.Uint64()]
	if st == nil || st.q.QID != id {
		return 0, fmt.Errorf("%w: %s", ErrUnknownQuery, id)
	}
	return st.loadShed(), nil
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

	st.fireMu.Lock()
	res, err := a.fireLocked(st, true)
	st.fireMu.Unlock()
	// Fold the removed query's counters into the aggregator-level
	// totals so Decoded()/Dropped()/Stats() never move backwards.
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

// ActiveQueries returns the registered query IDs in registration order.
func (a *Aggregator) ActiveQueries() []query.ID {
	t := a.states.Load()
	out := make([]query.ID, len(t.ordered))
	for i, st := range t.ordered {
		out[i] = st.q.QID
	}
	return out
}

// Shards returns the configured shard count.
func (a *Aggregator) Shards() int { return len(a.shards) }

// shardOf routes a message ID to its shard; all shares of one message
// land on the same shard, so each join group lives under exactly one
// lock. FNV-1a is inlined — hash.Hash32 would allocate per share on
// the hot path.
func (a *Aggregator) shardOf(mid xorcrypt.MID) int {
	if len(a.shards) == 1 {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range mid {
		h ^= uint32(b)
		h *= prime32
	}
	return int(h % uint32(len(a.shards)))
}

// SubmitShare folds in one share from proxy stream source (0 ≤ source <
// Proxies). When the share completes a message, the message is
// decrypted, decoded, demultiplexed to its query, and assigned to that
// query's windows; any windows closed by the advancing watermark are
// returned as results.
//
// SubmitShare borrows share.Payload for the call: a share that has to
// wait for its siblings is copied into the joiner's pooled group, and
// one that completes a message is consumed before SubmitShare returns.
// The caller may reuse the payload's backing bytes — a split scratch, a
// fetch buffer — as soon as the call is back.
//
// The arrival time is not used — join state ages on event time alone
// (ageJoins) — and stays for the callers that pass it.
func (a *Aggregator) SubmitShare(share xorcrypt.Share, source int, _ time.Time) ([]Result, error) {
	shard := a.shardOf(share.MID)
	js := &a.shards[shard]
	a.genMu.RLock()
	js.mu.Lock()
	res, err := a.submitLocked(js, share, source, shard)
	js.mu.Unlock()
	a.genMu.RUnlock()
	a.ageJoins()
	return res, err
}

// submitLocked runs the join → decrypt → decode → demux → accumulate
// tail under the shard lock so the shard-owned scratch (pooled join
// group, joined plaintext, decode view, window slice) is reused across
// messages without ever being shared between goroutines. The caller
// holds js.mu.
//
// Lock order: js.mu may be taken before a query's fireMu (via ingest);
// nothing acquires a shard lock while holding fireMu or winMu, so the
// order is acyclic.
func (a *Aggregator) submitLocked(js *joinShard, share xorcrypt.Share, source int, shard int) ([]Result, error) {
	joined, err := js.joiner.Add(share.MID, source, share.Payload)
	if err != nil {
		if errors.Is(err, stream.ErrDuplicate) {
			a.duplicates.Add(1)
			return nil, nil
		}
		return nil, err
	}
	if joined == nil {
		return nil, nil
	}
	// The group's payloads are consumed by the XOR join right here, so
	// the group can go straight back to the joiner's pool.
	plain, err := xorcrypt.JoinPayloadsInto(js.plain[:0], joined.Payloads)
	js.joiner.Recycle(joined)
	if plain != nil {
		js.plain = plain
	}
	if err != nil {
		a.malformed.Add(1)
		return nil, nil
	}
	if err := js.msg.UnmarshalBinaryView(plain, &js.vec); err != nil {
		a.malformed.Add(1)
		return nil, nil
	}
	msg := &js.msg
	st := a.stateFor(msg.QueryID)
	if st == nil {
		js.unknownQID++
		return nil, nil
	}
	if msg.Answer.Len() != st.nbuckets {
		js.badLength++
		return nil, nil
	}
	st.decoded.Add(1)
	eventTime := a.cfg.Origin.Add(time.Duration(msg.Epoch) * st.q.Frequency)
	if a.cfg.OnDecoded != nil {
		// Ownership contract: plain is shard scratch, valid only for
		// the duration of the callback — the hook must copy what it
		// keeps (histstore.Append serializes into its own buffer).
		a.cfg.OnDecoded(plain, eventTime)
	}
	return a.ingest(js, st, eventTime, msg.Answer, shard)
}

// ingest assigns one decoded answer to its query's windows and advances
// that query's watermark, firing any windows the advance closes. Only
// an observation that actually moves the watermark takes the fire path
// — within an epoch all event times of one query are equal, so the
// drain goroutines run the sharded adds without ever touching fireMu.
//
// ingest/isLate/observe/fireLocked intentionally fork the windowing
// semantics of stream.WindowedOp + stream.WatermarkTracker (watermark =
// max event time − lateness, strict-Before late check, fire on window
// End ≤ watermark, start-ordered results) into this sharded,
// concurrency-safe form; the stream package keeps the generic
// single-threaded operator. A semantic change to either must be made in
// both.
func (a *Aggregator) ingest(js *joinShard, st *queryState, eventTime time.Time, vec *answer.BitVector, shard int) ([]Result, error) {
	if st.isLate(eventTime) {
		// A late event can never advance the watermark, so nothing can
		// fire on its account. With the provenance plane attached, charge
		// the drop to the window(s) the answer would have joined so their
		// cards carry per-window late counts.
		st.dropped.Add(1)
		if a.cards.Load() != nil {
			js.wins = st.assigner.AppendWindowsFor(js.wins[:0], eventTime)
			st.lateMu.Lock()
			for _, w := range js.wins {
				st.lateByWin[w.Start.UnixNano()]++
			}
			st.lateMu.Unlock()
		}
		return nil, nil
	}

	refused := false
	js.wins = st.assigner.AppendWindowsFor(js.wins[:0], eventTime)
	for _, w := range js.wins {
		ow := a.openWindowFor(st, w)
		if ow == nil {
			// The window fired while we raced to it; the answer is by
			// definition late there.
			refused = true
			continue
		}
		if err := ow.acc.Add(shard, vec); err != nil {
			// ErrClosed: the window fired between our lookup and the
			// add — late, same as above. (Size mismatches were filtered
			// at decode time.)
			if errors.Is(err, answer.ErrClosed) {
				refused = true
			}
		}
	}
	if refused {
		// Count per answer, not per window: an answer racing a fire may
		// be refused by several of its sliding windows (and in rare
		// interleavings still land in others), but it is one discarded
		// answer.
		st.dropped.Add(1)
	}

	if !st.observe(eventTime) {
		return nil, nil
	}
	a.ageDue.Store(true)
	st.fireMu.Lock()
	res, err := a.fireLocked(st, false)
	st.fireMu.Unlock()
	return res, err
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
		slow = min(slow, m-int64(st.lateness))
		high = max(high, m)
	}
	if a.sealedHigh != wmUnseen {
		if slow-int64(tbl.maxWindow) < a.sealedHigh {
			return
		}
		for i := range a.shards {
			js := &a.shards[i]
			js.mu.Lock() // against Stats, PendingJoins and Checkpoint
			js.swept += int64(js.joiner.Rotate())
			js.mu.Unlock()
		}
	}
	a.sealedHigh = high
}

// wmUnseen marks "no event observed yet"; it cannot collide with a
// real UnixNano (event times near the int64 minimum are out of range
// for the window arithmetic anyway).
const wmUnseen = math.MinInt64

// isLate, observe, and watermark implement the watermark tracker over
// one atomic so the sharded add path reads it without any lock
// (matching stream.WatermarkTracker semantics: watermark = max event
// time − lateness).
func (st *queryState) isLate(t time.Time) bool {
	m := st.wmMax.Load()
	return m != wmUnseen && t.Before(time.Unix(0, m).Add(-st.lateness))
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

func (st *queryState) watermark() time.Time {
	m := st.wmMax.Load()
	if m == wmUnseen {
		return time.Time{}
	}
	return time.Unix(0, m).Add(-st.lateness)
}

// openWindowFor returns the accumulating state for w, creating it if
// needed. It returns nil when w already closed (its end is behind the
// watermark), so a racing late answer can never resurrect a fired
// window.
func (a *Aggregator) openWindowFor(st *queryState, w stream.Window) *openWindow {
	key := w.Start.UnixNano()
	st.winMu.RLock()
	ow := st.windows[key]
	st.winMu.RUnlock()
	if ow != nil {
		return ow
	}
	st.winMu.Lock()
	defer st.winMu.Unlock()
	if ow := st.windows[key]; ow != nil {
		return ow
	}
	if !w.End.After(st.watermark()) {
		return nil
	}
	acc, err := answer.NewShardedAccumulator(st.nbuckets, len(a.shards))
	if err != nil {
		return nil
	}
	ow = &openWindow{window: w, acc: acc}
	st.windows[key] = ow
	return ow
}

// fireLocked closes every window of one query behind its watermark (or
// all windows when flush is set), earliest first, and estimates each.
// Caller holds st.fireMu.
func (a *Aggregator) fireLocked(st *queryState, flush bool) ([]Result, error) {
	wm := st.watermark()
	st.winMu.Lock()
	// One watermark step closes one window of a sliding query, so the
	// usual fire keeps its list on the stack.
	var few [4]*openWindow
	closing := few[:0]
	for key, ow := range st.windows {
		if flush || !ow.window.End.After(wm) {
			closing = append(closing, ow)
			delete(st.windows, key)
		}
	}
	st.winMu.Unlock()
	if len(closing) == 0 {
		return nil, nil
	}
	slices.SortFunc(closing, func(x, y *openWindow) int {
		return x.window.Start.Compare(y.window.Start)
	})
	tr := a.tracer.Load()
	rec := a.cards.Load()
	out := make([]Result, 0, len(closing))
	for _, ow := range closing {
		var t0 time.Time
		if tr != nil || rec != nil {
			t0 = time.Now()
		}
		// Close-and-merge: an add racing this fire either lands before
		// its shard is folded in or is refused and counted dropped —
		// never silently lost.
		acc, err := ow.acc.CloseAndMerge()
		if err != nil {
			return nil, err
		}
		res, params, err := a.estimate(st, ow.window, acc, a.cfg.Population*st.slots)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		if tr != nil {
			tr.RecordFire(telemetry.FireSpan{
				Epoch:       tr.Epoch(),
				Query:       st.qname,
				WindowStart: ow.window.Start.UnixNano(),
				WindowEnd:   ow.window.End.UnixNano(),
				Responses:   int64(res.Responses),
				Lag:         wm.Sub(ow.window.End),
				Dur:         time.Since(t0),
			})
		}
		start := ow.window.Start.UnixNano()
		if ft := st.firedThrough.Load(); ft == wmUnseen || start > ft {
			st.firedThrough.Store(start)
		}
		if rec != nil {
			a.emitCard(rec, st, params, res, time.Since(t0))
		}
	}
	if rec != nil {
		// Prune late attributions for windows at or behind the fire
		// horizon — their cards are out, so the entries would only leak.
		if ft := st.firedThrough.Load(); ft != wmUnseen {
			st.lateMu.Lock()
			for k := range st.lateByWin {
				if k <= ft {
					delete(st.lateByWin, k)
				}
			}
			st.lateMu.Unlock()
		}
	}
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
	st.lateMu.Lock()
	late := st.lateByWin[start]
	delete(st.lateByWin, start)
	st.lateMu.Unlock()
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
		Late:        late,
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
// state of an idle stream (ageJoins): O(shards + open windows), however
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

// Decoded returns the number of successfully decoded answers across all
// queries (including since-removed ones).
func (a *Aggregator) Decoded() int64 {
	n := a.removedDecoded.Load()
	for _, st := range a.states.Load().ordered {
		n += st.decoded.Load()
	}
	return n
}

// Malformed returns the number of joined messages that failed
// decryption or decoding (malicious or corrupt clients).
func (a *Aggregator) Malformed() int64 { return a.malformed.Load() }

// Duplicates returns the number of replayed shares rejected by the
// joiner.
func (a *Aggregator) Duplicates() int64 { return a.duplicates.Load() }

// Dropped returns the number of answers discarded for arriving behind
// their query's watermark (including since-removed queries').
func (a *Aggregator) Dropped() int64 {
	n := a.removedLate.Load()
	for _, st := range a.states.Load().ordered {
		n += st.dropped.Load()
	}
	return n
}

// Stats returns a snapshot of the aggregator's message accounting,
// including the per-shard demux drop counters.
func (a *Aggregator) Stats() Stats {
	tbl := a.states.Load()
	s := Stats{
		Decoded:    a.removedDecoded.Load(),
		Malformed:  a.malformed.Load(),
		Duplicates: a.duplicates.Load(),
		Late:       a.removedLate.Load(),
		Queries:    len(tbl.ordered),
	}
	for _, st := range tbl.ordered {
		s.Decoded += st.decoded.Load()
		s.Late += st.dropped.Load()
	}
	for i := range a.shards {
		js := &a.shards[i]
		js.mu.Lock()
		s.UnknownQuery += js.unknownQID
		s.LengthMismatch += js.badLength
		s.Swept += js.swept
		js.mu.Unlock()
	}
	return s
}

// PendingJoins returns the number of messages waiting for shares across
// all shards.
func (a *Aggregator) PendingJoins() int {
	n := 0
	for i := range a.shards {
		js := &a.shards[i]
		js.mu.Lock()
		n += js.joiner.PendingCount()
		js.mu.Unlock()
	}
	return n
}

// OpenWindows returns the number of windows still accumulating across
// all queries.
func (a *Aggregator) OpenWindows() int {
	n := 0
	for _, st := range a.states.Load().ordered {
		st.winMu.RLock()
		n += len(st.windows)
		st.winMu.RUnlock()
	}
	return n
}

// estimate turns a window's accumulated randomized answers into the
// paper's queryResult ± errorBound (§3.2.4) and returns the parameter
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
		Shed:       st.loadShed(),
	}
	st.estMu.Lock()
	defer st.estMu.Unlock()
	params := st.params.Load()
	if n == 0 {
		for i := range res.Buckets {
			res.Buckets[i] = BucketEstimate{
				Label:       st.labels[i],
				ObservedYes: acc.Yes(i),
				Estimate:    stats.ConfidenceInterval{Confidence: st.confidence, Margin: math.Inf(1)},
			}
		}
		return res, params, nil
	}
	srs, err := sampling.NewSRS(n, effPopulation, st.confidence)
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
		truthful, err := EstimateYesForWindow(params.RR, st.inverted, yes, n)
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
				Confidence: st.confidence,
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
	frac := float64(pct) / 100
	loss, err := rr.SimulateAccuracyLoss(params, frac, simN, a.cfg.RRLossRounds, st.rng)
	if err != nil {
		return 0, err
	}
	st.rrLossCache[pct] = loss
	st.estLog = append(st.estLog, estEvent{
		pct: pct, params: params, frac: frac,
		simN: simN, rounds: a.cfg.RRLossRounds, loss: loss,
	})
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
