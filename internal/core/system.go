// Package core wires the PrivApprox components into the running system
// of the paper's Fig. 1/Fig. 3: an analyst's signed query and execution
// budget flow through the initializer to clients via proxies; every
// epoch, sampled clients answer with randomized responses split into XOR
// shares; the proxies forward; the aggregator joins, decrypts, windows,
// and produces results with error bounds; and a feedback controller
// re-tunes the sampling parameter when the measured error drifts from
// the budget.
//
// # One query path
//
// Every query — Config.Query as much as one registered later — reaches
// the clients and the aggregator the way the paper's §3.1 distributes
// it: the registry verifies the analyst's signature and announces the
// query set on the proxies' control topics, stamped with the epoch it
// applies from (the next one); the client role's follower subscribes
// the clients, and the aggregator role's follower opens the query at
// the aggregator. A parameter change, a shed change and a stop
// take the same path; the system never hands the aggregator a query of
// its own. Many analysts' queries run concurrently over the one fleet,
// each with its own parameters, feedback and overload controllers, and
// a system with no query is an idle fleet.
//
// # Parallel epoch pipeline
//
// The epoch hot path is parallel end-to-end and runs the same two roles
// (internal/role) as the networked privapprox-node deployment. The
// client role fans the answering step (sample, local query, randomized
// response, XOR split) over a bounded pool of Config.Workers goroutines
// and publishes the epoch to each proxy as columnar frames; the
// aggregator role drains in rounds, each polling every proxy consumer
// and submitting what they read to the aggregator in one call, whose
// share join is one joiner under one lock and whose open panes each
// fold under their own. In RunEpoch the two roles overlap: between
// chunks, one worker at a time cuts a frame per proxy from what the
// workers have answered so far and drains it while the others answer
// on (drain points, role.Clients.Epoch), so the aggregator works while
// clients still answer, as in the paper's Fig. 3; what is left when the
// last client has answered is drained after. Exactly-once consumption
// is preserved by the persistent per-proxy consumer groups, each
// consumer polled only by the drain.
//
// Determinism contract: under a fixed Config.Seed, epoch results are
// byte-identical for every Workers setting. Each client owns a private
// seeded RNG, so worker scheduling cannot reorder its coin flips;
// per-bucket window counts are integer sums, so share interleaving
// cannot change them; and the aggregator serializes window firing, so
// the estimator's seeded RNG is consumed in the same window order
// regardless of concurrency.
package core

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/histstore"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/query"
	"privapprox/internal/role"
	"privapprox/internal/seeded"
	"privapprox/internal/telemetry"
	"privapprox/internal/telemetry/lineage"
	"privapprox/internal/wal"
)

// errConfig reports an invalid system configuration.
var errConfig = errors.New("core: invalid config")

// Config assembles an in-process deployment.
type Config struct {
	// Clients is the population size U.
	Clients int
	// Proxies is the share fan-out n (≥ 2).
	Proxies int
	// Partitions per proxy topic; defaults to 4.
	Partitions int
	// Query, when set, is registered at construction as the first query
	// (unsigned; the system signs it with a fresh analyst key unless
	// AnalystKey is provided). Nil starts an idle fleet that answers
	// nothing until Register.
	Query *query.Query
	// Budget is converted by the initializer into (s, p, q). Provide
	// either Budget or Params.
	Budget *budget.Budget
	// Params directly pins the system parameters, bypassing Derive.
	Params *budget.Params
	// Origin anchors epoch zero in event time.
	Origin time.Time
	// Populate fills client i's database before the run.
	Populate func(i int, db *minisql.DB) error
	// Reducer folds local query rows into the answer value; the zero
	// value takes the last row's.
	Reducer client.Reducer
	// Confidence for result error bounds; defaults to 0.95.
	Confidence float64
	// StoreDir, when non-empty, persists decoded responses for
	// historical analytics. The stored contents are deterministic under
	// a fixed Seed, but with Workers > 1 the record order within an
	// epoch is scheduling-dependent; batch analytics whose second-round
	// sampling must be replayable record-for-record should run with
	// Workers == 1.
	StoreDir string
	// Seed makes the whole run deterministic; 0 draws a random seed.
	Seed int64
	// AnalystKey optionally supplies the signing key.
	AnalystKey ed25519.PrivateKey
	// Workers bounds how many clients answer concurrently per epoch;
	// defaults to GOMAXPROCS. With more than one, RunEpoch's workers
	// also take turns draining between their chunks. Workers == 1
	// reproduces the sequential pipeline: answer, then drain. Results
	// are identical for every worker count under a fixed Seed.
	Workers int
	// Deprecated: Shards has no effect; the aggregator's share join is
	// one joiner under one lock.
	Shards int
	// DataDir, when non-empty, makes the proxies' brokers durable: every
	// published share and control announcement is journaled to
	// write-ahead logs under DataDir/proxies and replayed when a new
	// System is built over the same directory. Restore a Checkpoint
	// record into such a System, built with no Query, for full crash
	// recovery (TestSystemCheckpointResume). A durable system
	// releases drained shares from memory after every drain, as an
	// in-memory one does; a Restore whose positions lie below that
	// release reads the records between them back from the WALs.
	DataDir string
	// WALFsync is the fsync policy for DataDir journals; the zero value
	// (wal.PolicyNever) survives process crashes but not OS crashes.
	WALFsync wal.Policy
	// Deprecated: MultiQuery has no effect. Every System runs the query
	// control plane; queries come from Query and Register.
	MultiQuery bool
}

// System is a fully wired in-process PrivApprox deployment.
type System struct {
	cfg     Config
	params  budget.Params
	pub     ed25519.PublicKey
	priv    ed25519.PrivateKey
	clients *role.Clients
	drainer *role.Drain
	fleet   *proxy.Fleet
	agg     *aggregator.Aggregator
	store   *histstore.Store
	epoch   uint64

	// The query control plane: the registry signs off on submissions and
	// announces snapshots over the fleet's control topics; the client
	// role's follower plays them back onto the in-process clients — the
	// path a networked client process rides.
	registry *engine.Registry
	// Per-query feedback controllers; guarded by ctrlMu.
	ctrlMu    sync.Mutex
	ctrls     map[query.ID]*budget.Controller
	fbTarget  float64
	fbMin     float64
	fbMax     float64
	fbEnabled bool

	// SLO overload controllers (EnableSLO): one per query, created
	// lazily; guarded by ctrlMu. The controllers' decisions are recorded
	// in checkpoints so crash recovery resumes the loop mid-flight
	// instead of un-shedding an overloaded system.
	slos       map[query.ID]*budget.SLOController
	sloTarget  float64 // p95 window-fire lag target, in slides
	sloMin     float64
	sloWindow  int
	sloEnabled bool

	// Telemetry plane: tel aggregates every component source (built
	// before the fleet so the WAL latency histograms exist when the
	// durable logs open); tracer keys per-stage spans by epoch; cards
	// is the provenance recorder fed by the aggregator's fire path.
	tel    *telemetry.Registry
	tracer *telemetry.Tracer
	cards  *lineage.Recorder
}

// New builds and wires the system: initializer (budget → parameters),
// proxies, clients (with their private databases), the aggregator and
// the control plane, then registers Config.Query when it is set.
func New(cfg Config) (_ *System, err error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("%w: %d clients", errConfig, cfg.Clients)
	}
	if cfg.Proxies == 0 {
		cfg.Proxies = 2
	}
	if cfg.Proxies < 2 {
		return nil, fmt.Errorf("%w: %d proxies", errConfig, cfg.Proxies)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = mrand.Int63()
	}
	if cfg.Origin.IsZero() {
		cfg.Origin = time.Unix(1_700_000_000, 0)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("%w: %d workers", errConfig, cfg.Workers)
	}

	// Initializer: budget → (s, p, q).
	var params budget.Params
	switch {
	case cfg.Params != nil:
		params = *cfg.Params
	case cfg.Budget != nil:
		p, err := cfg.Budget.Derive(cfg.Clients)
		if err != nil {
			return nil, err
		}
		params = p
	default:
		p, err := (budget.Budget{}).Derive(cfg.Clients)
		if err != nil {
			return nil, err
		}
		params = p
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	// Analyst signature for non-repudiation.
	priv := cfg.AnalystKey
	if priv == nil {
		_, k, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("core: keygen: %w", err)
		}
		priv = k
	}
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: bad analyst key", errConfig)
	}

	tel := telemetry.NewRegistry()
	var fleet *proxy.Fleet
	if cfg.DataDir != "" {
		fleet, err = proxy.NewDurableFleet(cfg.Proxies, cfg.Partitions,
			filepath.Join(cfg.DataDir, "proxies"), wal.Options{
				Policy:     cfg.WALFsync,
				AppendHist: tel.Histogram("privapprox_wal_append_ns"),
				FsyncHist:  tel.Histogram("privapprox_wal_fsync_ns"),
			})
	} else {
		fleet, err = proxy.NewFleet(cfg.Proxies, cfg.Partitions)
	}
	if err != nil {
		return nil, err
	}

	sys := &System{cfg: cfg, params: params, pub: pub, priv: priv, fleet: fleet,
		registry: engine.NewRegistry(), ctrls: make(map[query.ID]*budget.Controller),
		tel: tel, tracer: telemetry.NewTracer()}
	defer func() {
		if err != nil {
			sys.Close()
		}
	}()

	if cfg.StoreDir != "" {
		store, err := histstore.Open(cfg.StoreDir, 0)
		if err != nil {
			return nil, err
		}
		sys.store = store
	}

	// The aggregator starts empty: queries arrive through RegisterSigned,
	// each with the estimator seed cfg.Seed+1.
	aggCfg := aggregator.Config{
		Population: cfg.Clients,
		Proxies:    cfg.Proxies,
		Origin:     cfg.Origin,
		Confidence: cfg.Confidence,
		Seed:       cfg.Seed + 1,
	}
	if sys.store != nil {
		aggCfg.OnDecoded = func(raw []byte, eventTime time.Time) {
			// Best-effort persistence; batch analytics tolerates gaps.
			_ = sys.store.Append(eventTime, raw)
		}
	}
	sys.agg, err = aggregator.NewMulti(aggCfg)
	if err != nil {
		return nil, err
	}
	consumers, err := fleet.Consumers("aggregator")
	if err != nil {
		return nil, err
	}
	// The whole population is one client process, publishing each epoch
	// in one batch per proxy; it and the aggregator each follow proxy 0's
	// control topic. Even in-process, query distribution rides the
	// pub/sub substrate.
	if err := sys.registry.AttachSink(fleet); err != nil {
		return nil, err
	}
	aggControl, err := fleet.Proxy(0).ControlConsumer("aggregator-control")
	if err != nil {
		return nil, err
	}
	sys.drainer = role.NewDrain(sys.agg, consumers, aggControl)
	control, err := fleet.Proxy(0).ControlConsumer("clients")
	if err != nil {
		return nil, err
	}
	sys.clients, err = role.NewClients(fleet, control, cfg.Seed, 0, cfg.Clients, 0, cfg.Workers, func(i int, cc *client.Config) error {
		cc.DB = minisql.NewDB()
		if cfg.Populate != nil {
			if err := cfg.Populate(i, cc.DB); err != nil {
				return fmt.Errorf("populate: %w", err)
			}
		}
		cc.Reducer = cfg.Reducer
		// Seeded MIDs pin the shares' partition routing, extending the
		// determinism contract to bounded drains (DrainUpTo): where a
		// partial drain cuts off depends on which partition each share
		// landed in. Deployments (cmd/privapprox-node) keep the default
		// crypto-random MIDs.
		cc.MIDSource = seeded.New(cfg.Seed + (int64(i)+1)*1_000_003)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Query != nil {
		if err := sys.Register(cfg.Query); err != nil {
			sys.Close()
			return nil, err
		}
	}
	sys.initTelemetry()
	return sys, nil
}

// Params returns the parameters derived at construction: the defaults
// Register gives a query. Feedback moves a query's own parameters,
// which Registry().Entry reports.
func (s *System) Params() budget.Params { return s.params }

// Clients returns the client handles (read-only use).
func (s *System) Clients() []*client.Client { return s.clients.Clients() }

// Fleet returns the proxy fleet.
func (s *System) Fleet() *proxy.Fleet { return s.fleet }

// Aggregator returns the aggregator.
func (s *System) Aggregator() *aggregator.Aggregator { return s.agg }

// Store returns the historical store, or nil when not configured.
func (s *System) Store() *histstore.Store { return s.store }

// Registry returns the query control plane.
func (s *System) Registry() *engine.Registry { return s.registry }

// Conserve checks the run's share ledger (role.Conserve) over its
// clients, batchers, brokers, drain consumers and aggregator: call it
// after a drain. It holds for a System run from its first epoch, not for
// one restored from a checkpoint, whose earlier drains its counters do
// not see.
func (s *System) Conserve() error {
	answered, dropped, published, err := s.ledger()
	if err != nil {
		return err
	}
	return role.Conserve(answered, dropped, published, s.drainer.Consumers(), s.agg)
}

// ledger returns the answers the clients sent, and per proxy the shares
// its batcher dropped and the share records its broker took in.
func (s *System) ledger() (answered int64, dropped, published []int64, err error) {
	for _, c := range s.clients.Clients() {
		answered += c.Stats().AnswersSent
	}
	dropped, published = make([]int64, s.fleet.Size()), make([]int64, s.fleet.Size())
	for i, b := range s.clients.Batchers() {
		dropped[i] = b.Dropped()
	}
	for i := range published {
		b := s.fleet.Proxy(i).Broker()
		published[i] = b.Stats().MessagesIn
		for _, topic := range []string{proxy.TopicControl, proxy.TopicLineage} {
			end, err := b.EndOffset(topic, 0)
			if err != nil {
				return 0, nil, nil, err
			}
			published[i] -= end
		}
	}
	return answered, dropped, published, nil
}

// sync applies every pending control-topic announcement to the clients
// and the aggregator — each stamped from epoch s.epoch, up to the
// registry's version (engine.Applier.Advance) — returning the windows a
// stopped query's removal flushed. Every registry change is followed by
// a sync, so a change is in force at both before the call that made it
// returns.
func (s *System) sync() ([]aggregator.Result, error) {
	f := s.clients.Follower()
	if _, err := f.Sync(); err != nil {
		return nil, err
	}
	v := s.registry.Version()
	if err := f.Applier().Advance(s.epoch, v); err != nil {
		return nil, err
	}
	flushed, err := s.drainer.Sync(s.epoch, v)
	if qs := s.drainer.Follower().Applier().Applied(); err == nil && qs != nil && qs.Version == v && s.diverged(qs) {
		err = fmt.Errorf("%w: a restored system announced version %d unlike its first life", errConfig, v)
	}
	return flushed, err
}

// diverged reports whether the registry's query set differs from qs,
// the snapshot the followers applied at its version: a restored system
// that re-drives a change other than the one its first life made after
// the cut announces a version the topic already holds.
func (s *System) diverged(qs *engine.QuerySet) bool {
	ids := s.registry.Active()
	if len(ids) != len(qs.Entries) {
		return true
	}
	for i, id := range ids {
		e, _ := s.registry.Entry(id)
		if got := qs.Entries[i]; got.Signed.Query.QID != id || got.Rev != e.Rev || got.Params != e.Params || got.Shed != e.Shed {
			return true
		}
	}
	return false
}

// Register signs a query with the system analyst key and submits it to
// the running fleet: the registry announces it over the proxies'
// control topics, and the clients and the aggregator pick it up — all
// before Register returns. Parameters are
// the system defaults derived at construction (use RegisterSigned for
// an external analyst's own parameters).
func (s *System) Register(q *query.Query) error {
	signed, err := query.Sign(q, s.priv)
	if err != nil {
		return err
	}
	return s.RegisterSigned(signed, s.pub, s.params)
}

// RegisterSigned submits an analyst's signed query with its derived
// parameters. The analyst's key is installed in the registry trust
// store under the query's analyst name.
func (s *System) RegisterSigned(signed *query.Signed, analystKey ed25519.PublicKey, params budget.Params) error {
	if err := s.registry.Trust(signed.Query.QID.Analyst, analystKey); err != nil {
		return err
	}
	if err := s.registry.Register(signed, params); err != nil {
		return err
	}
	_, err := s.sync()
	return err
}

// StopQuery deactivates a query mid-run: clients stop answering it from
// the next epoch, and its still-open windows are flushed and returned.
// Shares already in flight at the proxies join as usual but count under
// the aggregator's UnknownQuery statistic once drained.
func (s *System) StopQuery(id query.ID) ([]aggregator.Result, error) {
	if err := s.registry.Stop(id); err != nil {
		return nil, err
	}
	flushed, err := s.sync()
	if err != nil {
		return flushed, err
	}
	s.ctrlMu.Lock()
	delete(s.ctrls, id)
	s.ctrlMu.Unlock()
	return flushed, nil
}

// RunEpoch executes one answer epoch across all clients — concurrently
// on Config.Workers goroutines — drains the proxies into the
// aggregator, and returns any window results that fired plus the number
// of participating clients (clients that answered at least one query).
// With more than one worker the drain overlaps the answering: between
// chunks, a worker that finds no drain running cuts one frame per proxy
// and drains it (role.Clients.Epoch's drain points), and once every
// client has answered the epoch's tail is drained as before. The
// windows fired at drain points and in the tail come back together in
// canonical order (aggregator.SortResults), the same windows with the
// same bytes as AnswerEpoch followed by an unbounded DrainUpTo.
// Pending control-topic announcements are applied first, so queries
// registered since the last epoch take effect at a deterministic point;
// an idle fleet (no active query) answers nothing but still drains, so
// stragglers of stopped queries surface in the statistics. Results are
// deterministic under a fixed Config.Seed for any worker count.
func (s *System) RunEpoch() ([]aggregator.Result, int, error) {
	results, participants, err := s.answer(s.drainer)
	if err != nil {
		return results, participants, err
	}
	t0 := time.Now()
	tail, drained, err := s.drain()
	s.tracer.RecordCurrent(telemetry.StageDrain, time.Since(t0), drained, 0)
	if len(results) == 0 {
		results = tail
	} else {
		results = append(results, tail...)
		aggregator.SortResults(results, s.agg.QueryOrder())
	}
	if err != nil {
		return results, participants, err
	}
	return results, participants, s.observeSLO(results)
}

// AnswerEpoch runs just the answering half of RunEpoch: pending control
// announcements are applied, and every client answers the current epoch,
// leaving the shares queued at the proxies undrained. Paired with
// DrainUpTo it models an aggregator whose per-tick drain capacity is
// bounded — the surge harness drives overload by answering more epochs
// per tick than the drain budget covers. Returns the participant count.
func (s *System) AnswerEpoch() (int, error) {
	_, participants, err := s.answer(nil)
	return participants, err
}

// answer begins the next epoch and answers it, running drain points over
// drain when it is not nil, and returns the windows they fired in the
// order they fired. The drain reaches the epoch first, so no window
// closes past it.
func (s *System) answer(drain *role.Drain) ([]aggregator.Result, int, error) {
	epoch := s.epoch
	flushed, err := s.drainer.Sync(epoch, s.registry.Version())
	if err != nil {
		return flushed, 0, err
	}
	s.epoch++
	s.registry.SetEpoch(s.epoch)
	s.tracer.BeginEpoch(epoch)
	t0 := time.Now()
	fired, participants, err := s.clients.Epoch(epoch, drain)
	s.tracer.Record(epoch, telemetry.StageAnswer, time.Since(t0), participants, 0)
	if len(flushed) > 0 {
		fired = append(flushed, fired...)
	}
	return fired, participants, err
}

// DrainUpTo forwards at most max queued records from the proxies to the
// aggregator — a bounded drain (deterministic rounds over the proxy
// consumers, see role.Drain.UpTo) modelling
// fixed aggregation capacity per tick. It returns fired windows in
// window-start order and the number of records actually drained; a
// count under max means the proxies ran dry. Fired windows feed the
// overload controllers when EnableSLO is on, exactly as in RunEpoch.
func (s *System) DrainUpTo(max int) ([]aggregator.Result, int, error) {
	if max <= 0 {
		return nil, 0, nil
	}
	t0 := time.Now()
	fired, drained, err := s.drainer.UpTo(max)
	if err == nil {
		err = s.drainer.Commit()
	}
	if err != nil {
		return fired, drained, err
	}
	// Depth is the share backlog the bounded drain left behind — the
	// signal the overload controller steers on.
	pending, err := s.PendingShares()
	if err != nil {
		return fired, drained, err
	}
	s.tracer.RecordCurrent(telemetry.StageDrain, time.Since(t0), drained, int(pending))
	return fired, drained, s.observeSLO(fired)
}

// PendingShares reports how many shares are still queued at the proxies
// ahead of the aggregator's consumers — the backlog a bounded drain
// leaves behind (control announcements are not shares). Without
// overload control this grows without bound under sustained
// over-offered load.
func (s *System) PendingShares() (int64, error) {
	var total int64
	for _, c := range s.drainer.Consumers() {
		lag, err := c.Lag()
		if err != nil {
			return total, err
		}
		total += lag
	}
	return total, nil
}

// EnableSLO installs the closed-loop overload controller: after every
// drain, each fired window's lag — how far its end trails the fleet's
// current event time, in slides — feeds a per-query
// budget.SLOController targeting the given p95 lag. When the controller
// tightens or relaxes the shed threshold, the change is distributed
// like any parameter update: through the registry's control topics to
// the clients (which shed deterministically via their hash deciders)
// and into the aggregator (which stamps each window with the threshold
// in force at its closing epoch). Controller state is checkpointed, so
// crash recovery resumes the loop mid-flight instead of un-shedding an
// overloaded system.
func (s *System) EnableSLO(targetLagSlides, shedMin float64, window int) error {
	if _, err := budget.NewSLOController(targetLagSlides, shedMin, window); err != nil {
		return err
	}
	s.ctrlMu.Lock()
	s.sloTarget, s.sloMin, s.sloWindow = targetLagSlides, shedMin, window
	s.sloEnabled = true
	if s.slos == nil {
		s.slos = make(map[query.ID]*budget.SLOController)
	}
	s.ctrlMu.Unlock()
	return nil
}

// SLOShed returns the shed threshold currently in force for a query (1
// when SLO control is off or the query has not fired a window yet).
func (s *System) SLOShed(id query.ID) float64 {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	if ctl := s.slos[id]; ctl != nil {
		return ctl.Shed()
	}
	return 1
}

// observeSLO folds fired windows into their queries' overload
// controllers and actuates shed-threshold changes through the control
// plane. Lag is measured in slides: (current event time − window end) /
// slide, where current event time is Origin + epochsAnswered×Frequency.
// A fleet that keeps up fires windows within a slide or two of the
// watermark; a backlogged fleet fires them ever further behind.
func (s *System) observeSLO(results []aggregator.Result) error {
	if len(results) == 0 {
		return nil
	}
	s.ctrlMu.Lock()
	if !s.sloEnabled {
		s.ctrlMu.Unlock()
		return nil
	}
	type actuation struct {
		id   query.ID
		shed float64
	}
	var acts []actuation
	epochs := s.epoch
	for _, res := range results {
		entry, ok := s.registry.Entry(res.Query)
		if !ok {
			continue // straggler of a stopped query
		}
		q := entry.Signed.Query
		if q.Slide <= 0 {
			continue
		}
		cur := s.cfg.Origin.Add(time.Duration(epochs) * q.Frequency)
		lag := float64(cur.Sub(res.Window.End)) / float64(q.Slide)
		ctl := s.slos[res.Query]
		if ctl == nil {
			c, err := budget.NewSLOController(s.sloTarget, s.sloMin, s.sloWindow)
			if err != nil {
				s.ctrlMu.Unlock()
				return err
			}
			s.slos[res.Query] = c
			ctl = c
		}
		prev := ctl.Shed()
		if next := ctl.Observe(lag); next != prev {
			acts = append(acts, actuation{id: res.Query, shed: next})
		}
	}
	s.ctrlMu.Unlock()
	if len(acts) == 0 {
		return nil
	}
	// Actuate outside the lock: registry announcements (no revision bump
	// — coin streams are untouched), then one sync so the new threshold
	// is in force at the clients from the next answered epoch and stamps
	// the aggregator's next windows.
	for _, a := range acts {
		if err := s.registry.SetShed(a.id, a.shed); err != nil {
			return err
		}
	}
	_, err := s.sync()
	return err
}

// Epoch returns the next epoch number to run.
func (s *System) Epoch() uint64 { return s.epoch }

// drain forwards everything sitting at the proxies to the aggregator
// (role.Drain.UpTo without a budget: rounds until the proxies run dry)
// and commits it, as every drain ends: the commit lets the proxies'
// brokers release those records from memory and free room under a
// partition bound. With a DataDir a crash resumes from the last
// Checkpoint, whose positions may lie below this commit: the durable
// brokers read those records back from their WALs. Fired windows come
// back in window-start order, with the records drained.
func (s *System) drain() ([]aggregator.Result, int, error) {
	fired, drained, err := s.drainer.UpTo(math.MaxInt)
	if err != nil {
		return fired, drained, err
	}
	return fired, drained, s.drainer.Commit()
}

// AdvanceTo pushes the aggregator's watermark to the event time of the
// given epoch, closing any finished windows. An answer of epoch e is
// stamped Origin + e×Frequency with its own query's frequency; the
// watermark takes the shortest active frequency, so it never passes the
// epoch's event time for any query, and with no active query there is
// nothing to advance.
func (s *System) AdvanceTo(epoch uint64) ([]aggregator.Result, error) {
	var freq time.Duration
	for _, id := range s.registry.Active() {
		if e, ok := s.registry.Entry(id); ok && (freq == 0 || e.Signed.Query.Frequency < freq) {
			freq = e.Signed.Query.Frequency
		}
	}
	if freq == 0 {
		return nil, nil
	}
	return s.agg.AdvanceTo(s.cfg.Origin.Add(time.Duration(epoch) * freq))
}

// Flush drains anything still sitting at the proxies and closes all
// open windows (end of run). Windows fired by the final drain are
// returned together with the flushed ones, merged in window-start
// order — earlier versions discarded the drain's results, silently
// dropping any window the last batch of shares pushed past the
// watermark.
func (s *System) Flush() ([]aggregator.Result, error) {
	drained, _, err := s.drain()
	if err != nil {
		return nil, err
	}
	final, err := s.agg.Flush()
	if err != nil {
		return drained, err
	}
	merged := append(drained, final...)
	aggregator.SortResults(merged, s.agg.QueryOrder())
	return merged, nil
}

// EnableFeedback installs the adaptive controller (paper §5): after each
// result, call Feedback with it to let the controller re-tune s. Every
// query gets its own controller (created lazily from the query's
// registered parameters), so one noisy query's budget re-tuning never
// disturbs another's.
func (s *System) EnableFeedback(targetLoss, sMin, sMax float64) error {
	if targetLoss <= 0 || sMin <= 0 || sMax > 1 || sMin > sMax {
		return fmt.Errorf("%w: feedback target=%v bounds=[%v,%v]", errConfig, targetLoss, sMin, sMax)
	}
	s.ctrlMu.Lock()
	s.fbTarget, s.fbMin, s.fbMax = targetLoss, sMin, sMax
	s.fbEnabled = true
	s.ctrlMu.Unlock()
	return nil
}

// Feedback folds a window result into its query's controller and, when
// the sampling fraction moved, redistributes the parameters: the
// registry bumps the query's revision and re-announces it, and at the
// sync the clients re-subscribe and the aggregator schedules the
// query's parameters from the next epoch, estimating and reporting the
// windows that close from then on under them. It returns the parameters
// now in force for that query.
func (s *System) Feedback(res aggregator.Result) (budget.Params, error) {
	s.ctrlMu.Lock()
	if !s.fbEnabled {
		s.ctrlMu.Unlock()
		return budget.Params{}, fmt.Errorf("%w: feedback not enabled", errConfig)
	}
	entry, ok := s.registry.Entry(res.Query)
	if !ok {
		s.ctrlMu.Unlock()
		return budget.Params{}, fmt.Errorf("core: feedback for unknown query %s", res.Query)
	}
	ctrl := s.ctrls[res.Query]
	if ctrl == nil {
		c, err := budget.NewController(entry.Params, s.fbTarget, s.fbMin, s.fbMax)
		if err != nil {
			s.ctrlMu.Unlock()
			return budget.Params{}, err
		}
		s.ctrls[res.Query] = c
		ctrl = c
	}
	prev := ctrl.Params()
	next := ctrl.Update(aggregator.RelativeWidth(res))
	s.ctrlMu.Unlock()
	if next.S == prev.S {
		return next, nil
	}
	if err := s.registry.Register(entry.Signed, next); err != nil {
		return next, err
	}
	_, err := s.sync()
	return next, err
}

// Close releases proxies and the historical store.
func (s *System) Close() {
	if s.fleet != nil {
		s.fleet.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
}
