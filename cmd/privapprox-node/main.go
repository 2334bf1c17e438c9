// Command privapprox-node runs one PrivApprox role as a standalone
// networked process, communicating over the batched TCP pub/sub
// protocol — the deployment shape of the paper's Fig. 3 with
// Kafka-style brokers at the proxies.
//
// Queries are distributed through the proxies' control topics (paper
// §3.1): the submit role signs and announces a query set, client
// processes pick it up dynamically — verifying each analyst signature —
// and the aggregator follows the same announcements for its per-query
// demux state, a query announced mid-run included. No process is
// configured with a hardcoded query. Every role reads a control topic
// through engine.Follower, the clients' own reader; the submit role
// reads it first and resumes from the newest snapshot there, so a
// restarted submitter's announcements supersede the earlier ones.
//
// Every role is built from library parts. The proxy role is a
// proxy.New (or, with -data-dir, proxy.NewDurable) served over TCP. The
// client and aggregator roles are the in-process pipeline's own
// (internal/role), attached to proxy.Proxy handles over pubsub.Client
// transports (a small pipelined connection pool each): clients flush an
// epoch's shares — for every active query — to each proxy in one publish
// frame via client.Batcher, and the aggregator runs the same poll →
// decode → submit loop and writes the same checkpoint record. Under the same seed conventions as
// core.Config (client i's seed is seed+i+2, the aggregator's is
// seed+1), a networked run produces results identical to the in-process
// multi-query pipeline — the multi-process smoke tests assert exactly
// that.
//
// Start two proxies, announce queries, then run clients and the
// aggregator (each in its own terminal or backgrounded):
//
//	privapprox-node proxy -listen 127.0.0.1:9101 -index 0
//	privapprox-node proxy -listen 127.0.0.1:9102 -index 1
//	privapprox-node submit -proxies 127.0.0.1:9101,127.0.0.1:9102 -queries 2
//	privapprox-node client -proxies 127.0.0.1:9101,127.0.0.1:9102 -offset 0 -n 3 -epochs 4
//	privapprox-node client -proxies 127.0.0.1:9101,127.0.0.1:9102 -offset 3 -n 3 -epochs 4
//	privapprox-node aggregator -proxies 127.0.0.1:9101,127.0.0.1:9102 -clients 6 -epochs 4
//
// The aggregator starts once a first query is announced and stops when
// it has decoded clients × epochs answers for every query it holds, or
// after -idle without new shares; a later submit (say -queries 3) reaches
// it mid-run.
//
// Every role accepts -metrics-addr to serve its live telemetry over
// HTTP: Prometheus text format at /metrics, the same registry as JSON
// under /debug/vars (expvar), and the runtime profiler under
// /debug/pprof. The instruments are the zero-allocation registry of
// internal/telemetry, so scraping is safe on a loaded node.
package main

import (
	"crypto/ed25519"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/budget"
	"privapprox/internal/client"
	"privapprox/internal/engine"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/query"
	"privapprox/internal/role"
	"privapprox/internal/rr"
	"privapprox/internal/telemetry"
	"privapprox/internal/telemetry/lineage"
	"privapprox/internal/wal"
	"privapprox/internal/workload"
)

// nodeLog is the diagnostic logger: slog text lines on stderr, tagged
// with the role once main knows it. The stdout protocol banners the
// harnesses parse stay plain fmt.Printf, byte for byte.
var nodeLog = slog.New(slog.NewTextHandler(os.Stderr, nil))

// serveMetrics exposes a role's registry on addr (empty = disabled) and
// returns a closer. Port 0 picks a free port; the bound address is
// printed so scrapers (and the obsgate harness) can find it. Every role
// mounts /healthz; extra routes (readiness, the lineage windows page)
// ride along per role.
func serveMetrics(addr string, reg *telemetry.Registry, routes ...telemetry.Route) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	routes = append(routes, telemetry.HealthzRoute())
	srv, err := telemetry.Serve(addr, reg, routes...)
	if err != nil {
		return nil, err
	}
	fmt.Printf("metrics on http://%s/metrics\n", srv.Addr())
	return func() { srv.Close() }, nil
}

// defaultOrigin matches core.Config's default so the in-process and
// networked pipelines line up epoch for epoch.
var defaultOrigin = time.Unix(1_700_000_000, 0)

// nodeAnalyst is the demo analyst identity. Its signing key is
// deterministic so independent processes (submit here, reference runs
// in tests) derive the same keypair without a key-distribution channel;
// a production deployment provisions real analyst keys.
const nodeAnalyst = "node-analyst"

func nodeAnalystKey() ed25519.PrivateKey {
	var seed [ed25519.SeedSize]byte
	copy(seed[:], nodeAnalyst)
	return ed25519.NewKeyFromSeed(seed[:])
}

// nodeQueries builds the announced query set: n taxi queries with
// serials 1..n sharing the demo geometry.
func nodeQueries(n int) ([]*query.Query, error) {
	out := make([]*query.Query, n)
	for i := range out {
		q, err := workload.TaxiQuery(nodeAnalyst, uint64(i+1), time.Second, 4*time.Second, 4*time.Second)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

func sharedParams(s, p, q float64) budget.Params {
	return budget.Params{S: s, RR: rr.Params{P: p, Q: q}}
}

// populateClient fills logical client i's database; the seed convention
// is shared with the smoke tests' in-process reference runs.
func populateClient(i int, db *minisql.DB) error {
	rng := rand.New(rand.NewSource(int64(i) + 1))
	return workload.PopulateTaxi(db, rng, 3, time.Unix(0, 0), time.Minute)
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: privapprox-node <proxy|submit|client|aggregator> [flags]")
		os.Exit(2)
	}
	nodeLog = nodeLog.With("role", os.Args[1])
	var err error
	switch os.Args[1] {
	case "proxy":
		err = runProxy(os.Args[2:])
	case "submit":
		err = runSubmit(os.Args[2:])
	case "client":
		err = runClient(os.Args[2:])
	case "aggregator":
		err = runAggregator(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q\n", os.Args[1])
		os.Exit(2)
	}
	if err != nil {
		nodeLog.Error(err.Error())
		os.Exit(1)
	}
}

func runProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	index := fs.Int("index", 0, "proxy index (0 = answer stream, ≥1 = key stream)")
	partitions := fs.Int("partitions", 4, "topic partitions")
	partitionCap := fs.Int("partition-cap", 0, "max unconsumed records per answer partition; publishers past the bound get backpressure (0 = unbounded)")
	dataDir := fs.String("data-dir", "", "durable broker directory (empty = in-memory)")
	fsync := fs.String("fsync", "never", "WAL fsync policy: never, interval, every-batch")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
	fs.Parse(args)

	reg := telemetry.NewRegistry()
	name := fmt.Sprintf("proxy-%d", *index)
	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		return err
	}
	var px *proxy.Proxy
	if *dataDir != "" {
		// A restarted proxy replays its journals here: partitions,
		// committed offsets, and the control topic (so the announced
		// query set survives the restart too).
		px, err = proxy.NewDurable(name, *index, *partitions, *dataDir, wal.Options{
			Policy:     policy,
			AppendHist: reg.Histogram("privapprox_wal_append_ns"),
			FsyncHist:  reg.Histogram("privapprox_wal_fsync_ns"),
		})
	} else {
		px, err = proxy.New(name, *index, *partitions)
	}
	if err != nil {
		return err
	}
	defer px.Close()
	broker := px.Broker()
	reg.RegisterSource(broker)
	broker.SetPublishHistogram(reg.Histogram("privapprox_publish_ns"))
	if *partitionCap > 0 {
		// Bounded answer partitions: a client fleet outrunning the
		// aggregator's drain sees the partition-full error instead of growing the
		// proxy without bound. The control topic stays unbounded —
		// announcements are tiny and must never be refused.
		if err := px.SetCapacity(*partitionCap); err != nil {
			return err
		}
	}
	srv, err := pubsub.Serve(broker, *listen)
	if err != nil {
		return err
	}
	// Banner order matters: harnesses parse the serving line first, then
	// (when -metrics-addr is set) the metrics line.
	fmt.Printf("proxy %d serving topic %q on %s\n", *index, px.Topic(), srv.Addr())
	stopMetrics, err := serveMetrics(*metricsAddr, reg)
	if err != nil {
		srv.Close()
		return err
	}
	defer stopMetrics()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := px.Stats()
	fmt.Printf("\nproxy stats: %d msgs in (%.1f KB), %d msgs out, %d duplicates deduped\n",
		st.MessagesIn, float64(st.BytesIn)/1024, st.MessagesOut, st.Duplicates)
	return srv.Close()
}

// runSubmit is the analyst-facing control-plane role: it signs the demo
// query set and announces it through every proxy's control topic. It
// first resumes from the newest snapshot already on proxy 0's control
// topic, so a restarted submitter announces versions past the ones
// every newest-wins applier has seen; an empty topic changes nothing.
func runSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	proxyList := fs.String("proxies", "", "comma-separated proxy addresses (index order)")
	queries := fs.Int("queries", 1, "number of concurrent queries to announce")
	conns := fs.Int("conns", 1, "TCP connections per proxy")
	s := fs.Float64("s", 0.9, "sampling fraction")
	p := fs.Float64("p", 0.9, "first randomization coin")
	q := fs.Float64("q", 0.6, "second randomization coin")
	linger := fs.Duration("linger", 0, "keep serving -metrics-addr this long after announcing, so deployers can poll /readyz")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
	fs.Parse(args)
	if *queries < 1 {
		return fmt.Errorf("need ≥ 1 queries, got %d", *queries)
	}

	fleet, tcps, err := dialFleet(*proxyList, *conns)
	if err != nil {
		return err
	}
	defer closeAll(tcps)

	priv := nodeAnalystKey()
	reg := engine.NewRegistry()
	if err := reg.Trust(nodeAnalyst, priv.Public().(ed25519.PublicKey)); err != nil {
		return err
	}
	cc, err := fleet.Proxy(0).ControlConsumer("submit-resume")
	if err != nil {
		return err
	}
	follower := engine.NewFollower(cc, engine.NewApplier())
	if _, err := follower.Sync(); err != nil {
		return err
	}
	if qs := follower.Applier().Applied(); qs != nil {
		if err := reg.Bootstrap(qs); err != nil {
			return err
		}
		fmt.Printf("resumed from announcement version %d (%d queries)\n", qs.Version, len(qs.Entries))
	}
	if err := reg.AttachSink(fleet); err != nil {
		return err
	}
	tel := telemetry.NewRegistry()
	tel.RegisterSource(reg)
	// Ready = the control sink (every proxy) has caught up to the
	// registry's announcement version; a deployer can gate client
	// startup on /readyz instead of sleeping.
	ready := func() error {
		if sv, v := reg.SinkVersion(), reg.Version(); sv < v {
			return fmt.Errorf("control sink at version %d, registry at %d", sv, v)
		}
		return nil
	}
	stopMetrics, err := serveMetrics(*metricsAddr, tel, telemetry.ReadyRoute(ready))
	if err != nil {
		return err
	}
	defer stopMetrics()
	qs, err := nodeQueries(*queries)
	if err != nil {
		return err
	}
	params := sharedParams(*s, *p, *q)
	for _, qy := range qs {
		signed, err := query.Sign(qy, priv)
		if err != nil {
			return err
		}
		if err := reg.Register(signed, params); err != nil {
			return err
		}
	}
	fmt.Printf("announced %d queries at version %d\n", *queries, reg.Version())
	if *linger > 0 {
		time.Sleep(*linger)
	}
	return nil
}

// dialFleet connects to every proxy address with a pooled pipelined
// client and attaches a fleet handle over the transports.
func dialFleet(proxyList string, conns int) (*proxy.Fleet, []*pubsub.Client, error) {
	return dialFleetOpts(proxyList, pubsub.Options{Conns: conns})
}

func dialFleetOpts(proxyList string, opts pubsub.Options) (*proxy.Fleet, []*pubsub.Client, error) {
	addrs := strings.Split(proxyList, ",")
	if len(addrs) < 2 {
		return nil, nil, fmt.Errorf("need ≥ 2 proxies, got %q", proxyList)
	}
	clients := make([]*pubsub.Client, 0, len(addrs))
	transports := make([]pubsub.Transport, 0, len(addrs))
	for _, addr := range addrs {
		cli, err := pubsub.DialOptions(strings.TrimSpace(addr), opts)
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			return nil, nil, err
		}
		clients = append(clients, cli)
		transports = append(transports, cli)
	}
	attach := proxy.AttachFleet
	if opts.LazyDial {
		// Lazy dialing implies lazy attach: a down proxy must not block
		// startup, so the topic probe is deferred to first submit.
		attach = proxy.AttachFleetLazy
	}
	fleet, err := attach(transports)
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		return nil, nil, err
	}
	return fleet, clients, nil
}

func closeAll(clients []*pubsub.Client) {
	for _, c := range clients {
		c.Close()
	}
}

func runClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	proxyList := fs.String("proxies", "", "comma-separated proxy addresses (index order)")
	n := fs.Int("n", 1, "logical clients simulated by this process")
	offset := fs.Int("offset", 0, "global index of this process's first logical client")
	epochs := fs.Int("epochs", 4, "answer epochs [first-epoch, epochs)")
	firstEpoch := fs.Int("first-epoch", 0, "first epoch to answer; earlier epochs are fast-forwarded (a client process resuming after a restart)")
	conns := fs.Int("conns", 2, "TCP connections per proxy")
	batch := fs.Int("batch", 0, "shares per publish frame (0 = one frame per proxy per epoch)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent answering clients")
	minQueries := fs.Int("queries", 1, "announced queries to wait for before answering")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for query announcements")
	seed := fs.Int64("seed", 1, "system seed (client i uses seed+i+2, as in core.Config)")
	dialTimeout := fs.Duration("dial-timeout", 0, "per-connection dial timeout (0 = transport default)")
	retries := fs.Int("retries", 1, "publish attempts per proxy flush (>1 enables idempotent retry after ambiguous failures)")
	degraded := fs.Bool("degraded", false, "tolerate a dead proxy: a failed flush drops that proxy's shares for the epoch (counted) instead of aborting")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
	fs.Parse(args)
	if *n <= 0 {
		return fmt.Errorf("need ≥ 1 logical clients, got %d", *n)
	}
	if *firstEpoch < 0 || *firstEpoch > *epochs {
		return fmt.Errorf("first-epoch %d outside [0, %d]", *firstEpoch, *epochs)
	}

	fleet, tcps, err := dialFleetOpts(*proxyList, pubsub.Options{
		Conns:       *conns,
		DialTimeout: *dialTimeout,
		Seed:        *seed,
		// Degraded mode must come up even while a proxy is down; its
		// conns stay dead (fast-failing under backoff) until the proxy
		// returns, and lost flushes are dropped+counted.
		LazyDial: *degraded,
	})
	if err != nil {
		return err
	}
	defer closeAll(tcps)
	if *retries > 1 {
		fleet.SetRetryPolicy(pubsub.RetryPolicy{Attempts: *retries, Seed: *seed})
	}

	// Query distribution: follow the first proxy's control topic and
	// reconcile every logical client against the newest announced set
	// (signatures verified against the announced analyst keys).
	control, err := fleet.Proxy(0).ControlConsumer(fmt.Sprintf("clients-%d", *offset))
	if err != nil {
		return err
	}
	// One batcher per proxy, fed by each worker's lanes a chunk of clients
	// at a time and flushed by the epoch loop as one frame — O(1) round-
	// trips per (process, proxy) per epoch however many queries are active.
	clients, err := role.NewClients(fleet, control, *seed, *offset, *n, *batch, *workers, func(i int, cc *client.Config) error {
		cc.DB = minisql.NewDB()
		return populateClient(i, cc.DB)
	})
	if err != nil {
		return err
	}
	batchers := clients.Batchers()
	for _, b := range batchers {
		b.SetDegraded(*degraded)
	}

	// Provenance stamping: the answer-stream batcher (proxy 0) stamps
	// every flush with its origin context, published over the lineage
	// sidecar topic. One stamped stream per process is enough — every
	// batcher flushes the same logical answers. The stamper is installed
	// unconditionally: a proxy that is down at startup (-degraded) must
	// start receiving stamps once it returns, and a broker without the
	// lineage topic drops them silently (SubmitStamp).
	px := fleet.Proxy(0)
	batchers[0].SetStamper(func(epoch uint64, flushStartNs int64) {
		buf := lineage.AppendStamp(make([]byte, 0, lineage.StampWireSize), lineage.Stamp{
			Epoch:        epoch,
			FlushStartNs: flushStartNs,
		})
		// Stamps are advisory: a failed publish costs observability,
		// never the data path.
		if err := px.SubmitStamp(buf); err != nil {
			nodeLog.Warn("lineage stamp", "err", err)
		}
	})
	follower := clients.Follower()
	if err := follower.WaitActive(*minQueries, *wait); err != nil {
		return err
	}
	fmt.Printf("picked up %d queries at version %d\n",
		follower.Applier().ActiveQueries(), follower.Applier().Applied().Version)

	// Telemetry: the client role's own source — the fleet's answer
	// counters and its shared batchers' degraded-mode accounting, summed.
	tel := telemetry.NewRegistry()
	tel.RegisterSource(clients)
	stopMetrics, err := serveMetrics(*metricsAddr, tel)
	if err != nil {
		return err
	}
	defer stopMetrics()

	if *firstEpoch > 0 {
		// Resume semantics: skip the epochs a previous life already
		// answered, advancing each subscription's coin stream exactly as
		// answering them would have.
		if err := clients.FastForward(0, uint64(*firstEpoch)); err != nil {
			return err
		}
		fmt.Printf("fast-forwarded to epoch %d\n", *firstEpoch)
	}

	for e := uint64(*firstEpoch); e < uint64(*epochs); e++ {
		// The epoch applies any announcements that arrived since the last
		// one — networked deployments pick up (and drop) queries mid-run —
		// and idles while every query is stopped.
		_, participants, err := clients.Epoch(e, nil)
		if err != nil {
			return err
		}
		if follower.Applier().ActiveQueries() == 0 {
			fmt.Printf("epoch %d: no active queries\n", e)
			continue
		}
		fmt.Printf("epoch %d: %d/%d participated\n", e, participants, *n)
	}
	var answers, bytes, dropped int64
	for _, c := range clients.Clients() {
		st := c.Stats()
		answers += st.AnswersSent
		bytes += st.BytesSent
	}
	perProxy := make([]int64, len(batchers))
	for i, b := range batchers {
		perProxy[i] = b.Dropped()
		dropped += perProxy[i]
	}
	fmt.Printf("clients %d..%d done: %d answers, %d bytes, %d shares dropped (per proxy: %s)\n",
		*offset, *offset+*n-1, answers, bytes, dropped, joinCounts(perProxy))
	return nil
}

func runAggregator(args []string) error {
	fs := flag.NewFlagSet("aggregator", flag.ExitOnError)
	proxyList := fs.String("proxies", "", "comma-separated proxy addresses (index order)")
	clients := fs.Int("clients", 3, "population size U")
	epochs := fs.Int("epochs", 4, "epochs to wait for")
	conns := fs.Int("conns", 2, "TCP connections per proxy")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for a first query announcement")
	seed := fs.Int64("seed", 1, "system seed (the aggregator uses seed+1, as in core.Config)")
	idle := fs.Duration("idle", 3*time.Second, "stop after this long without new shares")
	dataDir := fs.String("data-dir", "", "checkpoint directory: the aggregator journals its state after every drain and resumes from the newest checkpoint on restart")
	fsync := fs.String("fsync", "never", "checkpoint WAL fsync policy: never, interval, every-batch")
	pollMax := fs.Int("poll-max", 4096, "records per poll (small values tighten checkpoint granularity)")
	holdAfter := fs.Int64("hold-after", 0, "testing hook: after this many decoded answers, checkpoint (with -data-dir) and block forever (a SIGKILL window for the crash gate)")
	cards := fs.String("cards", "", "append-only JSONL result-card log (empty = memory-only ring; with -data-dir defaults to <data-dir>/cards.jsonl)")
	printCards := fs.Bool("print-cards", false, "print each fired window's deterministic card line under a CARDS marker before exiting")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
	fs.Parse(args)

	fleet, tcps, err := dialFleet(*proxyList, *conns)
	if err != nil {
		return err
	}
	defer closeAll(tcps)

	agg, err := aggregator.NewMulti(aggregator.Config{
		Population: *clients,
		Proxies:    fleet.Size(),
		Origin:     defaultOrigin,
		Seed:       *seed + 1,
	})
	if err != nil {
		return err
	}
	// The aggregator role the in-process pipeline drains with, here over
	// the TCP transports. It learns its queries from the control topic the
	// clients follow — nothing about them is configured here — and keeps
	// following it: a query announced mid-run opens before its first
	// answers decode. A restart restores its checkpoint, replaying the
	// topic to the checkpoint's control position, before it waits.
	consumers, err := fleet.Consumers("aggregator")
	if err != nil {
		return err
	}
	control, err := fleet.Proxy(0).ControlConsumer("aggregator-control")
	if err != nil {
		return err
	}
	drain := role.NewDrain(agg, consumers, control)
	follower := drain.Follower()

	// Telemetry: the aggregator's own accounting plus the epoch tracer's
	// stage totals (drain points, join time via SubmitShareBatch, fires).
	tel := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	agg.SetTracer(tracer)
	tel.RegisterSource(agg)
	tel.RegisterSource(tracer)

	// The provenance recorder: one result card per fired window, a
	// bounded in-memory ring for /debug/privapprox/windows, and — when a
	// card log is configured — JSONL wide events with exactly-once
	// emission across restarts (the log's own scan is the dedup source).
	if *cards == "" && *dataDir != "" {
		*cards = filepath.Join(*dataDir, "cards.jsonl")
	}
	rec, err := lineage.NewRecorder(lineage.Options{Path: *cards, Registry: tel})
	if err != nil {
		return err
	}
	defer rec.Close()
	tel.RegisterSource(rec)
	agg.SetCardSink(rec)
	stopMetrics, err := serveMetrics(*metricsAddr, tel,
		telemetry.Route{Pattern: "/debug/privapprox/windows", Handler: rec.Handler()})
	if err != nil {
		return err
	}
	defer stopMetrics()

	// Lineage sidecar drain: batch stamps are folded into the recorder
	// before each share sweep, so a window firing during the sweep sees
	// the flush stamps of the epochs that fed it. Positions are not
	// checkpointed — re-observing stamps after a restart is harmless.
	lineageConsumers, err := fleet.LineageConsumers("aggregator-lineage")
	if err != nil {
		return err
	}
	drainStamps := func() {
		for _, lc := range lineageConsumers {
			runs, err := lc.PollRuns(256, 0)
			if err != nil {
				continue
			}
			// A record that is no stamp is skipped and counted by the
			// recorder (privapprox_lineage_stamps_malformed_total).
			for _, r := range runs {
				for i := range r.Count {
					rec.ObserveStamp(r.Val(i))
				}
			}
		}
	}

	// The stop target follows the query set: every client answers every
	// epoch of every query the aggregator holds, re-read after each round.
	expected := func() int64 {
		return int64(*clients) * int64(*epochs) * int64(follower.Applier().ActiveQueries())
	}
	var ck *checkpointer
	var results []aggregator.Result
	if *dataDir != "" {
		if ck, results, err = openCheckpointer(*dataDir, *fsync, agg, drain, tel, rec); err != nil {
			return err
		}
		defer ck.log.Close()
	}
	if err := follower.WaitActive(1, *wait); err != nil {
		return err
	}
	fmt.Printf("aggregating %d queries from announcement version %d\n",
		follower.Applier().ActiveQueries(), follower.Applier().Applied().Version)

	// One loop for both modes. Each round that made progress is made
	// permanent: committed at once, or — with -data-dir — checkpointed
	// first and committed after. Without -data-dir fired windows print as
	// they fire; with it they are held for the final RESULTS block, which
	// a restarted run must reproduce byte for byte.
	fmt.Printf("aggregator waiting for up to %d answers (idle timeout %v)\n", expected(), *idle)
	lastProgress := time.Now()
	for agg.Stats().Decoded < expected() && time.Since(lastProgress) < *idle {
		drainStamps()
		fired, n, err := drain.Round(*pollMax, 50*time.Millisecond)
		if ck == nil {
			printResults(fired)
		} else {
			results = append(results, fired...)
		}
		if err != nil {
			return err
		}
		if n == 0 {
			continue
		}
		lastProgress = time.Now()
		if ck == nil {
			err = drain.Commit()
		} else {
			err = ck.save(results)
		}
		if err != nil {
			return err
		}
		if *holdAfter > 0 && agg.Stats().Decoded >= *holdAfter {
			// The crash gate's kill window: state is durable, the stream
			// is mid-flight, and the process now hangs until SIGKILLed.
			fmt.Println("holding for kill")
			select {}
		}
	}
	final, err := agg.Flush()
	if err != nil {
		return err
	}
	if ck == nil {
		printResults(final)
	} else {
		results = append(results, final...)
		if err := ck.save(results); err != nil {
			return err
		}
		fmt.Println("RESULTS")
		fmt.Print(formatResults(results))
	}
	printStatsLine(agg, drain)
	if *printCards {
		printCardLines(rec)
	}
	return nil
}

// printCardLines renders every retained card's deterministic line,
// sorted, under a "CARDS" marker. The lineage gate compares these
// lines byte for byte across deployment shapes, so only the
// seed-determined card fields appear.
func printCardLines(rec *lineage.Recorder) {
	cards := rec.Cards(nil)
	lines := make([]string, len(cards))
	for i, c := range cards {
		lines[i] = c.DeterministicLine()
	}
	sort.Strings(lines)
	fmt.Println("CARDS")
	for _, l := range lines {
		fmt.Println(l)
	}
}

// printStatsLine prints the aggregator's counters and, after them, what
// the multi-process smoke tests need to check the share ledger
// (role.Balance): each proxy's fetched total, and the pending and swept
// joins.
func printStatsLine(agg *aggregator.Aggregator, drain *role.Drain) {
	st := agg.Stats()
	fmt.Printf("decoded=%d malformed=%d duplicates=%d unknown=%d mismatched=%d fetched=%s pending=%d swept=%d\n",
		st.Decoded, st.Malformed, st.Duplicates, st.UnknownQuery, st.LengthMismatch,
		joinCounts(role.Fetched(drain.Consumers())), agg.PendingJoins(), st.Swept)
}

// joinCounts renders per-proxy counts as a comma-separated list.
func joinCounts(counts []int64) string {
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = strconv.FormatInt(n, 10)
	}
	return strings.Join(parts, ",")
}

// checkpointer is the durable aggregator's checkpoint hook: one role
// checkpoint record per save, appended to a WAL under -data-dir, where a
// restarted aggregator (same flags, same proxies) finds the newest and
// resumes from it — the final result block it prints is byte-identical
// to an uninterrupted run's: no lost windows, no double-counted answers.
type checkpointer struct {
	log   *wal.Log
	drain *role.Drain
	agg   *aggregator.Aggregator
	cards *lineage.Recorder
}

// openCheckpointer opens the checkpoint log and restores the newest
// record in it, returning the results fired before the restart.
func openCheckpointer(dataDir, fsync string, agg *aggregator.Aggregator, drain *role.Drain, tel *telemetry.Registry, cards *lineage.Recorder) (*checkpointer, []aggregator.Result, error) {
	policy, err := wal.ParsePolicy(fsync)
	if err != nil {
		return nil, nil, err
	}
	// Old checkpoints are garbage once superseded: rotate small segments
	// and drop everything below the newest record after each append.
	log, err := wal.Open(filepath.Join(dataDir, "aggregator"), wal.Options{
		Policy:       policy,
		SegmentBytes: 1 << 20,
		AppendHist:   tel.Histogram("privapprox_wal_append_ns"),
		FsyncHist:    tel.Histogram("privapprox_wal_fsync_ns"),
	})
	if err != nil {
		return nil, nil, err
	}
	var newest []byte
	err = log.Replay(0, func(_ uint64, _ int, payload []byte) error {
		newest = append(newest[:0], payload...)
		return nil
	})
	var results []aggregator.Result
	if err == nil && newest != nil {
		results, err = drain.Restore(newest, nil)
	}
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	ck := &checkpointer{log: log, drain: drain, agg: agg, cards: cards}
	if newest != nil {
		fmt.Printf("restored checkpoint: %d results, %d answers decoded\n", len(results), ck.agg.Stats().Decoded)
	}
	return ck, results, nil
}

// save checkpoints the aggregator with every result fired so far, then
// commits what the checkpoint covers.
func (ck *checkpointer) save(results []aggregator.Result) error {
	// Card-before-checkpoint barrier: a window fired before this
	// checkpoint never re-fires after restore, so its card must be
	// durable in the JSONL log by the time the checkpoint is.
	if err := ck.cards.Sync(); err != nil {
		return err
	}
	payload, err := ck.drain.Checkpoint(nil, results)
	if err != nil {
		return err
	}
	lsn, err := ck.log.Append(1, payload)
	if err != nil {
		return err
	}
	// Whole segments strictly below the newest checkpoint are dead.
	if err := ck.log.TruncateFront(lsn); err != nil {
		return err
	}
	// Checkpoint first, commit second: a crash between the two resumes
	// from this checkpoint and merely finds the proxies' floors behind it.
	if err := ck.drain.Commit(); err != nil {
		return err
	}
	fmt.Printf("checkpoint lsn=%d decoded=%d results=%d\n", lsn, ck.agg.Stats().Decoded, len(results))
	return nil
}

// formatResults renders fired windows in the node's canonical result
// format; the multi-process smoke tests render their in-process
// reference runs through the same function and compare byte for byte.
func formatResults(results []aggregator.Result) string {
	var b strings.Builder
	for _, res := range results {
		fmt.Fprintf(&b, "query %s window [%s → %s): %d answers\n",
			res.Query, res.Window.Start.Format("15:04:05"), res.Window.End.Format("15:04:05"), res.Responses)
		for _, bk := range res.Buckets {
			fmt.Fprintf(&b, "  %-12s %10.1f ± %.1f\n", bk.Label, bk.Estimate.Estimate, bk.Estimate.Margin)
		}
	}
	return b.String()
}

func printResults(results []aggregator.Result) {
	if len(results) > 0 {
		fmt.Print(formatResults(results))
	}
}
