package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one named figure of BENCHMARK.json (or, without a unit, one
// of its workloads).
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is what the benchmark takes from BENCHMARK.json: the names and
// units it must emit. They are written there only; this program holds the
// workload shapes and how each metric is computed.
type manifest struct {
	RunSeconds int      `json:"run_seconds"`
	Workloads  []metric `json:"workloads"`
	EndToEnd   []metric `json:"end_to_end"`
	PerLayer   []metric `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json and checks that it names exactly the
// workloads this program has.
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var have, want []string
	for _, sp := range specs {
		have = append(have, sp.name)
	}
	for _, w := range man.Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(have, want) {
		return nil, fmt.Errorf("%s names workloads %v, the benchmark has %v", path, want, have)
	}
	return &man, nil
}

const (
	rounds = 3 // pipelines the untraced run sets up, one after the other

	// Shares of a workload's epochs the traced run spends on its main
	// pipeline (half of the segments traced) and on the journal-off twin.
	tracedShare = 0.7
	twinShare   = 0.3
)

// options is what main passes to every run.
type options struct {
	seed    int64
	scratch string // directory for WAL files and span files
	man     *manifest
}

// report is one run of one workload.
type report struct {
	workload  string
	traced    bool
	names     []metric // the manifest's metrics for this kind of run
	metrics   map[string]float64
	p95       float64 // untraced: window_latency_p95_ms, printed but not in the result line
	attempted int64
	failed    int64
	problems  []string
	epochs    int
	segments  int
	samples   int // window latency samples (untraced) or spans (traced)
	spanFile  string
}

// rig is one set-up pipeline with its checker.
type rig struct {
	in         *inputs
	p          pipeline
	chk        *checker
	dir        string
	epochStart []time.Time // when the driver started answering each epoch
	measuring  bool
	latencies  []float64 // ms, one per window fired while measuring
}

// setUp does everything that comes before the first measured epoch: the
// checker's reference run (unless the caller already has one for these
// inputs), building and wiring the pipeline (populate, sign, verify,
// subscribe, listen, dial) and the warm-up epochs.
func setUp(in *inputs, ref map[windowKey]string, o options) (_ *rig, err error) {
	sp := in.spec
	if ref == nil {
		if ref, err = reference(in); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	dir, err := os.MkdirTemp(o.scratch, sp.name+"-")
	if err != nil {
		return nil, err
	}
	r := &rig{in: in, chk: newChecker(in, ref), dir: dir}
	defer func() {
		if err != nil {
			r.tearDown()
		}
	}()
	// Workers = Shards = GOMAXPROCS, which main pins.
	n := runtime.GOMAXPROCS(0)
	if r.p, err = build(in, n, n, dir); err != nil {
		return nil, err
	}
	for i := 0; i < sp.warmup; i++ {
		if err := r.step(nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tearDown may be called more than once.
func (r *rig) tearDown() error {
	var err error
	if r.p != nil {
		err = r.p.close()
		r.p = nil
	}
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

// step runs the next epoch of the closed loop: epoch e+1 starts only
// once epoch e has been answered, drained and fired. With a tracer it is
// the staged, traced drive.
func (r *rig) step(tr *tracer) error {
	e := uint64(len(r.epochStart))
	r.epochStart = append(r.epochStart, time.Now())
	var fs []fired
	var err error
	if tr == nil {
		fs, err = r.p.epoch(e)
	} else {
		fs, err = r.p.tracedEpoch(e, tr)
	}
	for _, f := range fs {
		r.chk.observe(f.res)
		if r.measuring {
			last := lastEpochOf(f.res.Window.End)
			r.latencies = append(r.latencies, float64(f.at.Sub(r.epochStart[last]))/1e6)
		}
	}
	return err
}

// liveHeap is what the pipeline retains: the heap in use after a forced
// collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// measured is the outcome of one timed phase.
type measured struct {
	rates    []float64 // answers decoded per second, one per segment
	answers  []int64   // answers decoded, one per segment
	traced   []bool    // whether the segment ran the traced drive
	mallocs  uint64
	heapMB   float64
	maxQueue int64 // largest single-partition backlog seen at a segment end
	maxJoins int
}

// measure runs the given number of segments. With a tracer, half of them
// run the traced drive and the rest the plain one, so both meet the same
// heap sizes and the same stretches of machine time. Which half is drawn
// from the seed, not alternated: collections come at regular intervals,
// and a regular pattern would keep handing them to one side.
func (r *rig) measure(segments int, tr *tracer) (measured, error) {
	sp := r.in.spec
	m := measured{traced: make([]bool, segments)}
	if tr != nil {
		for _, seg := range rand.New(rand.NewSource(r.in.seed)).Perm(segments)[:segments/2] {
			m.traced[seg] = true
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decoded := r.p.counters().agg.Decoded
	r.measuring = true
	defer func() { r.measuring = false }()
	for seg := 0; seg < segments; seg++ {
		var segTr *tracer
		if m.traced[seg] {
			segTr = tr
		}
		t0 := time.Now()
		for k := 0; k < sp.segEpochs; k++ {
			if err := r.step(segTr); err != nil {
				return m, err
			}
		}
		dt := time.Since(t0)
		cnt := r.p.counters()
		m.rates = append(m.rates, float64(cnt.agg.Decoded-decoded)/dt.Seconds())
		m.answers = append(m.answers, cnt.agg.Decoded-decoded)
		decoded = cnt.agg.Decoded
		m.maxQueue = max(m.maxQueue, cnt.broker.MaxBacklog)
		m.maxJoins = max(m.maxJoins, cnt.pendingJoins)
	}
	runtime.ReadMemStats(&m1)
	m.mallocs = m1.Mallocs - m0.Mallocs
	m.heapMB = liveHeap()
	return m, nil
}

// only returns the values of the segments that ran the traced drive, or of
// those that ran the plain one.
func only[T any](v []T, traced []bool, want bool) []T {
	var out []T
	for i, x := range v {
		if traced[i] == want {
			out = append(out, x)
		}
	}
	return out
}

func sum(v []int64) float64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s)
}

// finish flushes, checks and adds to the report's operation counts. With a
// tracer the flush, which closes and estimates every window still open,
// is recorded as the fire span; it returns how many windows that was.
func (r *rig) finish(rep *report, tr *tracer) (int, error) {
	id := 0
	if tr != nil {
		id = tr.begin(spanFire, -1, uint64(len(r.epochStart)))
	}
	rest, err := r.p.flush()
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		return 0, err
	}
	for _, res := range rest {
		r.chk.observe(res)
	}
	epochs := len(r.epochStart)
	attempted, failed, err := r.chk.finish(r.p.counters(), epochs)
	rep.epochs += epochs
	rep.attempted += attempted
	rep.failed += failed
	rep.problems = append(rep.problems, r.chk.problems...)
	return len(rest), err
}

// runUntraced measures the end-to-end metrics. The workload's epochs are
// split over rounds, each with a pipeline set up afresh, and every metric
// is the median over the rounds: a round meets the machine in a different
// state, so the median sheds what one slow stretch does to a run, and
// set-up time gets its several samples on the way.
func runUntraced(sp spec, o options) (*report, error) {
	in, err := makeInputs(sp, o.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: sp.name, names: o.man.EndToEnd}
	perRound := make(map[string][]float64)
	var p95 []float64
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		r, err := setUp(in, nil, o)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		m, err := r.measure(sp.epochs/sp.segEpochs/rounds, nil)
		if err == nil {
			_, err = r.finish(rep, nil)
		}
		if cerr := r.tearDown(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		rep.segments += len(m.rates)
		rep.samples += len(r.latencies)
		sort.Float64s(r.latencies)
		p95 = append(p95, percentile(r.latencies, 95))
		for name, v := range map[string]float64{
			"answers_per_s":         median(m.rates),
			"window_latency_p50_ms": percentile(r.latencies, 50),
			"allocs_per_answer":     float64(m.mallocs) / sum(m.answers),
			"live_heap_mb":          m.heapMB,
			"setup_s":               setup,
		} {
			perRound[name] = append(perRound[name], v)
		}
	}
	rep.metrics = make(map[string]float64)
	for name, v := range perRound {
		rep.metrics[name] = median(v)
	}
	rep.p95 = median(p95)
	return rep, nil
}

func durOf(totals map[string]*spanTotals, name string) float64 {
	if t := totals[name]; t != nil {
		return float64(t.dur)
	}
	return 0
}

// evenSegments turns a share of the workload's epochs into an even number
// of segments, half to trace.
func evenSegments(sp spec, share float64) int {
	n := int(share * float64(sp.epochs/sp.segEpochs))
	return max(n+n%2, 2)
}

// runTraced measures the per-layer metrics: one pipeline driven in plain
// and traced segments, then the kernel replays.
func runTraced(sp spec, o options) (*report, error) {
	in, err := makeInputs(sp, o.seed)
	if err != nil {
		return nil, err
	}
	r, err := setUp(in, nil, o)
	if err != nil {
		return nil, err
	}
	defer r.tearDown()

	tr := newTracer()
	m, err := r.measure(evenSegments(sp, tracedShare), tr)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: sp.name, traced: true, names: o.man.PerLayer, segments: len(m.rates)}
	windows, err := r.finish(rep, tr)
	if err != nil {
		return nil, err
	}
	totals, err := tr.analyze()
	if err != nil {
		return nil, err
	}
	rep.samples = len(tr.spans)
	rep.spanFile = filepath.Join(o.scratch, "spans-"+sp.name+".json")
	if err := tr.write(rep.spanFile); err != nil {
		return nil, err
	}
	cnt := r.p.counters()
	var walBytes int64
	if sp.durable {
		if walBytes, err = dirSize(r.dir); err != nil {
			return nil, err
		}
	}
	if err := r.tearDown(); err != nil {
		return nil, err
	}

	answers := sum(only(m.answers, m.traced, true)) // in the traced segments
	shares := answers * proxies
	wall := durOf(totals, spanEpoch)
	answerNs := durOf(totals, spanAnswer) / answers

	// The WAL's cost seen from outside: the answer stage of the same
	// inputs with the journal off. In-process publishes happen inside
	// AnswerEpoch, so the journal write shows up in the answer span.
	var walDelta float64
	if sp.durable {
		twin := *in
		twin.spec.durable = false
		r2, err := setUp(&twin, r.chk.ref, o)
		if err != nil {
			return nil, err
		}
		tr2 := newTracer()
		m2, err := r2.measure(evenSegments(sp, twinShare), tr2)
		var t2 map[string]*spanTotals
		if err == nil {
			t2, err = tr2.analyze()
		}
		if cerr := r2.tearDown(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		walDelta = answerNs - durOf(t2, spanAnswer)/sum(only(m2.answers, m2.traced, true))
	}

	rp, err := runReplays(in, o.scratch)
	if err != nil {
		return nil, err
	}
	sort.Float64s(r.latencies)
	transport := durOf(totals, spanFlush) + durOf(totals, spanFetch) + durOf(totals, spanDecode)
	rep.metrics = map[string]float64{
		"minisql.eval_ns":     rp.evalNs,
		"minisql.eval_allocs": rp.evalAllocs,
		"sampling.decide_ns":  rp.decideNs / sp.s, // 1/s decisions per answer
		"query.bucketize_ns":  rp.bucketizeNs,
		"rr.respond_ns":       rp.respondNs,
		"answer.encode_ns":    rp.encodeNs,
		"xorcrypt.split_ns":   rp.splitNs,
		"replay_sum_ns":       rp.decideNs/sp.s + rp.evalNs + rp.bucketizeNs + rp.respondNs + rp.encodeNs + rp.splitNs,

		"client.answer_ns":      answerNs,
		"client.flush_ns":       durOf(totals, spanFlush) / answers,
		"client.shares_dropped": float64(cnt.dropped),

		"pubsub.publish_ns":            durOf(totals, spanPub) / shares,
		"pubsub.fetch_ns":              durOf(totals, spanFetch) / shares,
		"proxy.decode_ns":              durOf(totals, spanDecode) / shares,
		"pubsub.wire_bytes_per_answer": float64(cnt.broker.BytesIn) / float64(cnt.agg.Decoded),
		"pubsub.frames_per_epoch":      float64(cnt.frames) / float64(rep.epochs),
		"pubsub.backlog_max":           float64(m.maxQueue),

		"wal.append_ns":        rp.walAppendNs,
		"wal.bytes_per_answer": float64(walBytes) / float64(cnt.agg.Decoded),
		"wal.answer_delta_ns":  walDelta,

		"aggregator.submit_ns":          durOf(totals, spanSubmit) / answers,
		"aggregator.fire_ns_per_window": durOf(totals, spanFire) / float64(max(windows, 1)),
		"aggregator.decoded":            float64(cnt.agg.Decoded),
		"aggregator.late":               float64(cnt.agg.Late),
		"aggregator.duplicate":          float64(cnt.agg.Duplicates),
		"aggregator.malformed":          float64(cnt.agg.Malformed),
		"aggregator.pending_joins_max":  float64(m.maxJoins),

		"core.epoch_wall_ns":   wall / answers,
		"core.unattributed_ns": float64(totals[spanEpoch].self) / answers,
		"share.answer_pct":     100 * durOf(totals, spanAnswer) / wall,
		"share.transport_pct":  100 * transport / wall,
		"share.aggregator_pct": 100 * durOf(totals, spanSubmit) / wall,
		// Plain and traced segments share one pipeline, and both sides
		// are the statistic answers_per_s uses, so neither the growing
		// heap nor a collection that lands in one segment passes for
		// overhead.
		"trace_overhead_pct": 100 * (median(only(m.rates, m.traced, false))/median(only(m.rates, m.traced, true)) - 1),
		// Diagnostic: over every window fired while measuring, in plain
		// and traced segments alike.
		"window_latency_p95_ms": percentile(r.latencies, 95),
	}
	return rep, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
