package lineage

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"privapprox/internal/telemetry"
)

// defaultRing bounds the cards kept resident for /debug/privapprox/windows.
const defaultRing = 256

// Options configures a Recorder.
type Options struct {
	// Ring is the number of cards retained in memory (default 256).
	Ring int
	// Path, when non-empty, is the append-only JSONL card log. The
	// file is scanned on open: windows already logged are suppressed
	// on re-emission (exactly-once across crash/restore) and a torn
	// final line from a crash is truncated away.
	Path string
	// Registry, when non-nil, receives the privapprox_window_e2e_ns
	// histogram; the Recorder itself is a Source for the rest of its
	// series and should be passed to RegisterSource.
	Registry *telemetry.Registry
	// Tracer, when non-nil, supplies the cumulative per-stage busy
	// legs copied onto each card.
	Tracer *telemetry.Tracer
}

// epochStamps folds the stamps observed for one epoch: how many batch
// flushes carried its shares and the earliest flush start, which anchors
// the end-to-end latency of every window the epoch feeds.
type epochStamps struct {
	batches  int
	minFlush int64
}

// stampCap bounds the epoch → stamp fold map; the oldest epoch is
// evicted when full (windows fire in rough epoch order, so the oldest
// entries are the ones already consumed).
const stampCap = 4096

// Recorder is the card sink: it dedups against the JSONL log, enriches
// cards with stamp-derived latency and tracer stage legs, retains a
// bounded ring for the debug endpoint, appends the JSONL wide event,
// and summarizes cards as Prometheus series. All methods are
// concurrent-safe; EmitCard runs at fire cadence, never share cadence.
type Recorder struct {
	mu      sync.Mutex
	ring    []Card
	next    int
	count   int64
	file    *os.File
	through map[string]int64 // query → max window start already emitted
	stamps  map[uint64]*epochStamps
	latest  map[string]Card // query → most recent card, for labeled gauges

	emitted    atomic.Int64
	suppressed atomic.Int64
	stamped    atomic.Int64
	malformed  atomic.Int64 // lineage records refused by DecodeStamp
	writeErrs  atomic.Int64

	e2e    *telemetry.Histogram
	tracer *telemetry.Tracer
}

// NewRecorder opens a card recorder. With a Path, the existing JSONL
// log is scanned to rebuild the suppression watermark per query (a
// crash loses at most a suffix of an append-only log, so the per-query
// maximum window start is exactly the set of durably emitted windows)
// and a torn trailing line is truncated.
func NewRecorder(opts Options) (*Recorder, error) {
	ring := opts.Ring
	if ring <= 0 {
		ring = defaultRing
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Recorder{
		ring:    make([]Card, ring),
		through: make(map[string]int64),
		stamps:  make(map[uint64]*epochStamps),
		latest:  make(map[string]Card),
		e2e:     reg.Histogram("privapprox_window_e2e_ns"),
		tracer:  opts.Tracer,
	}
	if opts.Path != "" {
		if err := r.openLog(opts.Path); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// openLog scans an existing card log, truncates a torn tail, and leaves
// the file positioned for appends.
func (r *Recorder) openLog(path string) error {
	// The recorder opens before the durable state machinery has
	// necessarily created the data directory.
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("lineage: card log dir: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("lineage: open card log: %w", err)
	}
	// A card is a newline-terminated line. A crash can tear EmitCard's
	// write at any byte, so an unterminated tail — even a whole card short
	// of its newline — is torn and truncated.
	good := int64(0)
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("lineage: scan card log: %w", err)
		}
		var c Card
		if json.Unmarshal(line, &c) != nil || c.Query == "" {
			break // torn or foreign line: stop trusting from here on
		}
		good += int64(len(line))
		if cur, ok := r.through[c.Query]; !ok || c.WindowStart > cur {
			r.through[c.Query] = c.WindowStart
		}
	}
	if st, err := f.Stat(); err == nil && st.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("lineage: truncate torn card log tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("lineage: seek card log: %w", err)
	}
	r.file = f
	return nil
}

// ObserveStamp decodes one record of the lineage topic and folds the
// batch stamp into the per-epoch origin state. Called from the lineage
// topic drain, off the share hot path. A record that does not decode —
// a torn or foreign record, or a stamp of another version — is skipped
// and counted as malformed, never a reason to stop reading.
func (r *Recorder) ObserveStamp(record []byte) {
	s, err := DecodeStamp(record)
	if err != nil {
		r.malformed.Add(1)
		return
	}
	r.stamped.Add(1)
	r.mu.Lock()
	es := r.stamps[s.Epoch]
	if es == nil {
		if len(r.stamps) >= stampCap {
			oldest := uint64(0)
			first := true
			for e := range r.stamps {
				if first || e < oldest {
					oldest, first = e, false
				}
			}
			delete(r.stamps, oldest)
		}
		es = &epochStamps{minFlush: s.FlushStartNs}
		r.stamps[s.Epoch] = es
	} else if s.FlushStartNs < es.minFlush {
		es.minFlush = s.FlushStartNs
	}
	es.batches++
	r.mu.Unlock()
}

// EmitCard finalizes and records one window card. Duplicate windows —
// re-fired after a crash restore when the card already reached the log
// — are suppressed, making card emission exactly-once per (query,
// window) across restarts. Enrichment (stamp E2E, tracer stage legs)
// happens here so the aggregator hands over only its own accounting.
func (r *Recorder) EmitCard(c Card) error {
	if r.tracer != nil {
		c.StageNs = make(map[string]int64, int(telemetry.NumStages))
		for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
			c.StageNs[s.String()] = int64(r.tracer.TotalBusy(s))
		}
	}
	r.mu.Lock()
	if cur, ok := r.through[c.Query]; ok && c.WindowStart <= cur {
		r.mu.Unlock()
		r.suppressed.Add(1)
		return nil
	}
	c.E2ENs = -1
	for e := c.EpochFirst; e <= c.EpochLast; e++ {
		if es, ok := r.stamps[e]; ok {
			c.Stamps += es.batches
			if lat := c.FiredAtNs - es.minFlush; c.E2ENs < 0 || lat > c.E2ENs {
				c.E2ENs = lat
			}
		}
	}
	r.through[c.Query] = c.WindowStart
	r.latest[c.Query] = c
	r.ring[r.next] = c
	r.next = (r.next + 1) % len(r.ring)
	r.count++
	var err error
	if r.file != nil {
		line, merr := json.Marshal(c)
		if merr != nil {
			err = merr
		} else if _, werr := r.file.Write(append(line, '\n')); werr != nil {
			err = werr
		}
	}
	r.mu.Unlock()
	r.emitted.Add(1)
	if c.E2ENs >= 0 {
		r.e2e.Observe(c.E2ENs)
	}
	if err != nil {
		r.writeErrs.Add(1)
		return fmt.Errorf("lineage: append card: %w", err)
	}
	return nil
}

// Sync flushes the card log to stable storage. The durable node calls
// it inside the checkpoint barrier: a window fired before a checkpoint
// never re-fires after restore, so its card must be durable by the time
// the checkpoint is.
func (r *Recorder) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.file == nil {
		return nil
	}
	return r.file.Sync()
}

// Close syncs and closes the card log.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.file == nil {
		return nil
	}
	err := r.file.Sync()
	if cerr := r.file.Close(); err == nil {
		err = cerr
	}
	r.file = nil
	return err
}

// Cards appends the retained cards to dst, oldest first.
func (r *Recorder) Cards(dst []Card) []Card {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.count
	if n > int64(len(r.ring)) {
		n = int64(len(r.ring))
	}
	first := (r.next - int(n) + len(r.ring)) % len(r.ring)
	for i := int64(0); i < n; i++ {
		dst = append(dst, r.ring[(first+int(i))%len(r.ring)])
	}
	return dst
}

// Emitted returns the number of cards recorded (excluding suppressed).
func (r *Recorder) Emitted() int64 { return r.emitted.Load() }

// Suppressed returns the number of duplicate cards dropped.
func (r *Recorder) Suppressed() int64 { return r.suppressed.Load() }

// windowsPage is the /debug/privapprox/windows response body.
type windowsPage struct {
	Emitted         int64  `json:"emitted"`
	Suppressed      int64  `json:"suppressed"`
	Stamps          int64  `json:"stamps"`
	StampsMalformed int64  `json:"stamps_malformed"`
	Cards           []Card `json:"cards"`
}

// Handler serves the retained cards as JSON at the debug endpoint.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		page := windowsPage{
			Emitted:         r.emitted.Load(),
			Suppressed:      r.suppressed.Load(),
			Stamps:          r.stamped.Load(),
			StampsMalformed: r.malformed.Load(),
			Cards:           r.Cards(make([]Card, 0, defaultRing)),
		}
		if page.Cards == nil {
			page.Cards = []Card{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(page)
	})
}

// AppendSamples makes the Recorder a telemetry Source: card flow
// counters plus, per query, the latest window's CI width and realized
// sampling fraction as labeled gauges.
func (r *Recorder) AppendSamples(dst []Sample) []Sample {
	dst = append(dst,
		Sample{Name: "privapprox_window_cards_emitted_total", Value: float64(r.emitted.Load()), Kind: telemetry.KindCounter},
		Sample{Name: "privapprox_window_cards_suppressed_total", Value: float64(r.suppressed.Load()), Kind: telemetry.KindCounter},
		Sample{Name: "privapprox_lineage_stamps_total", Value: float64(r.stamped.Load()), Kind: telemetry.KindCounter},
		Sample{Name: "privapprox_lineage_stamps_malformed_total", Value: float64(r.malformed.Load()), Kind: telemetry.KindCounter},
		Sample{Name: "privapprox_lineage_write_errors_total", Value: float64(r.writeErrs.Load()), Kind: telemetry.KindCounter},
	)
	r.mu.Lock()
	queries := make([]string, 0, len(r.latest))
	for q := range r.latest {
		queries = append(queries, q)
	}
	sort.Strings(queries)
	for _, q := range queries {
		c := r.latest[q]
		dst = append(dst,
			Sample{Name: "privapprox_window_ci_width", LabelKey: "query", LabelValue: q, Value: float64(c.CIWidth), Kind: telemetry.KindGauge},
			Sample{Name: "privapprox_window_realized_fraction", LabelKey: "query", LabelValue: q, Value: float64(c.Realized), Kind: telemetry.KindGauge},
		)
	}
	r.mu.Unlock()
	return dst
}

// Sample aliases the telemetry sample type so Recorder satisfies
// telemetry.Source without callers importing both packages.
type Sample = telemetry.Sample
