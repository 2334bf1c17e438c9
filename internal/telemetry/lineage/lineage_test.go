package lineage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"privapprox/internal/telemetry"
)

func TestStampRoundTrip(t *testing.T) {
	in := Stamp{Epoch: 7, FlushStartNs: 1_700_000_000_123}
	wire := AppendStamp(nil, in)
	if len(wire) != StampWireSize || StampWireSize != 17 {
		t.Fatalf("encoded %d bytes, StampWireSize %d, want 17", len(wire), StampWireSize)
	}
	if wire[0] != 2 {
		t.Fatalf("version byte %d, want 2", wire[0])
	}
	out, err := DecodeStamp(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// v1Stamp is a stamp in the retired version-1 layout: version | u64
// epoch | u32 group | u64 flush sequence | u32 shares | i64 flush start
// | i64 publish | i64 monotonic, 49 bytes.
func v1Stamp(epoch uint64, flushStartNs int64) []byte {
	b := []byte{1}
	b = binary.BigEndian.AppendUint64(b, epoch)
	b = binary.BigEndian.AppendUint32(b, 3)
	b = binary.BigEndian.AppendUint64(b, 41)
	b = binary.BigEndian.AppendUint32(b, 12)
	b = binary.BigEndian.AppendUint64(b, uint64(flushStartNs))
	b = binary.BigEndian.AppendUint64(b, uint64(flushStartNs+1))
	return binary.BigEndian.AppendUint64(b, 9876)
}

func TestDecodeStampRejectsGarbage(t *testing.T) {
	if _, err := DecodeStamp(make([]byte, StampWireSize-1)); err == nil {
		t.Fatal("short frame must not decode")
	}
	wire := AppendStamp(nil, Stamp{Epoch: 1})
	wire[0] = 99 // future version byte
	if _, err := DecodeStamp(wire); err == nil {
		t.Fatal("unknown version must not decode")
	}
	// Version 1 is refused with no fallback: in its own 49-byte layout,
	// and with its version byte on a 17-byte record.
	if _, err := DecodeStamp(v1Stamp(1, 1)); err == nil {
		t.Fatal("a version-1 stamp must not decode")
	}
	wire[0] = 1
	if _, err := DecodeStamp(wire); err == nil {
		t.Fatal("a 17-byte record with version byte 1 must not decode")
	}
}

// TestRecorderSkipsAndCountsMalformedStamps: the aggregator hands the
// recorder every record of a lineage poll in order. A record that is no
// stamp — at the head, in the middle or at the tail of the poll — is
// skipped and counted, and every good stamp around it is observed.
func TestRecorderSkipsAndCountsMalformedStamps(t *testing.T) {
	good := func(epoch uint64) []byte {
		return AppendStamp(nil, Stamp{Epoch: epoch, FlushStartNs: int64(100 * (epoch + 1))})
	}
	bad := map[string][]byte{
		"version 1":   v1Stamp(1, 150),
		"short":       good(1)[:StampWireSize-1],
		"long":        append(good(1), 0),
		"version 99":  append([]byte{99}, good(1)[1:]...),
		"empty":       {},
		"v1 version":  append([]byte{1}, good(1)[1:]...),
		"future 17 B": append([]byte{3}, good(1)[1:]...),
	}
	for _, at := range []string{"head", "middle", "tail", "everywhere"} {
		for name, b := range bad {
			t.Run(at+"/"+name, func(t *testing.T) {
				var poll [][]byte
				switch at {
				case "head":
					poll = [][]byte{b, good(0), good(1), good(2)}
				case "middle":
					poll = [][]byte{good(0), good(1), b, good(2)}
				case "tail":
					poll = [][]byte{good(0), good(1), good(2), b}
				default:
					poll = [][]byte{b, good(0), b, good(1), good(2), b}
				}
				r, err := NewRecorder(Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range poll {
					r.ObserveStamp(rec)
				}
				wantBad := len(poll) - 3
				samples := map[string]float64{}
				for _, s := range r.AppendSamples(nil) {
					samples[s.Name] = s.Value
				}
				if got := samples["privapprox_lineage_stamps_total"]; got != 3 {
					t.Errorf("stamps observed = %v, want 3", got)
				}
				if got := samples["privapprox_lineage_stamps_malformed_total"]; got != float64(wantBad) {
					t.Errorf("malformed = %v, want %d", got, wantBad)
				}
				// Every good stamp reached its epoch: a window over epochs
				// 0–2 counts three stamps and anchors on epoch 0's flush.
				if err := r.EmitCard(Card{Query: "q", WindowEnd: 1, EpochFirst: 0, EpochLast: 2, FiredAtNs: 1000}); err != nil {
					t.Fatal(err)
				}
				if c := r.Cards(nil)[0]; c.Stamps != 3 || c.E2ENs != 900 {
					t.Errorf("card stamps %d, e2e %d; want 3, 900", c.Stamps, c.E2ENs)
				}
			})
		}
	}
}

func TestEpochRange(t *testing.T) {
	const freq = int64(1e9) // 1s epochs
	cases := []struct {
		name        string
		start, end  int64
		first, last uint64
		ok          bool
	}{
		{"aligned window", 0, 4e9, 0, 3, true},
		{"offset window", 2e9, 4e9, 2, 3, true},
		{"mid-epoch bounds", 5e8, 25e8, 1, 2, true},
		{"before origin", -4e9, -1e9, 0, 0, false},
		{"empty window", 2e9, 2e9, 0, 0, false},
		{"straddles origin", -1e9, 2e9, 0, 1, true},
	}
	for _, tc := range cases {
		first, last, ok := EpochRange(0, freq, tc.start, tc.end)
		if ok != tc.ok || (ok && (first != tc.first || last != tc.last)) {
			t.Errorf("%s: EpochRange = (%d,%d,%v), want (%d,%d,%v)",
				tc.name, first, last, ok, tc.first, tc.last, tc.ok)
		}
	}
	if _, _, ok := EpochRange(0, 0, 0, 1e9); ok {
		t.Fatal("non-positive frequency must not map")
	}
}

func TestDeterministicLineExcludesTiming(t *testing.T) {
	c := Card{
		Query: "q1", WindowStart: 1000, WindowEnd: 2000,
		EpochFirst: 1, EpochLast: 2, Responses: 5, Population: 12,
		Fraction: 0.9, Realized: 5.0 / 12.0, Shed: 1, CIWidth: 0.25, EpsilonZK: 1.5,
		FiredAtNs: 123456789, FireDurNs: 42, E2ENs: 777, Stamps: 3,
	}
	line := c.DeterministicLine()
	twin := c
	twin.FiredAtNs, twin.FireDurNs, twin.E2ENs, twin.Stamps = 0, 0, -1, 0
	if twin.DeterministicLine() != line {
		t.Fatal("timing fields must not affect the deterministic line")
	}
	for _, want := range []string{
		"query=q1", "window=[1000,2000)", "epochs=[1,2]", "responses=5",
		"population=12", "fraction=0.9", "shed=1", "ci_width=0.25",
		"epsilon_zk=1.5", "duplicates=0 malformed=0",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func emit(t *testing.T, r *Recorder, query string, start int64) {
	t.Helper()
	if err := r.EmitCard(Card{Query: query, WindowStart: start, WindowEnd: start + 1000, Responses: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderDedupsReEmission(t *testing.T) {
	r, err := NewRecorder(Options{})
	if err != nil {
		t.Fatal(err)
	}
	emit(t, r, "q", 1000)
	emit(t, r, "q", 2000)
	emit(t, r, "q", 1000) // replayed window: must be suppressed
	emit(t, r, "other", 1000)
	if got := r.emitted.Load(); got != 3 {
		t.Fatalf("emitted = %d, want 3", got)
	}
	if got := r.suppressed.Load(); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
}

func TestRecorderLogScanSuppressesAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cards.jsonl")
	r1, err := NewRecorder(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	emit(t, r1, "q", 1000)
	emit(t, r1, "q", 2000)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// A "restored" recorder over the same log: the already-logged
	// windows re-fire (the crash rewound the aggregator) but their
	// cards must not be appended twice.
	r2, err := NewRecorder(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	emit(t, r2, "q", 1000)
	emit(t, r2, "q", 2000)
	emit(t, r2, "q", 3000) // genuinely new window
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r2.suppressed.Load(); got != 2 {
		t.Fatalf("suppressed = %d, want 2", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("log has %d cards, want 3:\n%s", len(lines), data)
	}
	seen := map[int64]bool{}
	for _, ln := range lines {
		var c Card
		if err := json.Unmarshal([]byte(ln), &c); err != nil {
			t.Fatalf("bad card line %q: %v", ln, err)
		}
		if seen[c.WindowStart] {
			t.Fatalf("window %d logged twice", c.WindowStart)
		}
		seen[c.WindowStart] = true
	}
}

// TestRecorderTruncatesTornTail: a crash that tears an append leaves a
// tail the next open truncates — an unparseable partial line, or a whole
// card missing only its newline (a card is a newline-terminated line) —
// so the card appended after it, and every card before it, survive the
// open after that. The torn window fires again after restore.
func TestRecorderTruncatesTornTail(t *testing.T) {
	torn, err := json.Marshal(Card{Query: "q", WindowStart: 2000, WindowEnd: 3000, Responses: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string]string{
		"partial line":    `{"query":"q","window_start`,
		"missing newline": string(torn),
	} {
		path := filepath.Join(t.TempDir(), "cards.jsonl")
		r1, err := NewRecorder(Options{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		emit(t, r1, "q", 1000)
		if err := r1.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate a crash mid-append.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		r2, err := NewRecorder(Options{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		emit(t, r2, "q", 3000)
		if err := r2.Close(); err != nil {
			t.Fatal(err)
		}
		r3, err := NewRecorder(Options{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if err := r3.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		if tail := lines[len(lines)-1]; tail != "" {
			t.Fatalf("%s: an unterminated tail survived recovery: %q", name, tail)
		}
		var starts []int64
		for _, ln := range lines[:len(lines)-1] {
			var c Card
			if err := json.Unmarshal([]byte(ln), &c); err != nil {
				t.Fatalf("%s: an unparseable line survived recovery: %q", name, ln)
			}
			starts = append(starts, c.WindowStart)
		}
		if fmt.Sprint(starts) != "[1000 3000]" {
			t.Errorf("%s: the log holds windows %v after recovery, want [1000 3000]:\n%s", name, starts, data)
		}
	}
}

func TestRecorderRingBounded(t *testing.T) {
	r, err := NewRecorder(Options{Ring: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		emit(t, r, "q", int64((i+1)*1000))
	}
	cards := r.Cards(nil)
	if len(cards) != 4 {
		t.Fatalf("ring holds %d cards, want 4", len(cards))
	}
	for i, c := range cards {
		if want := int64((7 + i) * 1000); c.WindowStart != want {
			t.Fatalf("card %d start = %d, want %d (oldest-first)", i, c.WindowStart, want)
		}
	}
}

func TestRecorderStampEnrichment(t *testing.T) {
	r, err := NewRecorder(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two groups flush epoch 5; one also flushes epoch 6. The card's
	// end-to-end latency anchors on each epoch's earliest flush.
	for _, s := range []Stamp{{Epoch: 5, FlushStartNs: 1000}, {Epoch: 5, FlushStartNs: 900}, {Epoch: 6, FlushStartNs: 2000}} {
		r.ObserveStamp(AppendStamp(nil, s))
	}
	if err := r.EmitCard(Card{
		Query: "q", WindowStart: 0, WindowEnd: 7000,
		EpochFirst: 5, EpochLast: 6, FiredAtNs: 5000,
	}); err != nil {
		t.Fatal(err)
	}
	cards := r.Cards(nil)
	if len(cards) != 1 {
		t.Fatalf("cards = %d, want 1", len(cards))
	}
	c := cards[0]
	if c.Stamps != 3 {
		t.Fatalf("stamps = %d, want 3", c.Stamps)
	}
	// Worst-case leg: fire(5000) − earliest epoch-5 flush(900) = 4100.
	if c.E2ENs != 4100 {
		t.Fatalf("e2e = %d, want 4100", c.E2ENs)
	}
}

func TestRecorderNoStampsMeansNoE2E(t *testing.T) {
	r, err := NewRecorder(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EmitCard(Card{Query: "q", WindowEnd: 1000, FiredAtNs: 5000}); err != nil {
		t.Fatal(err)
	}
	if c := r.Cards(nil)[0]; c.E2ENs != -1 || c.Stamps != 0 {
		t.Fatalf("stampless card e2e=%d stamps=%d, want -1/0", c.E2ENs, c.Stamps)
	}
}

func TestRecorderHandlerServesCards(t *testing.T) {
	r, err := NewRecorder(Options{})
	if err != nil {
		t.Fatal(err)
	}
	emit(t, r, "q1", 1000)
	emit(t, r, "q2", 1000)
	r.ObserveStamp(AppendStamp(nil, Stamp{Epoch: 0, FlushStartNs: 1}))
	r.ObserveStamp(v1Stamp(0, 1))

	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/privapprox/windows", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	var page struct {
		Emitted         int64  `json:"emitted"`
		Suppressed      int64  `json:"suppressed"`
		Stamps          int64  `json:"stamps"`
		StampsMalformed int64  `json:"stamps_malformed"`
		Cards           []Card `json:"cards"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("windows page is not JSON: %v\n%s", err, rr.Body.String())
	}
	if page.Emitted != 2 || page.Stamps != 1 || page.StampsMalformed != 1 || len(page.Cards) != 2 {
		t.Fatalf("page = %+v", page)
	}
}

func TestRecorderSamples(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, err := NewRecorder(Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.EmitCard(Card{Query: "q", WindowEnd: 1000, CIWidth: 0.5, Realized: 0.25, Responses: 1}); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range r.AppendSamples(nil) {
		key := s.Name
		if s.LabelKey != "" {
			key += "{" + s.LabelKey + "=" + s.LabelValue + "}"
		}
		got[key] = s.Value
	}
	if got["privapprox_window_cards_emitted_total"] != 1 {
		t.Fatalf("emitted sample = %v", got)
	}
	if got["privapprox_window_ci_width{query=q}"] != 0.5 ||
		got["privapprox_window_realized_fraction{query=q}"] != 0.25 {
		t.Fatalf("labeled gauges = %v", got)
	}
}

func TestRecorderConcurrentEmitAndObserve(t *testing.T) {
	r, err := NewRecorder(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.ObserveStamp(AppendStamp(nil, Stamp{Epoch: uint64(i), FlushStartNs: int64(i)}))
				// A memory-only recorder cannot fail an append; errors
				// are re-checked via Emitted below.
				r.EmitCard(Card{Query: fmt.Sprintf("q%d", g), WindowStart: int64((i + 1) * 1000), WindowEnd: int64((i+1)*1000) + 1000})
			}
		}(g)
	}
	wg.Wait()
	if got := r.emitted.Load(); got != 800 {
		t.Fatalf("emitted = %d, want 800", got)
	}
}

func TestRecorderCreatesLogDirectory(t *testing.T) {
	// A durable node may point -cards inside a data directory that no
	// component has created yet; the recorder must make it rather than
	// fall back to memory-only with a write error.
	path := filepath.Join(t.TempDir(), "agg", "deep", "cards.jsonl")
	r, err := NewRecorder(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	emit(t, r, "q", 1000)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("card log was not created: %v", err)
	}
	if !strings.Contains(string(data), `"query":"q"`) {
		t.Fatalf("card log missing emitted card:\n%s", data)
	}
}

// FuzzStamp drives DecodeStamp — the sidecar records an aggregator reads
// off every proxy's lineage topic — with arbitrary bytes: it must never
// panic, and whatever it accepts (17 bytes, version 2: a version-1 stamp
// is refused) must re-encode to exactly the bytes it was given.
func FuzzStamp(f *testing.F) {
	f.Add(AppendStamp(nil, Stamp{Epoch: 7, FlushStartNs: -3}))
	f.Add(AppendStamp(nil, Stamp{Epoch: math.MaxUint64, FlushStartNs: math.MinInt64}))
	f.Add(AppendStamp(nil, Stamp{})[:StampWireSize-1])
	f.Add(v1Stamp(7, 1))
	f.Add(append([]byte{1}, AppendStamp(nil, Stamp{Epoch: 7})[1:]...))
	f.Add(append(AppendStamp(nil, Stamp{}), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStamp(data)
		if err != nil {
			return
		}
		if again := AppendStamp(nil, s); !bytes.Equal(again, data) {
			t.Fatalf("re-encoded stamp\n got %x\nwant %x", again, data)
		}
	})
}

// FuzzCardLog writes the input as a card log and opens a Recorder over
// it. The open keeps the longest prefix of newline-terminated lines that
// decode to a card with a query, and truncates the rest; its suppression
// watermark is the highest window start per query in that prefix; a
// second open changes nothing; and a card emitted after the open
// survives the next open, together with every card before it.
func FuzzCardLog(f *testing.F) {
	card := func(query string, start int64) string {
		line, err := json.Marshal(Card{Query: query, WindowStart: start, WindowEnd: start + 1000})
		if err != nil {
			f.Fatal(err)
		}
		return string(line)
	}
	f.Add([]byte(card("q", 1000) + "\n" + card("q", 2000)))              // a whole card short of its newline
	f.Add([]byte(card("q", 1000) + "\n" + `{"query":"q","window_start`)) // a partial line
	f.Add([]byte(card("a", 3000) + "\n" + card("b", 1000) + "\n" + card("a", 2000) + "\n"))
	f.Add([]byte(card("q", 1000) + "\nnull\n" + card("q", 2000) + "\n")) // a card without a query
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		good, want := 0, map[string]int64{}
		for {
			n := bytes.IndexByte(data[good:], '\n') + 1
			var c Card
			if n == 0 || json.Unmarshal(data[good:good+n], &c) != nil || c.Query == "" {
				break
			}
			good += n
			if cur, ok := want[c.Query]; !ok || c.WindowStart > cur {
				want[c.Query] = c.WindowStart
			}
		}
		path := filepath.Join(t.TempDir(), "cards.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// open opens a recorder over the log, checks its watermark and the
		// file against the model, and returns the recorder.
		open := func(step string, log []byte) *Recorder {
			t.Helper()
			r, err := NewRecorder(Options{Path: path})
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			r.mu.Lock()
			through := maps.Clone(r.through)
			r.mu.Unlock()
			if !maps.Equal(through, want) {
				t.Fatalf("%s: watermark %v, want %v", step, through, want)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, log) {
				t.Fatalf("%s: the log reads %q (%v), want %q", step, got, err, log)
			}
			return r
		}
		closed := func(r *Recorder) {
			t.Helper()
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
		log := data[:good]
		closed(open("first open", log))
		r := open("second open", log)

		query, start := "after", int64(0)
		if w, ok := want[query]; ok {
			if w == math.MaxInt64 {
				closed(r)
				return
			}
			start = w + 1
		}
		if err := r.EmitCard(Card{Query: query, WindowStart: start}); err != nil {
			t.Fatal(err)
		}
		closed(r)
		after, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(after, log) {
			t.Fatalf("the emit rewrote the log before it: %q (%v)", after, err)
		}
		want[query] = start
		closed(open("open after an emit", after))
		var c Card
		if line := after[len(log):]; bytes.IndexByte(line, '\n') != len(line)-1 || json.Unmarshal(line, &c) != nil || c.Query != query || c.WindowStart != start {
			t.Fatalf("the emitted card reads %q", line)
		}
	})
}
