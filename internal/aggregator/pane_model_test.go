package aggregator

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"privapprox/internal/budget"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// windowModel is the per-window aggregator that panes replace: every
// answer folds into each window containing it, a window opens with its
// first answer unless it is behind the watermark, and a fire closes and
// forgets the windows behind the watermark. A flush first moves the
// watermark to the end of the last open window, so it closes every open
// one and an answer for any of them afterwards is late.
// Times are UnixNano.
type windowModel struct {
	size, slide, origin int64
	nbuckets            int
	wmMax               int64
	open                map[int64][]int // window start → n, then yes per bucket
	decoded, late       int64
}

// firedWindow is one fired window as the model and the aggregator both
// report it: start, end, n, then yes per bucket.
type firedWindow []int64

func (m *windowModel) watermark() int64 {
	if m.wmMax == wmUnseen {
		return wmUnseen
	}
	return m.wmMax - m.slide
}

func (m *windowModel) answer(t int64, bucket int) []firedWindow {
	m.decoded++
	if wm := m.watermark(); wm != wmUnseen && t < wm {
		m.late++
		return nil
	}
	refused := false
	for s := t - (t-m.origin)%m.slide; s > t-m.size; s -= m.slide {
		w := m.open[s]
		if w == nil && s+m.size <= m.watermark() {
			refused = true
			continue
		}
		if w == nil {
			w = make([]int, 1+m.nbuckets)
			m.open[s] = w
		}
		w[0]++
		w[1+bucket]++
	}
	if refused {
		m.late++
	}
	return m.advance(t)
}

func (m *windowModel) advance(t int64) []firedWindow {
	m.wmMax = max(m.wmMax, t)
	return m.fire(false)
}

func (m *windowModel) fire(flush bool) []firedWindow {
	if flush {
		for s := range m.open {
			m.wmMax = max(m.wmMax, s+m.size+m.slide)
		}
	}
	var out []firedWindow
	for s, w := range m.open {
		if s+m.size <= m.watermark() {
			f := firedWindow{s, s + m.size}
			for _, c := range w {
				f = append(f, int64(c))
			}
			out = append(out, f)
			delete(m.open, s)
		}
	}
	slices.SortFunc(out, func(x, y firedWindow) int { return cmp.Compare(x[0], y[0]) })
	return out
}

// paneGeometries are FuzzPanesMatchWindows' (window, slide) pairs in
// seconds: tumbling, a slide dividing the window, and slides that do
// not (the pane is then shorter than the slide).
var paneGeometries = [][2]int64{{4, 4}, {4, 2}, {3, 2}, {8, 1}, {6, 4}, {5, 3}}

// paneFrequencies are the answer frequencies, none of them a pane.
var paneFrequencies = []time.Duration{time.Second, 2 * time.Second, 500 * time.Millisecond, 1500 * time.Millisecond}

// FuzzPanesMatchWindows drives the pane aggregator and windowModel with
// the same answers — random event times, late ones included — watermark
// advances, flushes followed by more answers, and checkpoints restored
// into a fresh aggregator mid-stream. Input: geometry, frequency, then
// (op, arg) pairs: op%8 < 5 answers in epoch arg%20 for bucket op/8, 5
// advances to origin + (arg%40)/4 s, 6 flushes, 7 restores. After every
// step both must have fired the same windows in the same order, with
// the same (start, end, n, yes per bucket), and agree on Stats' Decoded
// and Late.
func FuzzPanesMatchWindows(f *testing.F) {
	seed := func(geometry, freq byte, ops ...byte) []byte { return append([]byte{geometry, freq}, ops...) }
	const advance, flush, restore = 5, 6, 7
	// Tumbling: a pane is the window; a late answer, then a flush and an
	// answer for the flushed window, late too.
	f.Add(seed(0, 0, 0, 0, 8, 1, 0, 5, 16, 2, 0, 1, advance, 30, flush, 0, 0, 9, flush, 0))
	// w = 3 s, δ = 2 s: panes of 1 s, answers every second, a restore
	// mid-window, an answer behind the watermark.
	f.Add(seed(2, 0, 0, 0, 8, 1, 16, 2, restore, 0, 0, 3, 8, 4, 0, 1, 16, 7, restore, 0, 0, 9, flush, 0))
	// w = 8 s, δ = 1 s, answers every 1.5 s; flush, more answers, flush.
	f.Add(seed(3, 3, 0, 0, 8, 3, 16, 5, advance, 24, 0, 9, flush, 0, 8, 2, 0, 12, restore, 0, flush, 0))
	// w = 6 s, δ = 4 s (panes of 2 s), answers every 0.5 s, out of
	// order; advances that fire several windows at once.
	f.Add(seed(4, 2, 0, 3, 8, 11, 16, 1, advance, 20, 0, 19, 8, 2, restore, 0, advance, 39, 0, 4, flush, 0))
	// w = 5 s, δ = 3 s, answers every 2 s.
	f.Add(seed(5, 1, 0, 0, 8, 1, 0, 2, advance, 16, restore, 0, 16, 3, 0, 6, advance, 39, 8, 7, flush, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const nbuckets = 3
		g := paneGeometries[int(data[0])%len(paneGeometries)]
		params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
		cfg := testConfig(t, nbuckets, params, 10)
		cfg.Query.Window, cfg.Query.Slide = time.Duration(g[0])*time.Second, time.Duration(g[1])*time.Second
		cfg.Query.Frequency = paneFrequencies[int(data[1])%len(paneFrequencies)]
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := xorcrypt.NewSplitter(2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := &windowModel{
			size: int64(cfg.Query.Window), slide: int64(cfg.Query.Slide), origin: testOrigin.UnixNano(),
			nbuckets: nbuckets, wmMax: wmUnseen, open: map[int64][]int{},
		}
		check := func(step string, got []Result, want []firedWindow) {
			t.Helper()
			gotWindows := make([]firedWindow, len(got))
			for k, r := range got {
				gotWindows[k] = firedWindow{r.Window.Start.UnixNano(), r.Window.End.UnixNano(), int64(r.Responses)}
				for _, b := range r.Buckets {
					gotWindows[k] = append(gotWindows[k], int64(b.ObservedYes))
				}
			}
			if fmt.Sprint(gotWindows) != fmt.Sprint(want) {
				t.Fatalf("%s: fired %v, the per-window model %v", step, gotWindows, want)
			}
			if st := a.Stats(); st.Decoded != m.decoded || st.Late != m.late {
				t.Fatalf("%s: decoded %d late %d, the per-window model %d and %d", step, st.Decoded, st.Late, m.decoded, m.late)
			}
		}
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, data[i+1]
			var got []Result
			var want []firedWindow
			switch op {
			case advance:
				at := testOrigin.Add(time.Duration(arg%40) * time.Second / 4)
				if got, err = a.AdvanceTo(at); err != nil {
					t.Fatal(err)
				}
				want = m.advance(at.UnixNano())
			case flush:
				if got, err = a.Flush(); err != nil {
					t.Fatal(err)
				}
				want = m.fire(true)
			case restore:
				rec, err := a.Checkpoint(nil)
				if err != nil {
					t.Fatal(err)
				}
				if a, err = New(cfg); err != nil {
					t.Fatal(err)
				}
				if err := a.Restore(rec); err != nil {
					t.Fatal(err)
				}
			default:
				epoch, bucket := uint64(arg%20), int(data[i]/8)%nbuckets
				got = submitMessage(t, a, sp, cfg.Query.QID.Uint64(), epoch, bucket, nbuckets)
				want = m.answer(testOrigin.Add(time.Duration(epoch)*cfg.Query.Frequency).UnixNano(), bucket)
			}
			check(fmt.Sprintf("step %d (op %d, arg %d)", i/2, op, arg), got, want)
		}
		got, err := a.Flush()
		if err != nil {
			t.Fatal(err)
		}
		check("the closing flush", got, m.fire(true))
	})
}
