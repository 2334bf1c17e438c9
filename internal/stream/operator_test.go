package stream_test

// The windowed operator this package's assigner and joiner serve — the
// watermark, late drops and window firing — is aggregator.Aggregator,
// the one place it runs. These tests pin its event-time semantics
// through that operator's exported API, one whole-second epoch per
// event.

import (
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

var origin = time.Unix(1_700_000_000, 0)

const nbuckets = 4

// operator is one query answered every second, windowed size/slide,
// with the given lateness (0 keeps the default of one slide).
type operator struct {
	t   *testing.T
	agg *aggregator.Aggregator
	sp  *xorcrypt.Splitter
	qid uint64
}

func newOperator(t *testing.T, size, slide, lateness time.Duration) *operator {
	t.Helper()
	buckets, err := query.UniformRanges(0, nbuckets, nbuckets, false)
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		QID:       query.ID{Analyst: "a", Serial: 1},
		SQL:       "SELECT v FROM t",
		Buckets:   buckets,
		Frequency: time.Second,
		Window:    size,
		Slide:     slide,
	}
	agg, err := aggregator.New(aggregator.Config{
		Query:      q,
		Params:     budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}},
		Population: 10,
		Proxies:    2,
		Origin:     origin,
		Lateness:   lateness,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &operator{t: t, agg: agg, sp: sp, qid: q.QID.Uint64()}
}

// answerAt submits one answer for bucket with event time origin + sec
// and returns the windows it fired.
func (o *operator) answerAt(sec uint64, bucket int) []aggregator.Result {
	o.t.Helper()
	vec, err := answer.OneHot(nbuckets, bucket)
	if err != nil {
		o.t.Fatal(err)
	}
	raw, err := (&answer.Message{QueryID: o.qid, Epoch: sec, Answer: vec}).MarshalBinary()
	if err != nil {
		o.t.Fatal(err)
	}
	shares, err := o.sp.Split(raw)
	if err != nil {
		o.t.Fatal(err)
	}
	var fired []aggregator.Result
	for src, sh := range shares {
		res, err := o.agg.SubmitShareBatch([]xorcrypt.Share{sh}, src, time.Time{})
		if err != nil {
			o.t.Fatal(err)
		}
		fired = append(fired, res...)
	}
	return fired
}

func (o *operator) late() int64 { return o.agg.Stats().Late }

func TestWatermarkTracker(t *testing.T) {
	o := newOperator(t, 10*time.Second, 10*time.Second, 2*time.Second)
	o.answerAt(3, 0)
	if o.late() != 0 {
		t.Error("nothing is late before the first event")
	}
	// The watermark is the newest event time minus the lateness: 8.
	o.answerAt(10, 0)
	o.answerAt(7, 0)
	if o.late() != 1 {
		t.Errorf("late = %d: t=7 should be late behind watermark 8", o.late())
	}
	o.answerAt(9, 0)
	o.answerAt(8, 0)
	if o.late() != 1 {
		t.Errorf("late = %d: t=9 and t=8 are not behind watermark 8", o.late())
	}
	// An older event never moves the watermark back.
	o.answerAt(5, 0)
	o.answerAt(7, 0)
	if o.late() != 3 {
		t.Errorf("late = %d, want 3: the watermark regressed", o.late())
	}
	if d := o.agg.Decoded(); d != 7 {
		t.Errorf("decoded = %d, want 7", d)
	}
}

func TestWindowedOpFiresOnWatermark(t *testing.T) {
	o := newOperator(t, 10*time.Second, 10*time.Second, 0)
	// Three answers inside [0, 10).
	for i, b := range []int{1, 2, 3} {
		if res := o.answerAt(uint64(i*2), b); len(res) != 0 {
			t.Fatalf("premature fire: %+v", res)
		}
	}
	// An answer at t=20 advances the watermark (one slide behind) to 10,
	// closing [0, 10).
	res := o.answerAt(20, 0)
	if len(res) != 1 {
		t.Fatalf("fired %d windows, want 1", len(res))
	}
	if res[0].Responses != 3 {
		t.Errorf("window holds %d answers, want 3", res[0].Responses)
	}
	for b, est := range res[0].Buckets {
		if want := min(b, 1); est.ObservedYes != want {
			t.Errorf("bucket %d: %d yes, want %d", b, est.ObservedYes, want)
		}
	}
	if !res[0].Window.Start.Equal(origin) {
		t.Errorf("window start = %v", res[0].Window.Start)
	}
}

func TestWindowedOpSlidingDoubleCount(t *testing.T) {
	// 4s windows sliding every 2s: an answer counts in 2 windows.
	o := newOperator(t, 4*time.Second, 2*time.Second, 0)
	o.answerAt(5, 1)
	results, err := o.agg.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("flush fired %d windows, want 2", len(results))
	}
	for _, r := range results {
		if r.Responses != 1 || r.Buckets[1].ObservedYes != 1 {
			t.Errorf("window %v: %d answers, %d yes", r.Window, r.Responses, r.Buckets[1].ObservedYes)
		}
	}
}

func TestWindowedOpDropsLate(t *testing.T) {
	o := newOperator(t, 10*time.Second, 10*time.Second, time.Second)
	o.answerAt(100, 0)
	o.answerAt(50, 0) // far behind watermark 99
	if o.agg.Dropped() != 1 || o.late() != 1 {
		t.Errorf("Dropped = %d, Late = %d, want 1", o.agg.Dropped(), o.late())
	}
}

func TestWindowedOpAdvanceTo(t *testing.T) {
	o := newOperator(t, 10*time.Second, 10*time.Second, 0)
	o.answerAt(3, 2)
	if o.agg.OpenWindows() != 1 {
		t.Fatalf("open = %d", o.agg.OpenWindows())
	}
	res, err := o.agg.AdvanceTo(origin.Add(20 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Responses != 1 || res[0].Buckets[2].ObservedYes != 1 {
		t.Errorf("AdvanceTo fired %+v", res)
	}
	if o.agg.OpenWindows() != 0 {
		t.Errorf("open after fire = %d", o.agg.OpenWindows())
	}
}
