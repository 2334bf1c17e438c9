package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. One root span per epoch; the others are its descendants,
// each recorded around one call into a product layer. The one exception
// is fire, a root span after the last epoch.
const (
	spanEpoch  = "epoch"
	spanAnswer = "answer"        // AnswerEpoch / the AnswerOnce fan-out
	spanFlush  = "flush"         // Batcher.Flush (TCP)
	spanPub    = "publish"       // SubmitColumns, inside flush (TCP)
	spanFetch  = "fetch"         // Consumer.Poll (TCP)
	spanDecode = "decode_record" // proxy.DecodeRecord over one poll (TCP)
	spanSubmit = "submit"        // DrainUpTo (in-process) or SubmitShareBatch (TCP)
	spanFire   = "fire"          // the final Flush, closing the windows still open (a root span)
)

// span is one timed call. Start and End are nanoseconds since the
// tracer was made; Parent indexes the span file's array (-1 for roots);
// Epoch is the identifier every span of one epoch shares.
type span struct {
	Name   string `json:"name"`
	Epoch  uint64 `json:"epoch"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory. The traced drive records every span from
// the driver goroutine, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, epoch uint64) int {
	t.spans = append(t.spans, span{Name: name, Epoch: epoch, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// spanTotals is the per-name sum over a trace.
type spanTotals struct {
	count int
	dur   int64 // sum of durations
	self  int64 // sum of durations minus what child spans cover
}

// analyze sums duration and self time by span name and checks that every
// span lies inside its parent. A span's children are covered as the
// union of their intervals, so overlapping children are not counted
// twice.
func (t *tracer) analyze() (map[string]*spanTotals, error) {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return nil, fmt.Errorf("span %d (%s) has parent %d recorded after it", i, s.Name, s.Parent)
		}
		p := t.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Epoch != p.Epoch {
			return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	out := make(map[string]*spanTotals)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range kids {
			c := t.spans[k]
			if c.End <= edge {
				continue
			}
			covered += c.End - max(c.Start, edge)
			edge = c.End
		}
		tot := out[s.Name]
		if tot == nil {
			tot = &spanTotals{}
			out[s.Name] = tot
		}
		tot.count++
		tot.dur += s.End - s.Start
		tot.self += s.End - s.Start - covered
	}
	return out, nil
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
