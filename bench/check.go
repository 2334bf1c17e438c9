package main

import (
	"fmt"
	"strconv"
	"strings"

	"privapprox/internal/aggregator"
)

// windowKey names one window of one query.
type windowKey struct {
	query string
	start int64 // UnixNano
}

func keyOf(res aggregator.Result) windowKey {
	return windowKey{query: res.Query.String(), start: res.Window.Start.UnixNano()}
}

// canonical renders everything a result says, with floats at full
// precision, so two results are equal exactly when their texts are.
func canonical(res aggregator.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s window [%d,%d) responses %d population %d inverted %t shed %s\n",
		res.Query, res.Window.Start.UnixNano(), res.Window.End.UnixNano(),
		res.Responses, res.Population, res.Inverted, fullFloat(res.Shed))
	for _, bk := range res.Buckets {
		fmt.Fprintf(&b, "  %s yes %d truthful %s estimate %s margin %s confidence %s\n",
			bk.Label, bk.ObservedYes, fullFloat(bk.Truthful), fullFloat(bk.Estimate.Estimate),
			fullFloat(bk.Estimate.Margin), fullFloat(bk.Estimate.Confidence))
	}
	return b.String()
}

func fullFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// reference runs the first refEpochs epochs of the inputs through the
// sequential in-process pipeline (one worker, one shard, memory only)
// and returns the canonical text of every window that closed inside
// them. By the repository's determinism contract the timed run, however
// it is wired, must reproduce these byte for byte.
func reference(in *inputs) (map[windowKey]string, error) {
	p, err := newInproc(in, 1, 1, "")
	if err != nil {
		return nil, err
	}
	defer p.close()
	ref := make(map[windowKey]string)
	for e := uint64(0); e < refEpochs; e++ {
		fs, err := p.epoch(e)
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			ref[keyOf(f.res)] = canonical(f.res)
		}
	}
	return ref, nil
}

// checker collects every window the timed run fires and, at the end,
// compares the run against the reference, against the participation
// decisions replayed from outside, and against the product's own
// counters.
type checker struct {
	in       *inputs
	ref      map[windowKey]string
	refSeen  int
	seen     map[windowKey]int // Responses by window
	failed   int64
	problems []string
}

func newChecker(in *inputs, ref map[windowKey]string) *checker {
	return &checker{in: in, ref: ref, seen: make(map[windowKey]int)}
}

func (c *checker) fail(n int64, format string, args ...any) {
	c.failed += n
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) observe(res aggregator.Result) {
	k := keyOf(res)
	if _, dup := c.seen[k]; dup {
		c.fail(1, "window %v fired twice", k)
		return
	}
	c.seen[k] = res.Responses
	if want, ok := c.ref[k]; ok {
		c.refSeen++
		if got := canonical(res); got != want {
			c.fail(1, "window %v differs from the reference:\n%s--- want\n%s", k, got, want)
		}
	}
}

// finish runs the end-of-run checks over epochs [0, epochs) and returns
// operations attempted and failed.
func (c *checker) finish(cnt counters, epochs int) (attempted, failed int64, err error) {
	sp := c.in.spec
	if c.refSeen != len(c.ref) {
		c.fail(int64(len(c.ref)-c.refSeen), "%d reference windows never fired", len(c.ref)-c.refSeen)
	}

	expected, err := expectedAnswers(c.in, epochs)
	if err != nil {
		return 0, 0, err
	}
	var wantAnswers int64
	windows := 0
	for qi, q := range c.in.queries {
		for _, n := range expected[qi] {
			wantAnswers += n
		}
		// δ = f, so a window starts at every epoch from w-1 before the
		// first to the last.
		for startEpoch := -(sp.windowEpochs - 1); startEpoch < epochs; startEpoch++ {
			windows++
			var want int64
			for e := max(startEpoch, 0); e < min(startEpoch+sp.windowEpochs, epochs); e++ {
				want += expected[qi][e]
			}
			k := windowKey{query: q.QID.String(), start: epochTime(0).UnixNano() + int64(startEpoch)*int64(epochFreq)}
			got, ok := c.seen[k]
			switch {
			case !ok:
				c.fail(1, "window %v never fired", k)
			case int64(got) != want:
				c.fail(1, "window %v has %d responses, its epochs had %d participants", k, got, want)
			}
			delete(c.seen, k)
		}
	}
	for k := range c.seen {
		c.fail(1, "window %v fired but was not expected", k)
	}

	if cnt.answersSent != wantAnswers {
		c.fail(abs(cnt.answersSent-wantAnswers), "clients sent %d answers, participation decisions say %d", cnt.answersSent, wantAnswers)
	}
	if cnt.agg.Decoded != cnt.answersSent {
		c.fail(abs(cnt.answersSent-cnt.agg.Decoded), "aggregator decoded %d of %d answers sent", cnt.agg.Decoded, cnt.answersSent)
	}
	for name, n := range map[string]int64{
		"malformed": cnt.agg.Malformed, "duplicates": cnt.agg.Duplicates, "late": cnt.agg.Late,
		"unknown_query": cnt.agg.UnknownQuery, "length_mismatch": cnt.agg.LengthMismatch,
		"shares_dropped": cnt.dropped, "pending_joins": int64(cnt.pendingJoins),
	} {
		if n != 0 {
			c.fail(n, "%s = %d, want 0", name, n)
		}
	}
	return cnt.answersSent + int64(windows), c.failed, nil
}

func abs(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}
