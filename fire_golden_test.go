package privapprox

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateFireGolden = flag.Bool("update-fire-golden", false,
	"rewrite testdata/fire_golden.txt.gz from this tree's results")

const fireGoldenPath = "testdata/fire_golden.txt.gz"

// canonicalResult renders everything a fired window says, floats at
// full precision, so two results are equal exactly when their texts are
// (the form bench/check.go compares its reference run in).
func canonicalResult(b *strings.Builder, res Result) {
	full := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	fmt.Fprintf(b, "query %s window [%d,%d) responses %d population %d inverted %t shed %s\n",
		res.Query, res.Window.Start.UnixNano(), res.Window.End.UnixNano(),
		res.Responses, res.Population, res.Inverted, full(res.Shed))
	for _, bk := range res.Buckets {
		fmt.Fprintf(b, "  %s yes %d truthful %s estimate %s margin %s confidence %s\n",
			bk.Label, bk.ObservedYes, full(bk.Truthful), full(bk.Estimate.Estimate),
			full(bk.Estimate.Margin), full(bk.Estimate.Confidence))
	}
}

// fireGoldenRun drives the multi.wide shape — four concurrent queries of
// 128 buckets each (one of them inverted), s = 0.3, a window of eight
// epochs sliding by one — for 40 epochs and a final flush, and returns
// the canonical text of every window fired, in firing order.
func fireGoldenRun(t *testing.T, workers int) string {
	t.Helper()
	const clients, queries, buckets, windowEpochs, epochs = 200, 4, 128, 8, 40
	sys, err := NewSystem(SystemConfig{
		Clients: clients,
		Params:  &Params{S: 0.3, RR: RRParams{P: 0.9, Q: 0.6}},
		Seed:    20260926,
		Workers: workers,
		Populate: func(i int, db *DB) error {
			return PopulateTaxi(db, rand.New(rand.NewSource(int64(i)+1)), 1, time.Unix(0, 0), time.Minute)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < queries; i++ {
		q, err := TaxiQuery("golden", uint64(i+1), time.Second, windowEpochs*time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if q.Buckets, err = UniformRanges(0, 32, buckets-1, true); err != nil {
			t.Fatal(err)
		}
		q.Inverted = i == 1
		if err := sys.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	for e := 0; e < epochs; e++ {
		results, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			canonicalResult(&b, res)
		}
	}
	results, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		canonicalResult(&b, res)
	}
	return b.String()
}

// TestFireGolden pins every fired Result byte for byte to the text the
// tree before the per-window estimator (PR 19's parent, 384543e)
// produced for the same seed: the estimator may be restructured, but no
// float operation may change its operands or their order. Regenerate
// with -update-fire-golden only for a change that is meant to move
// results.
func TestFireGolden(t *testing.T) {
	got := fireGoldenRun(t, 1)
	if *updateFireGolden {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		if _, err := io.WriteString(zw, got); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fireGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d bytes of text, %d compressed", fireGoldenPath, len(got), buf.Len())
	}
	f, err := os.Open(fireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantBytes)
	if windows := strings.Count(want, "query "); windows < 4*40 {
		t.Fatalf("golden holds %d windows, want at least %d", windows, 4*40)
	}
	diffLines(t, "Workers=1", want, got)
	diffLines(t, "Workers=4", want, fireGoldenRun(t, 4))
}

// diffLines reports the first line at which got departs from want.
func diffLines(t *testing.T, name, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			t.Errorf("%s: line %d differs from the golden\n want %s\n  got %s", name, i+1, w[i], g[i])
			return
		}
	}
	t.Errorf("%s: %d lines, golden has %d", name, len(g), len(w))
}
