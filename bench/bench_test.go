package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload at a tenth of its population and a
// fraction of its epochs, untraced and traced, and checks what the full
// run cannot check about itself: the result line carries exactly the
// names and units BENCHMARK.json lists, the result checks pass, spans
// nest (analyze fails otherwise) and cover the epoch, and run
// directories, listeners and goroutines are gone afterwards.
//
// The benchmark is a module of its own, so this runs under
// `go test -C bench ./...`, not under the root module's `go test ./...`.
func TestSmoke(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 4)))
	o := options{seed: 1, scratch: t.TempDir(), man: man}
	goroutines := runtime.NumGoroutine()

	for _, sp := range specs {
		for _, run := range []func(spec, options) (*report, error){runUntraced, runTraced} {
			rep, err := run(sp.short(), o)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			if err := rep.verdict(); err != nil {
				t.Error(err, rep.problems)
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct{ Unit string }
			}
			text, err := rep.json()
			if err == nil {
				err = json.Unmarshal([]byte(text), &line)
			}
			if err != nil {
				t.Fatalf("%s: result line: %v", sp.name, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s: result line says correct=%t attempted=%d failed=%d", sp.name, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(rep.names) {
				t.Errorf("%s: result line has %d metrics, BENCHMARK.json names %d", sp.name, len(line.Metrics), len(rep.names))
			}
			for _, m := range rep.names {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: result line has %s in %q, BENCHMARK.json wants %q", sp.name, m.Name, got.Unit, m.Unit)
				}
			}
			if un, wall := rep.metrics["core.unattributed_ns"], rep.metrics["core.epoch_wall_ns"]; rep.traced && un > 0.1*wall {
				t.Errorf("%s: spans leave %.0f of %.0f ns per answer uncovered", sp.name, un, wall)
			}
		}
	}

	left, err := os.ReadDir(o.scratch)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("run directory %s was left behind", e.Name())
		}
	}
	// Connection goroutines end a moment after their sockets close.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines at the end, %d at the start", n, goroutines)
	}
}
