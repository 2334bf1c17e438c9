// Command bench is the repository's benchmark: it drives the epoch
// pipeline from outside on four workloads, checks the results, and prints
// the end-to-end metrics (or, traced, the per-layer metrics) that
// BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as a JSON object on the last line; empty runs all four")
		seed    = flag.Int64("seed", 1, "inputs are generated from this seed")
		seconds = flag.Int("seconds", 0, "the benchmark driver passes BENCHMARK.json's run_seconds here; a run measures a fixed number of epochs sized for that, so any other value is refused")
		trace   = flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 records spans and measures the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "with all workloads: run the whole set this many times and print the spread of every metric")
	)
	flag.Parse()
	if flag.NArg() > 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// run.sh names the root of the checkout, where BENCHMARK.json is and
	// where everything a run writes goes, under .bench_build/.
	root := envOr("BENCH_ROOT", ".")
	man, err := loadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *seconds != 0 && *seconds != man.RunSeconds {
		fatal(fmt.Errorf("-seconds %d: the run length is fixed, sized for run_seconds = %d", *seconds, man.RunSeconds))
	}
	scratch := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(err)
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	fmt.Printf("commit=%s go=%s nproc=%d GOMAXPROCS=%d cpu=%q seed=%d\n",
		envOr("BENCH_COMMIT", "unknown"), runtime.Version(), runtime.NumCPU(), procs, cpuModel(), *seed)

	o := options{seed: *seed, scratch: scratch, man: man}
	run := runUntraced
	if *trace == 1 {
		run = runTraced
	}
	if *name == "" {
		err = runAll(run, o, *repeat)
	} else {
		sp, ok := specByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var rep *report
		if rep, err = run(sp, o); err == nil {
			rep.print()
			if err = rep.verdict(); err == nil {
				var line string
				if line, err = rep.json(); err == nil {
					fmt.Println(line)
				}
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// verdict is nil when every check passed and the metrics measured are
// exactly the ones BENCHMARK.json names, every one a number.
func (rep *report) verdict() error {
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", rep.workload, rep.failed, rep.attempted)
	}
	for _, m := range rep.names {
		if v, ok := rep.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", rep.workload, m.Name)
		}
	}
	if len(rep.metrics) != len(rep.names) {
		return fmt.Errorf("%s: %d metrics measured, BENCHMARK.json names %d", rep.workload, len(rep.metrics), len(rep.names))
	}
	return nil
}

func (rep *report) print() {
	kind, what := "untraced", "window latency samples"
	if rep.traced {
		kind, what = "traced", "spans"
	}
	fmt.Printf("%s (%s): epochs=%d segments=%d %s=%d\n", rep.workload, kind, rep.epochs, rep.segments, what, rep.samples)
	for _, m := range rep.names {
		fmt.Printf("  %-32s %14.4f %s\n", m.Name, rep.metrics[m.Name], m.Unit)
	}
	if !rep.traced {
		fmt.Printf("  %-32s %14.4f ms (diagnostic, not in the result line)\n", "window_latency_p95_ms", rep.p95)
	}
	fmt.Printf("  %-32s %14d\n  %-32s %14d\n", "ops_attempted", rep.attempted, "ops_failed", rep.failed)
	if rep.traced {
		fmt.Printf("  answer stage: %.0f ns/answer wall x %d workers vs replay_sum_ns %.0f (the rest is the publish into the broker, the fan-out and GC)\n",
			rep.metrics["client.answer_ns"], runtime.GOMAXPROCS(0), rep.metrics["replay_sum_ns"])
		fmt.Printf("  spans: %s\n", rep.spanFile)
	}
	for _, p := range rep.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// json is the one-line result object the benchmark contract asks for.
func (rep *report) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, m := range rep.names {
		metrics[m.Name] = value{rep.metrics[m.Name], m.Unit}
	}
	data, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	return string(data), err
}

// runAll runs every workload, repeat times over, and prints the spread
// of each metric across the repeats.
func runAll(run func(spec, options) (*report, error), o options, repeat int) error {
	values := make(map[string][]float64) // "workload metric" → one value per repeat
	var firstErr error
	for i := 0; i < repeat; i++ {
		for _, sp := range specs {
			rep, err := run(sp, o)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			rep.print()
			if err := rep.verdict(); err != nil && firstErr == nil {
				firstErr = err
			}
			for _, m := range rep.names {
				k := sp.name + " " + m.Name
				values[k] = append(values[k], rep.metrics[m.Name])
			}
		}
	}
	if repeat > 1 {
		printSpread(values)
	}
	return firstErr
}

// printSpread prints, per workload and metric, the median, the quartiles,
// the interquartile range as a share of the median (the figure the
// bounds in BENCHMARK.json are calibrated against) and the largest
// deviation from the median.
func printSpread(values map[string][]float64) {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-48s %14s %14s %14s %8s %8s\n", "workload metric", "median", "q1", "q3", "iqr/med", "max dev")
	for _, k := range keys {
		v := values[k]
		med := median(v)
		q1, q3 := quartiles(v)
		var dev float64
		for _, x := range v {
			dev = max(dev, math.Abs(x-med))
		}
		fmt.Printf("%-48s %14.4f %14.4f %14.4f %7.2f%% %7.2f%%\n", k, med, q1, q3, 100*(q3-q1)/med, 100*dev/med)
	}
}
