package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryInstrumentsIdempotent(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("a_ns")
	h2 := r.Histogram("a_ns")
	if h1 != h2 {
		t.Fatal("same name must return same histogram")
	}
	h1.Observe(3)
	h2.Observe(4)
	if got := h1.Count(); got != 2 {
		t.Fatalf("histogram count = %d, want 2", got)
	}
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "2fast", "has space", "dash-ed", "percent%"} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("registering %q must panic", name)
				}
				if msg := fmt.Sprint(p); !strings.Contains(msg, fmt.Sprintf("%q", name)) {
					t.Fatalf("panic %q does not name the bad metric %q", msg, name)
				}
			}()
			NewRegistry().Histogram(name)
		}()
	}
	// The full Prometheus grammar must stay accepted.
	r := NewRegistry()
	for _, name := range []string{"a", "_lead", "ns:scoped_ns", "privapprox_window_e2e_ns"} {
		r.Histogram(name)
	}
}

// counterSource exports c as the counter series name, the way a
// component publishes the counters it keeps.
func counterSource(name string, c *atomic.Int64) Source {
	return SourceFunc(func(dst []Sample) []Sample {
		return append(dst, Sample{Name: name, Value: float64(c.Load()), Kind: KindCounter})
	})
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	h.Observe(100)  // < 256 → bucket 0
	h.Observe(300)  // < 512 → bucket 1
	h.Observe(1000) // < 1024 → bucket 2
	h.Observe(1 << 50)
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	wantSum := int64(100 + 300 + 1000 + 1<<50)
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	cum, count, _ := h.snapshot()
	if count != 4 {
		t.Fatalf("snapshot count = %d, want 4", count)
	}
	if cum[0] != 1 || cum[1] != 2 || cum[2] != 3 {
		t.Fatalf("cumulative low buckets = %v %v %v, want 1 2 3", cum[0], cum[1], cum[2])
	}
	if cum[histBuckets] != 4 {
		t.Fatalf("+Inf bucket = %d, want 4", cum[histBuckets])
	}
	// The expanded samples must keep ascending bucket order through
	// Gather's sort.
	var le []string
	for _, s := range r.Gather() {
		if s.Name == "lat_ns_bucket" {
			le = append(le, s.LabelValue)
		}
	}
	if len(le) != histBuckets+1 || le[0] != "256" || le[1] != "512" || le[len(le)-1] != "+Inf" {
		t.Fatalf("bucket label order wrong: %v", le)
	}
}

func TestBucketOfEdges(t *testing.T) {
	if b := bucketOf(0); b != 0 {
		t.Fatalf("bucketOf(0) = %d", b)
	}
	if b := bucketOf(255); b != 0 {
		t.Fatalf("bucketOf(255) = %d", b)
	}
	if b := bucketOf(256); b != 1 {
		t.Fatalf("bucketOf(256) = %d", b)
	}
	if b := bucketOf(1 << 63); b != histBuckets {
		t.Fatalf("bucketOf(1<<63) = %d, want overflow", b)
	}
}

// TestConcurrentRegistrationAndSnapshot hammers the registry from
// three directions at once — new-histogram registration, hot-path
// writes on every shard and on a counter a source exports, and
// Gather/WriteProm snapshots — and must be race-clean (the make ci race
// gate runs this package with -race).
func TestConcurrentRegistrationAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("busy_ns")
	var c atomic.Int64
	r.RegisterSource(counterSource("ops_total", &c))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe(v & 0xFFFFF)
				c.Add(1)
			}
		}(int64(w + 1))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Histogram(fmt.Sprintf("dyn_%d_%d_ns", id, i%32)).Observe(int64(i))
			}
		}(w)
	}
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			if err := r.WriteProm(&strings.Builder{}); err != nil {
				t.Errorf("WriteProm: %v", err)
				done = true
			}
		}
	}
	close(stop)
	wg.Wait()
	samples := r.Gather()
	var total float64
	for _, s := range samples {
		if s.Name == "ops_total" {
			total = s.Value
		}
	}
	if total <= 0 {
		t.Fatalf("ops_total = %v after load", total)
	}
	if int64(total) != c.Load() {
		// Final gather runs after every writer stopped, so it must be
		// exact, not merely monotone.
		t.Fatalf("final snapshot %v != counter %d", total, c.Load())
	}
}

func TestSourceSamplesAppearInGather(t *testing.T) {
	r := NewRegistry()
	r.RegisterSource(SourceFunc(func(dst []Sample) []Sample {
		return append(dst, Sample{Name: "src_value", Value: 42, Kind: KindGauge})
	}))
	for _, s := range r.Gather() {
		if s.Name == "src_value" && s.Value == 42 {
			return
		}
	}
	t.Fatal("source sample missing from Gather")
}
