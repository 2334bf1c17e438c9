package main

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
)

// TestLineageGate is the provenance gate (`make lineage`): under a
// fixed seed, every fired window's result card — query, window bounds,
// epoch range, responses, realized fraction, shed level, CI width,
// budget burn, drop/dedup counts — must be identical across the
// in-process pipeline's Workers settings, and pins the known s=1
// workload. The networked half — the privapprox-node deployment's cards
// byte-identical to these — is asserted by TestMultiProcessMultiQuerySmoke
// on this gate's workload. Only DeterministicLine fields
// participate; timing enrichment (E2E latency, stamp counts) is
// deployment-dependent by design.
func TestLineageGate(t *testing.T) {
	const (
		clients    = 6
		epochs     = 4
		seed       = 42
		numQueries = 2
	)
	want := inProcessCards(t, clients, epochs, seed, numQueries, 1)
	if len(want) == 0 {
		t.Fatal("in-process reference emitted no cards")
	}
	for _, workers := range []int{4, 0} {
		got := inProcessCards(t, clients, epochs, seed, numQueries, workers)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("cards differ across Workers=%d.\nwant:\n%s\ngot:\n%s",
				workers, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}

	// Sanity-pin the known workload: s=1 and an exact population means
	// every card reports full realized participation and no drops, and
	// the aggregator counts no late answer.
	for _, line := range want {
		for _, field := range []string{"fraction=1", "shed=1", "duplicates=0", "malformed=0"} {
			if !strings.Contains(line, field+" ") && !strings.HasSuffix(line, field) {
				t.Errorf("card %q missing expected %q for the s=1 workload", line, field)
			}
		}
	}
}

// cardsBlock extracts and sorts the deterministic card lines printed
// under the CARDS marker.
func cardsBlock(t *testing.T, out string) []string {
	t.Helper()
	i := strings.Index(out, "CARDS\n")
	if i < 0 {
		t.Fatalf("aggregator output has no CARDS block:\n%s", out)
	}
	var lines []string
	for _, ln := range strings.Split(out[i+len("CARDS\n"):], "\n") {
		if strings.HasPrefix(ln, "query=") {
			lines = append(lines, ln)
		}
	}
	sort.Strings(lines)
	return lines
}

// inProcessCards runs the single-process multi-query deployment and
// returns the sorted deterministic card lines from its lineage
// recorder.
func inProcessCards(t *testing.T, clients, epochs int, seed int64, numQueries, workers int) []string {
	t.Helper()
	sys, _ := inProcessSystem(t, clients, epochs, seed, numQueries, workers)
	if late := sys.Aggregator().Stats().Late; late != 0 {
		t.Errorf("Workers=%d: the aggregator counted %d late answers, want 0", workers, late)
	}
	var lines []string
	for _, c := range sys.Lineage().Cards(nil) {
		lines = append(lines, c.DeterministicLine())
	}
	sort.Strings(lines)
	return lines
}

// TestHealthEndpoints exercises the node-level health plane: every
// role's metrics mux serves /healthz, and the submit role's /readyz
// reports ready once its control-plane sinks have caught up to the
// registry's announcement version.
func TestHealthEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("health endpoint test skipped in -short mode")
	}
	d := deploy(t, buildNode(t), []string{"-partitions=4", "-metrics-addr=127.0.0.1:0"}, []string{"-partitions=4"})

	metrics0 := d.proxy[0].metrics
	if body := getOK(t, strings.Replace(metrics0, "/metrics", "/healthz", 1)); body != "ok\n" {
		t.Errorf("proxy /healthz body = %q, want %q", body, "ok\n")
	}

	// The proxy serves no /readyz (it has no control-plane sink notion);
	// the mux must 404 rather than claim readiness.
	if resp, err := http.Get(strings.Replace(metrics0, "/metrics", "/readyz", 1)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("proxy /readyz status = %d, want 404", resp.StatusCode)
		}
	}

	// Submit role with -linger: after announcing, the registry and its
	// fleet sink agree on the version, so /readyz flips to 200.
	submitMetrics := d.submitLingering("-queries=1", "-s=1")
	readyz := strings.Replace(submitMetrics, "/metrics", "/readyz", 1)
	if body := getOK(t, readyz); body != "ready\n" {
		t.Errorf("submit /readyz body = %q, want %q", body, "ready\n")
	}
	if body := getOK(t, strings.Replace(submitMetrics, "/metrics", "/healthz", 1)); body != "ok\n" {
		t.Errorf("submit /healthz body = %q, want %q", body, "ok\n")
	}
}

// getOK GETs a URL, requires status 200, and returns the body.
func getOK(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", url, resp.StatusCode, body)
	}
	return string(body)
}
