package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"privapprox/internal/telemetry/lineage"
)

// TestObsGate is the observability gate (`make obsgate`): it runs the
// networked deployment with -metrics-addr enabled, scrapes /metrics
// off a live proxy between client epochs and off the aggregator
// mid-drain, and asserts (a) the core instrument set is present in
// Prometheus text format, (b) traffic counters are monotonic across
// epochs, (c) the expvar mirror at /debug/vars serves the same
// registry as JSON, (d) /readyz on the lingering submit role reports
// caught-up control sinks, and (e) the aggregator's
// /debug/privapprox/windows page serves result cards whose fields
// match the known s=1 workload.
func TestObsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("obsgate skipped in -short mode")
	}
	// Nine epochs so the first 4s window fires *during* the drain (the
	// watermark needs event time 8s before [0,4s) closes): the windows
	// page then has a live card to validate while the aggregator holds.
	const (
		clients = 4
		epochs  = 9
	)
	d := deploy(t, buildNode(t), []string{"-partitions=4", "-metrics-addr=127.0.0.1:0"}, []string{"-partitions=4"})
	metrics0 := d.proxy[0].metrics

	// The submit role lingers with its metrics mux up: once the
	// announcement lands, its control sinks are caught up and /readyz
	// must flip to 200.
	submitMetrics := d.submitLingering("-queries=1", "-s=1")
	readyz := strings.Replace(submitMetrics, "/metrics", "/readyz", 1)
	if body := getOK(t, readyz); body != "ready\n" {
		t.Errorf("submit /readyz body = %q, want %q", body, "ready\n")
	}

	// Epoch 0, scrape, epochs 1..8 (resumed via -first-epoch), scrape
	// again: the two snapshots bracket eight epochs of traffic.
	runClientEpoch := func(first, upto int) {
		t.Helper()
		d.run("client", "-seed=42", "-queries=1", "-offset=0", fmt.Sprintf("-n=%d", clients),
			fmt.Sprintf("-first-epoch=%d", first), fmt.Sprintf("-epochs=%d", upto), "-conns=2")
	}
	runClientEpoch(0, 1)
	scrape1 := scrapeMetrics(t, metrics0)
	runClientEpoch(1, epochs)
	scrape2 := scrapeMetrics(t, metrics0)

	// Every role's mux serves liveness.
	if body := getOK(t, strings.Replace(metrics0, "/metrics", "/healthz", 1)); body != "ok\n" {
		t.Errorf("proxy /healthz body = %q, want %q", body, "ok\n")
	}

	// Core proxy instrument set: broker traffic counters, backlog
	// gauges, and the publish-latency histogram series.
	for _, name := range []string{
		"privapprox_broker_messages_in_total",
		"privapprox_broker_bytes_in_total",
		"privapprox_broker_messages_out_total",
		"privapprox_broker_rejected_total",
		"privapprox_broker_duplicates_total",
		"privapprox_broker_backlog",
		"privapprox_publish_ns_bucket",
		"privapprox_publish_ns_count",
		"privapprox_publish_ns_sum",
	} {
		if !hasMetric(scrape2, name) {
			t.Errorf("proxy /metrics missing %s:\n%s", name, scrape2)
		}
	}

	// Monotonicity across the two epochs: each client epoch publishes
	// clients shares to this proxy, so the ingest counters must strictly
	// grow between the snapshots.
	for _, name := range []string{
		"privapprox_broker_messages_in_total",
		"privapprox_broker_bytes_in_total",
		"privapprox_publish_ns_count",
	} {
		v1 := metricValue(t, scrape1, name)
		v2 := metricValue(t, scrape2, name)
		if !(v2 > v1) {
			t.Errorf("%s not monotonic across epochs: %v then %v", name, v1, v2)
		}
	}

	// The expvar mirror serves the same registry as JSON: a flat
	// series→value map under the "privapprox" key.
	var vars struct {
		Privapprox map[string]float64 `json:"privapprox"`
	}
	varsURL := strings.Replace(metrics0, "/metrics", "/debug/vars", 1)
	resp, err := http.Get(varsURL)
	if err != nil {
		t.Fatalf("GET %s: %v", varsURL, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if _, ok := vars.Privapprox["privapprox_broker_messages_in_total"]; !ok {
		t.Errorf("/debug/vars missing privapprox_broker_messages_in_total:\n%s", body)
	}

	// Aggregator leg: durable mode with the -hold-after testing hook, so
	// after decoding every expected answer the process checkpoints and
	// parks with its metrics listener still up — a stable scrape window
	// in which nothing a later assertion reads is still moving. The stage
	// totals prove the tracer saw the join stage, the WAL histogram proves
	// checkpoint appends were timed, and the decode counter must reach the
	// exact expected count at s=1.
	agg := d.start("aggregator", "-seed=42",
		fmt.Sprintf("-clients=%d", clients), fmt.Sprintf("-epochs=%d", epochs),
		"-conns=2", "-idle=10s", "-metrics-addr=127.0.0.1:0",
		"-data-dir="+t.TempDir(), fmt.Sprintf("-hold-after=%d", clients*epochs))
	aggMetricsURL := agg.metricsURL(t)
	agg.await(t, "holding for kill", 20*time.Second)
	aggScrape := scrapeMetrics(t, aggMetricsURL)
	for _, name := range []string{
		"privapprox_agg_decoded_total",
		"privapprox_agg_duplicates_total",
		"privapprox_agg_queries",
		"privapprox_stage_busy_ns_total",
		"privapprox_stage_events_total",
		"privapprox_query_decoded_total",
		"privapprox_wal_append_ns_count",
		"privapprox_lineage_stamps_total",
		"privapprox_lineage_stamps_malformed_total",
		"privapprox_window_cards_emitted_total",
		"privapprox_window_e2e_ns_count",
		"privapprox_window_ci_width",
		"privapprox_window_realized_fraction",
	} {
		if !hasMetric(aggScrape, name) {
			t.Errorf("aggregator /metrics missing %s:\n%s", name, aggScrape)
		}
	}
	if got := metricValue(t, aggScrape, "privapprox_agg_decoded_total"); got != float64(clients*epochs) {
		t.Errorf("privapprox_agg_decoded_total = %v, want %d", got, clients*epochs)
	}
	if got := metricValue(t, aggScrape, "privapprox_wal_append_ns_count"); !(got > 0) {
		t.Errorf("privapprox_wal_append_ns_count = %v, want > 0 (checkpoint appends)", got)
	}
	// One stamp per client-process flush reached the lineage fold.
	if got := metricValue(t, aggScrape, "privapprox_lineage_stamps_total"); got != float64(epochs) {
		t.Errorf("privapprox_lineage_stamps_total = %v, want %d (one per epoch flush)", got, epochs)
	}
	if got := metricValue(t, aggScrape, "privapprox_lineage_stamps_malformed_total"); got != 0 {
		t.Errorf("privapprox_lineage_stamps_malformed_total = %v, want 0", got)
	}

	// The windows debug page: the card fired mid-drain, with its fields
	// pinned by the known workload — s=1, full participation, no drops,
	// and a stamp-anchored end-to-end latency.
	if body := getOK(t, strings.Replace(aggMetricsURL, "/metrics", "/healthz", 1)); body != "ok\n" {
		t.Errorf("aggregator /healthz body = %q, want %q", body, "ok\n")
	}
	windowsURL := strings.Replace(aggMetricsURL, "/metrics", "/debug/privapprox/windows", 1)
	var page struct {
		Emitted         int64          `json:"emitted"`
		Suppressed      int64          `json:"suppressed"`
		Stamps          int64          `json:"stamps"`
		StampsMalformed int64          `json:"stamps_malformed"`
		Cards           []lineage.Card `json:"cards"`
	}
	if err := json.Unmarshal([]byte(getOK(t, windowsURL)), &page); err != nil {
		t.Fatalf("windows page is not JSON: %v", err)
	}
	if page.Emitted < 1 || len(page.Cards) < 1 {
		t.Fatalf("windows page has no cards: %+v", page)
	}
	if page.Stamps != int64(epochs) || page.StampsMalformed != 0 {
		t.Errorf("windows page stamps = %d, malformed %d; want %d, 0", page.Stamps, page.StampsMalformed, epochs)
	}
	c := page.Cards[0]
	// Window [0,4s) covers epochs 0..3 of the whole population, so its
	// population is pinned at clients×4. Its response count is not: the
	// window fires the instant the watermark reaches 4s, and partition
	// drain order decides how many of those answers had joined by then —
	// so require internal consistency (realized = responses/population,
	// and the Prometheus gauge agreeing with the card) rather than full
	// participation, which only the Flush-fired lineage gate pins.
	wantPopulation := clients * 4
	switch {
	case c.Query != "node-analyst:1":
		t.Errorf("card query = %q, want node-analyst:1", c.Query)
	case c.WindowEnd-c.WindowStart != int64(4*time.Second):
		t.Errorf("card window width = %d, want 4s", c.WindowEnd-c.WindowStart)
	case c.EpochFirst != 0 || c.EpochLast != 3:
		t.Errorf("card epochs = [%d,%d], want [0,3]", c.EpochFirst, c.EpochLast)
	case c.Population != wantPopulation:
		t.Errorf("card population = %d, want %d", c.Population, wantPopulation)
	case c.Responses < 1 || c.Responses > wantPopulation:
		t.Errorf("card responses = %d, want 1..%d", c.Responses, wantPopulation)
	case c.Fraction != 1 || c.Shed != 1:
		t.Errorf("card fraction/shed = %v/%v, want 1/1", c.Fraction, c.Shed)
	case float64(c.Realized) != float64(c.Responses)/float64(c.Population):
		t.Errorf("card realized = %v, want responses/population = %d/%d", c.Realized, c.Responses, c.Population)
	case c.Late != 0 || c.Duplicates != 0 || c.Malformed != 0:
		t.Errorf("card drop counters = %d/%d/%d, want 0/0/0", c.Late, c.Duplicates, c.Malformed)
	case c.Stamps < 4:
		t.Errorf("card stamps = %d, want ≥ 4 (one per feeding epoch)", c.Stamps)
	case c.E2ENs <= 0:
		t.Errorf("card e2e_ns = %d, want > 0 (stamp-anchored latency)", c.E2ENs)
	case !(c.CIWidth > 0):
		t.Errorf("card ci_width = %v, want > 0", c.CIWidth)
	}
	if got := metricValue(t, aggScrape, "privapprox_window_realized_fraction"); got != float64(c.Realized) {
		t.Errorf("privapprox_window_realized_fraction = %v, want %v (the fired card's realized)", got, c.Realized)
	}
}

// scrapeMetrics GETs a /metrics URL and returns the body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("GET %s: content type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// hasMetric reports whether a non-comment sample line for name exists.
func hasMetric(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name) && (len(line) == len(name) ||
			line[len(name)] == ' ' || line[len(name)] == '{') {
			return true
		}
	}
	return false
}

// lookupMetric returns the value of the first sample line for name
// (exact name match, any labels).
func lookupMetric(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// metricValue is lookupMetric that fails the test when absent.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	v, ok := lookupMetric(body, name)
	if !ok {
		t.Fatalf("metric %s not found in scrape:\n%s", name, body)
	}
	return v
}
