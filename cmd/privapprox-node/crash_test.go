package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/role"
	"privapprox/internal/telemetry"
	"privapprox/internal/telemetry/lineage"
	"privapprox/internal/wal"
)

// The kill-and-resume gate. Both tests drive the real multi-process
// loopback deployment, SIGKILL one component mid-run, restart it from
// its -data-dir, and require the final per-query results to be
// byte-identical to an uninterrupted run — no lost windows, no
// double-counted answers.

const (
	crashClients = 6
	crashEpochs  = 4
	crashSeed    = 42
)

// finalBlock extracts everything after the durable aggregator's
// "RESULTS" marker: the full result sequence plus the stats line.
func finalBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "RESULTS\n")
	if i < 0 {
		t.Fatalf("aggregator output has no RESULTS block:\n%s", out)
	}
	return out[i+len("RESULTS\n"):]
}

// crashStream deploys two in-memory proxies, announces the query and
// runs the whole client population, leaving every share queued at the
// proxies. A durable aggregator commits what its checkpoints cover and
// the proxies release it, so a stream can be aggregated once: the
// reference run and the crash run each get their own (the results are
// seed-determined, so the two streams aggregate to the same bytes). It
// returns the clients' share ledger beside the deployment.
func crashStream(t *testing.T, bin string) (d *deployment, answered int64, dropped []int64) {
	t.Helper()
	d = deploy(t, bin, []string{"-partitions=4"})
	d.run("submit", "-queries=1", "-s=1")
	answered, dropped = d.clients(1, crashEpochs, nil)
	return d, answered, dropped
}

// checkLedger checks role.Balance over the clients' share ledger and a
// restarted aggregator's stats line: the counters are part of the
// checkpoint, so the restored aggregator's account covers both lives.
func checkLedger(t *testing.T, answered int64, dropped []int64, aggOut string) {
	t.Helper()
	st, fetched, pending := aggregatorLedger(t, aggOut, len(dropped))
	if err := role.Balance(answered, dropped, fetched, st, pending); err != nil {
		t.Errorf("share ledger across the restart: %v\n%s", err, aggOut)
	}
}

// TestCrashRecoveryAggregator SIGKILLs the aggregator mid-drain (while
// it is provably holding a durable checkpoint of a partially processed
// stream) and restarts it over the same -data-dir. Every checkpoint the
// killed run wrote was followed by a commit, so the proxies have
// released everything below the last one: the restarted aggregator's
// resume arrives after the trim and must seek at or above the floor.
func TestCrashRecoveryAggregator(t *testing.T) {
	if testing.Short() {
		t.Skip("crash test skipped in -short mode")
	}
	bin := buildNode(t)

	aggArgs := func(dataDir string, extra ...string) []string {
		return append([]string{"-seed=42", "-clients=6", "-epochs=4", "-conns=2", "-idle=5s",
			"-data-dir=" + dataDir}, extra...)
	}

	// Reference: an uninterrupted durable run.
	refDir := t.TempDir()
	ref, _, _ := crashStream(t, bin)
	want := finalBlock(t, ref.run("aggregator", aggArgs(refDir)...))
	// Tie the reference to ground truth: the in-process pipeline.
	inproc := inProcessReference(t, crashClients, crashEpochs, crashSeed, 1)
	if !strings.Contains(want, inproc) {
		t.Fatalf("durable reference diverges from in-process pipeline.\nwant:\n%s\ngot:\n%s", inproc, want)
	}
	wantCounts := fmt.Sprintf("decoded=%d malformed=0 duplicates=0 unknown=0 mismatched=0",
		crashClients*crashEpochs)
	if !strings.Contains(want, wantCounts) {
		t.Fatalf("reference run lost answers:\n%s", want)
	}

	// Crash run, over a stream of its own: small polls for tight
	// checkpoints, hold (and get killed) after 10 of the 24 answers.
	d, answered, dropped := crashStream(t, bin)
	crashDir := t.TempDir()
	agg := d.start("aggregator", aggArgs(crashDir, "-poll-max=5", "-hold-after=10")...)
	agg.await(t, "holding for kill", 30*time.Second)
	agg.kill()
	killedOut := agg.output()
	if !strings.Contains(killedOut, "checkpoint lsn=") {
		t.Fatalf("killed aggregator never checkpointed:\n%s", killedOut)
	}
	if strings.Contains(killedOut, "RESULTS") {
		t.Fatalf("killed aggregator finished before the kill:\n%s", killedOut)
	}

	// Restart from the same directory; it must resume, not start over.
	resumeOut := d.run("aggregator", aggArgs(crashDir)...)
	if !strings.Contains(resumeOut, "restored checkpoint:") {
		t.Fatalf("restarted aggregator did not restore a checkpoint:\n%s", resumeOut)
	}
	if got := finalBlock(t, resumeOut); got != want {
		t.Errorf("kill-and-resume results differ from uninterrupted run.\nwant:\n%s\ngot:\n%s", want, got)
	}
	checkLedger(t, answered, dropped, resumeOut)
	// The resume really did arrive after a trim: the proxies have released
	// the head of every partition that carried shares.
	for i, p := range d.proxy {
		cli, err := pubsub.DialOptions(p.addr, pubsub.Options{Conns: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for part := 0; part < 4; part++ {
			if end, err := cli.EndOffset(proxy.TopicFor(i), part); err != nil || end == 0 {
				continue
			}
			if _, _, err := cli.FetchWait(proxy.TopicFor(i), part, 0, 1, 0, nil, nil); !errors.Is(err, pubsub.ErrBadOffset) {
				t.Errorf("proxy %d partition %d still serves offset 0 after the aggregator's commits: %v", i, part, err)
			}
		}
	}

	// Exactly-once result cards across the crash: the killed run logged
	// cards for the windows it fired before the kill; the restored run
	// re-fires nothing it already logged, so the combined card log must
	// hold each (query, window) exactly once — the same set the
	// uninterrupted reference logged.
	if cardWindows(t, refDir) == "" {
		t.Fatal("reference run logged no result cards")
	}
	if gotCards, wantCards := cardWindows(t, crashDir), cardWindows(t, refDir); gotCards != wantCards {
		t.Errorf("kill-and-resume card log differs from uninterrupted run.\nwant:\n%s\ngot:\n%s", wantCards, gotCards)
	}
}

// cardWindows reads a durable run's cards.jsonl and returns the sorted
// (query, window) identities, failing the test on any duplicate — the
// exactly-once contract for card emission across restarts.
func cardWindows(t *testing.T, dataDir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "cards.jsonl"))
	if err != nil {
		t.Fatalf("reading card log: %v", err)
	}
	seen := map[string]bool{}
	var ids []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var c lineage.Card
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("unparseable card line %q: %v", line, err)
		}
		id := fmt.Sprintf("%s [%d,%d)", c.Query, c.WindowStart, c.WindowEnd)
		if seen[id] {
			t.Fatalf("card for %s emitted twice in %s", id, dataDir)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, "\n")
}

// TestCrashRecoveryAggregatorMidRunQuery: the aggregator checkpoints
// while the control topic holds one query and is killed after a second
// one was announced and answered. The restart restores before it waits
// for a query: the restore replays the control topic to the
// checkpoint's control position, and the second announcement arrives
// after it as an ordinary one. (Before the record held that position,
// the restart synced the newer set first and refused the record.) Every
// query's windows equal, byte for byte and in order, an uninterrupted
// aggregator's over the same staged stream, the card log holds each
// window once, and the share ledger balances over both lives.
func TestCrashRecoveryAggregatorMidRunQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash test skipped in -short mode")
	}
	bin := buildNode(t)
	aggArgs := func(dataDir string, extra ...string) []string {
		return append([]string{"-seed=42", "-clients=6", "-epochs=4", "-conns=2", "-idle=2s",
			"-data-dir=" + dataDir}, extra...)
	}
	// stage runs the first client process on one query, then between,
	// then announces the second query and runs the second client process
	// on both; it returns the clients' share ledger.
	stage := func(d *deployment, between func()) (answered int64, dropped []int64) {
		d.run("submit", "-queries=1", "-s=1")
		answered, dropped = d.client(0, 1, crashEpochs)
		between()
		d.run("submit", "-queries=2", "-s=1")
		answers, perProxy := d.client(3, 2, crashEpochs)
		for i, n := range perProxy {
			dropped[i] += n
		}
		return answered + answers, dropped
	}

	// Reference: the whole stream staged, then one uninterrupted run.
	ref := deploy(t, bin, []string{"-partitions=4"})
	stage(ref, func() {})
	refDir := t.TempDir()
	want := finalBlock(t, ref.run("aggregator", aggArgs(refDir)...))
	if !strings.Contains(want, "query "+nodeAnalyst+":2 window ") {
		t.Fatalf("the reference fired no window of the second query:\n%s", want)
	}

	// Crash run: the aggregator checkpoints and holds on the first query's
	// answers, and is killed once the second query has been answered.
	d := deploy(t, bin, []string{"-partitions=4"})
	crashDir := t.TempDir()
	var agg *proc
	answered, dropped := stage(d, func() {
		agg = d.start("aggregator", aggArgs(crashDir, "-poll-max=5", "-hold-after=6")...)
		agg.await(t, "holding for kill", 30*time.Second)
	})
	agg.kill()
	if out := agg.output(); !strings.Contains(out, "aggregating 1 queries") || !strings.Contains(out, "checkpoint lsn=") {
		t.Fatalf("the killed aggregator did not checkpoint on one query:\n%s", out)
	}
	resumeOut := d.run("aggregator", aggArgs(crashDir)...)
	if !strings.Contains(resumeOut, "restored checkpoint:") {
		t.Fatalf("restarted aggregator did not restore a checkpoint:\n%s", resumeOut)
	}
	if got := finalBlock(t, resumeOut); got != want {
		t.Errorf("results across the restart differ from the uninterrupted run.\nwant:\n%s\ngot:\n%s", want, got)
	}
	if gotCards, wantCards := cardWindows(t, crashDir), cardWindows(t, refDir); gotCards != wantCards {
		t.Errorf("card log across the restart differs from the uninterrupted run.\nwant:\n%s\ngot:\n%s", wantCards, gotCards)
	}
	checkLedger(t, answered, dropped, resumeOut)
}

// TestCrashRecoveryProxy SIGKILLs a durable proxy while half the
// population's shares (and the announced query set) live only in its
// journals, restarts it on the same port and data directory, and runs
// the remaining clients plus the aggregator against the revived fleet.
func TestCrashRecoveryProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("crash test skipped in -short mode")
	}
	bin := buildNode(t)
	durable := []string{"-partitions=4", "-data-dir=" + t.TempDir(), "-fsync=every-batch"}
	d := deploy(t, bin, durable, []string{"-partitions=4"})
	d.run("submit", "-queries=1", "-s=1")

	// The first half of the population answers all its epochs, then the
	// answer proxy dies without warning and is revived on the same port
	// from its journals. The second half joins after the restart; its
	// query set comes from the replayed control topic — nothing is
	// re-announced.
	d.clients(1, crashEpochs, func(offset int) {
		if offset == 0 {
			return
		}
		d.proxy[0].kill()
		if p := startProxy(t, bin, d.proxy[0].addr, 0, durable...); p.addr != d.proxy[0].addr {
			t.Fatalf("restarted proxy bound %s, want %s", p.addr, d.proxy[0].addr)
		}
	})

	got := d.run("aggregator", "-seed=42", "-clients=6", "-epochs=4", "-conns=2", "-idle=5s")
	wantCounts := fmt.Sprintf("decoded=%d malformed=0 duplicates=0 unknown=0 mismatched=0",
		crashClients*crashEpochs)
	if !strings.Contains(got, wantCounts) {
		t.Errorf("aggregator lost shares across the proxy restart (missing %q):\n%s", wantCounts, got)
	}
	want := inProcessReference(t, crashClients, crashEpochs, crashSeed, 1)
	if want == "" {
		t.Fatal("in-process reference produced no windows")
	}
	if !strings.Contains(got, want) {
		t.Errorf("results across proxy crash differ from uninterrupted pipeline.\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestAggregatorRefusesOldFormatDataDir: an aggregator -data-dir whose
// checkpoint log was written in the retired one-frame-per-LSN WAL format
// (a segment checked in beside the WAL package) is refused with
// wal.ErrOldFormat before anything is restored, and the segment is left
// as it was.
func TestAggregatorRefusesOldFormatDataDir(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "wal", "testdata", "old-format-broker", "meta", "wal-0000000000000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, "aggregator", "wal-0000000000000000.seg")
	if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openCheckpointer(dir, "never", nil, nil, telemetry.NewRegistry(), nil); !errors.Is(err, wal.ErrOldFormat) {
		t.Fatalf("openCheckpointer = %v, want wal.ErrOldFormat", err)
	}
	if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the refused checkpoint segment changed (%v)", err)
	}
}
