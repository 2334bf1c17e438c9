package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
	"privapprox/internal/telemetry/lineage"
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

// crashStream starts two in-memory proxies, announces the query and
// runs the whole client population, leaving every share queued at the
// proxies. A durable aggregator commits what its checkpoints cover and
// the proxies release it, so a stream can be aggregated once: the
// reference run and the crash run each get their own (the results are
// seed-determined, so the two streams aggregate to the same bytes).
func crashStream(t *testing.T, bin string) (proxies string) {
	t.Helper()
	addr0, stop0 := startProxy(t, bin, 0, "-partitions=4")
	t.Cleanup(stop0)
	addr1, stop1 := startProxy(t, bin, 1, "-partitions=4")
	t.Cleanup(stop1)
	proxies = "-proxies=" + addr0 + "," + addr1

	out, err := exec.Command(bin, "submit", proxies, "-queries=1", "-s=1").CombinedOutput()
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, out)
	}
	for _, offset := range []int{0, 3} {
		out, err := exec.Command(bin, "client", proxies, "-seed=42",
			fmt.Sprintf("-offset=%d", offset), "-n=3", "-epochs=4", "-conns=2").CombinedOutput()
		if err != nil {
			t.Fatalf("client (offset %d): %v\n%s", offset, err, out)
		}
	}
	return proxies
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

	aggArgs := func(proxies, dataDir string, extra ...string) []string {
		return append([]string{"aggregator", proxies, "-seed=42", "-queries=1",
			"-clients=6", "-epochs=4", "-conns=2", "-idle=5s",
			"-data-dir=" + dataDir}, extra...)
	}

	// Reference: an uninterrupted durable run.
	refDir := t.TempDir()
	refOut, err := exec.Command(bin, aggArgs(crashStream(t, bin), refDir)...).CombinedOutput()
	if err != nil {
		t.Fatalf("reference aggregator: %v\n%s", err, refOut)
	}
	want := finalBlock(t, string(refOut))
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
	proxies := crashStream(t, bin)
	crashDir := t.TempDir()
	cmd := exec.Command(bin, aggArgs(proxies, crashDir, "-poll-max=5", "-hold-after=10")...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	holding := make(chan struct{})
	var crashLog strings.Builder
	var logMu sync.Mutex
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			crashLog.WriteString(line + "\n")
			logMu.Unlock()
			if line == "holding for kill" {
				close(holding)
			}
		}
	}()
	select {
	case <-holding:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		logMu.Lock()
		log := crashLog.String()
		logMu.Unlock()
		t.Fatalf("aggregator never reached the kill window:\n%s", log)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	logMu.Lock()
	killedOut := crashLog.String()
	logMu.Unlock()
	if !strings.Contains(killedOut, "checkpoint lsn=") {
		t.Fatalf("killed aggregator never checkpointed:\n%s", killedOut)
	}
	if strings.Contains(killedOut, "RESULTS") {
		t.Fatalf("killed aggregator finished before the kill:\n%s", killedOut)
	}

	// Restart from the same directory; it must resume, not start over.
	resumeOut, err := exec.Command(bin, aggArgs(proxies, crashDir)...).CombinedOutput()
	if err != nil {
		t.Fatalf("restarted aggregator: %v\n%s", err, resumeOut)
	}
	if !strings.Contains(string(resumeOut), "restored checkpoint:") {
		t.Fatalf("restarted aggregator did not restore a checkpoint:\n%s", resumeOut)
	}
	got := finalBlock(t, string(resumeOut))
	if got != want {
		t.Errorf("kill-and-resume results differ from uninterrupted run.\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The resume really did arrive after a trim: the proxies have released
	// the head of every partition that carried shares.
	for i, addr := range strings.Split(strings.TrimPrefix(proxies, "-proxies="), ",") {
		cli, err := pubsub.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for p := 0; p < 4; p++ {
			if end, err := cli.EndOffset(proxy.TopicFor(i), p); err != nil || end == 0 {
				continue
			}
			if _, err := cli.Fetch(proxy.TopicFor(i), p, 0, 1, 0); !errors.Is(err, pubsub.ErrBadOffset) {
				t.Errorf("proxy %d partition %d still serves offset 0 after the aggregator's commits: %v", i, p, err)
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

// TestCrashRecoveryProxy SIGKILLs a durable proxy while half the
// population's shares (and the announced query set) live only in its
// journals, restarts it on the same port and data directory, and runs
// the remaining clients plus the aggregator against the revived fleet.
func TestCrashRecoveryProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("crash test skipped in -short mode")
	}
	bin := buildNode(t)

	proxyDir := t.TempDir()
	addr0, stop0 := startProxy(t, bin, 0, "-partitions=4", "-data-dir="+proxyDir, "-fsync=every-batch")
	addr1, stop1 := startProxy(t, bin, 1, "-partitions=4")
	defer stop1()
	proxies := "-proxies=" + addr0 + "," + addr1

	out, err := exec.Command(bin, "submit", proxies, "-queries=1", "-s=1").CombinedOutput()
	if err != nil {
		t.Fatalf("submit: %v\n%s", err, out)
	}

	// First half of the population answers all its epochs...
	out, err = exec.Command(bin, "client", proxies, "-seed=42",
		"-offset=0", "-n=3", "-epochs=4", "-conns=2").CombinedOutput()
	if err != nil {
		t.Fatalf("client (offset 0): %v\n%s", err, out)
	}

	// ...then the answer proxy dies without warning.
	stop0() // SIGKILL + wait (see startProxyAt's stop func)

	// Revive it on the same port from its journals.
	addr0b, stop0b := startProxyAt(t, bin, addr0, 0, "-partitions=4", "-data-dir="+proxyDir, "-fsync=every-batch")
	defer stop0b()
	if addr0b != addr0 {
		t.Fatalf("restarted proxy bound %s, want %s", addr0b, addr0)
	}

	// The second half of the population joins after the restart. Its
	// query set comes from the replayed control topic — nothing is
	// re-announced.
	out, err = exec.Command(bin, "client", proxies, "-seed=42",
		"-offset=3", "-n=3", "-epochs=4", "-conns=2").CombinedOutput()
	if err != nil {
		t.Fatalf("client (offset 3) after proxy restart: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "picked up 1 queries") {
		t.Fatalf("client did not pick up the replayed query set:\n%s", out)
	}

	aggOut, err := exec.Command(bin, "aggregator", proxies, "-seed=42", "-queries=1",
		"-clients=6", "-epochs=4", "-conns=2", "-idle=5s").CombinedOutput()
	if err != nil {
		t.Fatalf("aggregator: %v\n%s", err, aggOut)
	}
	got := string(aggOut)

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
