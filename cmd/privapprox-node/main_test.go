package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/core"
	"privapprox/internal/minisql"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
)

// TestMultiProcessSmoke spawns the real networked deployment on
// loopback — two proxy processes, a submit step announcing the query
// set over the control topics, two client processes that pick the
// queries up dynamically, one aggregator process that builds its demux
// state from the same announcements — and asserts the aggregator's
// results are byte-identical to an in-process core.System multi-query
// run under the same seed conventions. This is the Fig. 3 deployment
// shape driven end to end through the query control plane.
func TestMultiProcessSmoke(t *testing.T) {
	runSmokeTest(t, 1, false)
}

// TestMultiProcessSmokeBounded is the same deployment behind
// -partition-cap: each proxy holds one partition bounded to exactly the
// shares of the first client process, and the aggregator runs while the
// clients publish. The second client process can only publish into the
// room the aggregator's commits have freed — without them the bound
// fills for good and its first flush is refused.
func TestMultiProcessSmokeBounded(t *testing.T) {
	runSmokeTest(t, 1, true)
}

// TestMultiProcessMultiQuerySmoke is the same deployment with two
// concurrent queries sharing the fleet — the networked half of the
// multi-query determinism gate (the in-process half, multi vs solo, is
// TestMultiQueryMatchesSolo in internal/core).
func TestMultiProcessMultiQuerySmoke(t *testing.T) {
	runSmokeTest(t, 2, false)
}

func runSmokeTest(t *testing.T, numQueries int, bounded bool) {
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	bin := buildNode(t)

	const (
		seedFlag = "-seed=42"
		clients  = 6
		epochs   = 4
		seed     = 42
	)
	queriesFlag := fmt.Sprintf("-queries=%d", numQueries)
	partFlags := []string{"-partitions=4"}
	perProcess := int64(clients / 2 * epochs * numQueries) // shares one client process sends each proxy
	if bounded {
		partFlags = []string{"-partitions=1", fmt.Sprintf("-partition-cap=%d", perProcess)}
	}

	// Proxies first; their topics must exist before anyone attaches.
	addr0, stop0 := startProxy(t, bin, 0, partFlags...)
	defer stop0()
	addr1, stop1 := startProxy(t, bin, 1, partFlags...)
	defer stop1()
	proxies := "-proxies=" + addr0 + "," + addr1

	// Announce the query set (s=1: everyone participates, so the
	// decoded count is exact).
	out, err := exec.Command(bin, "submit", proxies, queriesFlag, "-s=1").CombinedOutput()
	if err != nil {
		t.Fatalf("submit process: %v\n%s", err, out)
	}

	aggregate := exec.Command(bin, "aggregator", proxies, seedFlag, queriesFlag,
		fmt.Sprintf("-clients=%d", clients), fmt.Sprintf("-epochs=%d", epochs),
		"-conns=2", "-idle=5s")
	var aggOut bytes.Buffer
	aggregate.Stdout, aggregate.Stderr = &aggOut, &aggOut
	if bounded {
		// The aggregator drains while the clients publish.
		if err := aggregate.Start(); err != nil {
			t.Fatal(err)
		}
		defer aggregate.Process.Kill()
	}

	// Two client processes, three logical clients each, batched
	// flushes; they learn the query set from the control topic.
	for _, offset := range []int{0, 3} {
		if bounded && offset > 0 {
			// Both bounds are full. Wait for the aggregator to commit the
			// first process's shares; only that makes room for the second's.
			for i, addr := range []string{addr0, addr1} {
				awaitCommitted(t, addr, proxy.TopicFor(i), perProcess)
			}
		}
		out, err := exec.Command(bin, "client", proxies, seedFlag, queriesFlag,
			fmt.Sprintf("-offset=%d", offset), "-n=3",
			fmt.Sprintf("-epochs=%d", epochs), "-conns=2").CombinedOutput()
		if err != nil {
			t.Fatalf("client process (offset %d): %v\n%s", offset, err, out)
		}
		if !strings.Contains(string(out), fmt.Sprintf("picked up %d queries", numQueries)) {
			t.Fatalf("client process (offset %d) did not pick up the query set:\n%s", offset, out)
		}
	}

	if bounded {
		err = aggregate.Wait()
	} else {
		err = aggregate.Run()
	}
	got := aggOut.String()
	if err != nil {
		t.Fatalf("aggregator process: %v\n%s", err, got)
	}

	// The count line is exact at s=1: no sampling, no loss, no dupes,
	// and every decoded message demuxed to a known query.
	wantCounts := fmt.Sprintf("decoded=%d malformed=0 duplicates=0 unknown=0 mismatched=0",
		clients*epochs*numQueries)
	if !strings.Contains(got, wantCounts) {
		t.Errorf("aggregator output missing %q:\n%s", wantCounts, got)
	}

	// Reference: the same population in-process in MultiQuery mode,
	// same seed conventions (core.Config: client i seed+i+2, aggregator
	// seed+1), same queries, params, and origin — the networked
	// pipeline must reproduce it byte for byte through the shared
	// result formatter.
	want := inProcessReference(t, clients, epochs, seed, numQueries)
	if want == "" {
		t.Fatal("in-process reference produced no windows")
	}
	if !strings.Contains(got, want) {
		t.Errorf("networked results differ from in-process pipeline.\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// awaitCommitted blocks until the aggregator group has committed offset
// want on partition 0 of a proxy's share topic.
func awaitCommitted(t *testing.T, addr, topic string, want int64) {
	t.Helper()
	cli, err := pubsub.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := cli.CommittedOffset("aggregator", topic, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregator committed %d of %d shares on %s: a bounded partition would stay full", got, want, topic)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "privapprox-node")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building privapprox-node: %v\n%s", err, out)
	}
	return bin
}

// startProxy launches one proxy process on a kernel-chosen port and
// parses the bound address from its banner line.
func startProxy(t *testing.T, bin string, index int, extra ...string) (addr string, stop func()) {
	t.Helper()
	return startProxyAt(t, bin, "127.0.0.1:0", index, extra...)
}

// startProxyAt is startProxy with an explicit listen address — the
// crash tests restart a killed proxy on the port it held before.
func startProxyAt(t *testing.T, bin, listen string, index int, extra ...string) (addr string, stop func()) {
	t.Helper()
	args := append([]string{"proxy", "-listen=" + listen, fmt.Sprintf("-index=%d", index)}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 1)
	go func() {
		r := bufio.NewReader(stdout)
		line, err := r.ReadString('\n')
		if err == nil {
			lines <- line
		}
		io.Copy(io.Discard, r) // keep the pipe drained
	}()
	select {
	case line := <-lines:
		i := strings.LastIndex(line, " on ")
		if i < 0 {
			t.Fatalf("unexpected proxy banner: %q", line)
		}
		addr = strings.TrimSpace(line[i+4:])
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("proxy %d never announced its address", index)
	}
	return addr, func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// inProcessReference runs the equivalent single-process multi-query
// deployment and renders every fired window through the node's
// formatter.
func inProcessReference(t *testing.T, clients, epochs int, seed int64, numQueries int) string {
	t.Helper()
	params := sharedParams(1, 0.9, 0.6)
	sys, err := core.New(core.Config{
		Clients:    clients,
		Proxies:    2,
		Partitions: 4,
		Params:     &params,
		Origin:     defaultOrigin,
		Seed:       seed,
		MultiQuery: true,
		Populate: func(i int, db *minisql.DB) error {
			return populateClient(i, db)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	queries, err := nodeQueries(numQueries)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := sys.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	var all []aggregator.Result
	for e := 0; e < epochs; e++ {
		res, _, err := sys.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res...)
	}
	res, err := sys.Flush()
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, res...)
	return formatResults(all)
}
