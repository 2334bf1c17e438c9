package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"privapprox/internal/aggregator"
)

// The one harness under the multi-process gates (smoke, crash, obsgate,
// lineage): it builds the binary, starts proxies and parses their
// banners, runs the submit, client and aggregator roles against them,
// waits on banner lines, kills, and tears everything down with the test.

func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "privapprox-node")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building privapprox-node: %v\n%s", err, out)
	}
	return bin
}

// proc is one started role process. Its stdout and stderr are read line
// by line as they arrive, so the test can wait on a banner and still
// print everything the process said when it fails.
type proc struct {
	cmd    *exec.Cmd
	mu     sync.Mutex
	lines  []string
	notify chan struct{} // a line arrived
	done   chan struct{} // output closed: the process exited or was killed
}

// start launches bin with args; the test's cleanup kills it.
func start(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), notify: make(chan struct{}, 1), done: make(chan struct{})}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
			select {
			case p.notify <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(p.kill)
	return p
}

// output returns everything the process printed so far.
func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n") + "\n"
}

// await returns the first line that starts with prefix, failing the test
// when none arrives within the timeout or the process exits first.
func (p *proc) await(t *testing.T, prefix string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		if line := p.find(prefix); line != "" {
			return line
		}
		select {
		case <-p.notify:
		case <-p.done:
			if line := p.find(prefix); line != "" {
				return line
			}
			t.Fatalf("%s exited without printing %q:\n%s", p.cmd.Args[1], prefix, p.output())
		case <-deadline:
			t.Fatalf("%s printed no %q within %v:\n%s", p.cmd.Args[1], prefix, timeout, p.output())
		}
	}
}

func (p *proc) find(prefix string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range p.lines {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// metricsURL waits for the -metrics-addr banner and returns its URL.
func (p *proc) metricsURL(t *testing.T) string {
	t.Helper()
	return strings.TrimPrefix(p.await(t, "metrics on ", 15*time.Second), "metrics on ")
}

// wait waits for the process to exit and returns its output, failing the
// test on a non-zero exit.
func (p *proc) wait(t *testing.T) string {
	t.Helper()
	<-p.done
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("%s: %v\n%s", p.cmd.Args[1], err, p.output())
	}
	return p.output()
}

// kill SIGKILLs the process and reaps it; killing an exited process is
// harmless.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.cmd.Wait()
}

// proxyProc is one running proxy process.
type proxyProc struct {
	*proc
	addr, metrics string // metrics is empty unless started with -metrics-addr
}

// startProxy launches proxy index on listen (":0" ports pick a free one)
// and parses the bound address — and, with -metrics-addr, the metrics URL
// — from its banners.
func startProxy(t *testing.T, bin, listen string, index int, args ...string) *proxyProc {
	t.Helper()
	p := &proxyProc{proc: start(t, bin, append([]string{"proxy", "-listen=" + listen, fmt.Sprintf("-index=%d", index)}, args...)...)}
	banner := p.await(t, fmt.Sprintf("proxy %d serving ", index), 10*time.Second)
	p.addr = banner[strings.LastIndex(banner, " on ")+len(" on "):]
	for _, a := range args {
		if strings.HasPrefix(a, "-metrics-addr") {
			p.metrics = p.metricsURL(t)
		}
	}
	return p
}

// deployment is two proxy processes on loopback and the roles run
// against them.
type deployment struct {
	t       *testing.T
	bin     string
	proxy   [2]*proxyProc
	proxies string // the -proxies flag every other role takes
}

// deploy starts proxies 0 and 1; proxy i takes args[i] (the first entry
// serves both when there is one).
func deploy(t *testing.T, bin string, args ...[]string) *deployment {
	t.Helper()
	d := &deployment{t: t, bin: bin}
	for i := range d.proxy {
		d.proxy[i] = startProxy(t, bin, "127.0.0.1:0", i, args[min(i, len(args)-1)]...)
	}
	d.proxies = "-proxies=" + d.proxy[0].addr + "," + d.proxy[1].addr
	return d
}

// run runs one role to completion against the proxies and returns its
// output, failing the test when it fails.
func (d *deployment) run(role string, args ...string) string {
	d.t.Helper()
	out, err := exec.Command(d.bin, append([]string{role, d.proxies}, args...)...).CombinedOutput()
	if err != nil {
		d.t.Fatalf("%s %s: %v\n%s", role, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// start launches one role against the proxies.
func (d *deployment) start(role string, args ...string) *proc {
	d.t.Helper()
	return start(d.t, d.bin, append([]string{role, d.proxies}, args...)...)
}

// clients runs the client processes at offsets 0 and 3 (see client),
// each after before(offset) when before is set, and sums their share
// ledgers: the answers sent and, per proxy, the shares dropped.
func (d *deployment) clients(queries, epochs int, before func(offset int)) (answered int64, dropped []int64) {
	d.t.Helper()
	dropped = make([]int64, len(d.proxy))
	for _, offset := range []int{0, 3} {
		if before != nil {
			before(offset)
		}
		answers, perProxy := d.client(offset, queries, epochs)
		answered += answers
		for i, n := range perProxy {
			dropped[i] += n
		}
	}
	return answered, dropped
}

// client runs one client process of three logical clients from offset
// (seed 42, two connections per proxy) over epochs, and checks it picked
// up queries announced queries. It returns the answers the process sent
// and, per proxy, the shares its batchers dropped.
func (d *deployment) client(offset, queries, epochs int) (answers int64, dropped []int64) {
	d.t.Helper()
	out := d.run("client", "-seed=42", fmt.Sprintf("-queries=%d", queries), fmt.Sprintf("-offset=%d", offset),
		"-n=3", fmt.Sprintf("-epochs=%d", epochs), "-conns=2")
	if want := fmt.Sprintf("picked up %d queries", queries); !strings.Contains(out, want) {
		d.t.Fatalf("client process (offset %d) did not pick up the query set:\n%s", offset, out)
	}
	var first, last, bytes, total int64
	var perProxy string
	line := lineWith(d.t, out, "clients ")
	if _, err := fmt.Sscanf(line, "clients %d..%d done: %d answers, %d bytes, %d shares dropped (per proxy: %s",
		&first, &last, &answers, &bytes, &total, &perProxy); err != nil {
		d.t.Fatalf("client done line %q: %v", line, err)
	}
	return answers, parseCounts(d.t, strings.TrimSuffix(perProxy, ")"), len(d.proxy))
}

// aggregatorLedger parses the aggregator's stats line: its counters,
// each proxy's fetched total, and its pending joins.
func aggregatorLedger(t *testing.T, out string, proxies int) (st aggregator.Stats, fetched []int64, pending int64) {
	t.Helper()
	line := lineWith(t, out, "decoded=")
	var perProxy string
	if _, err := fmt.Sscanf(line, "decoded=%d malformed=%d duplicates=%d unknown=%d mismatched=%d fetched=%s pending=%d swept=%d",
		&st.Decoded, &st.Malformed, &st.Duplicates, &st.UnknownQuery, &st.LengthMismatch, &perProxy, &pending, &st.Swept); err != nil {
		t.Fatalf("aggregator stats line %q: %v", line, err)
	}
	return st, parseCounts(t, perProxy, proxies), pending
}

// lineWith returns the first line of out that starts with prefix.
func lineWith(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return ""
}

// parseCounts parses a comma-separated list of n counts.
func parseCounts(t *testing.T, list string, n int) []int64 {
	t.Helper()
	fields := strings.Split(list, ",")
	if len(fields) != n {
		t.Fatalf("%q holds %d counts, want %d", list, len(fields), n)
	}
	counts := make([]int64, n)
	for i, f := range fields {
		var err error
		if counts[i], err = strconv.ParseInt(f, 10, 64); err != nil {
			t.Fatalf("count %q: %v", f, err)
		}
	}
	return counts
}

// submitLingering announces the query set with a submit role that keeps
// its metrics listener up, returning the listener's URL once the
// announcement has landed.
func (d *deployment) submitLingering(args ...string) string {
	d.t.Helper()
	p := d.start("submit", append(args, "-metrics-addr=127.0.0.1:0", "-linger=60s")...)
	url := p.metricsURL(d.t)
	p.await(d.t, "announced ", 10*time.Second)
	return url
}
