//go:build ignore

// Nodeflush times one privapprox-node client process built from two
// trees, the lane-flush path of the client role over real TCP. For each
// tree it builds privapprox-node; then, for each -batch size and each
// pair, it runs both trees one after the other, alternating which goes
// first. A run starts two local proxies of its own tree, announces one
// query at s = 1, and times the client process (-workers, -n clients,
// -epochs epochs, -batch) from its start to its exit. After the client
// exits it reads both proxies' answer topics back and counts the
// positions where the two proxies hold the same MID at the same offset
// of the same partition: the siblings the aggregator pairs where they
// sit. It prints every run, then per batch size each tree's median wall
// time, the first tree's interquartile range and how many pairs the
// second tree lost.
//
// Run it from the repository root, with a second tree checked out
// elsewhere (git archive or git clone, not a worktree):
//
//	go run tools/nodeflush.go -a ../parent -b . [-pairs 6] [-batches 200,1000,0]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
)

func main() {
	treeA := flag.String("a", "", "the first tree, usually the parent")
	treeB := flag.String("b", ".", "the second tree, usually the change")
	pairs := flag.Int("pairs", 6, "alternating pairs per batch size")
	batches := flag.String("batches", "200,1000,0", "comma-separated -batch sizes")
	clients := flag.Int("clients", 6000, "logical clients of the client process")
	epochs := flag.Int("epochs", 12, "epochs the client process answers")
	workers := flag.Int("workers", 2, "the client process's -workers")
	flag.Parse()
	if *treeA == "" {
		fmt.Fprintln(os.Stderr, "nodeflush: -a is required")
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "nodeflush")
	check(err)
	defer os.RemoveAll(tmp)
	trees := []string{*treeA, *treeB}
	bins := make([]string, len(trees))
	for i, tree := range trees {
		bins[i] = filepath.Join(tmp, fmt.Sprintf("node-%c", 'a'+i))
		build := exec.Command("go", "build", "-o", bins[i], "./cmd/privapprox-node")
		build.Dir, build.Stdout, build.Stderr = tree, os.Stderr, os.Stderr
		check(build.Run())
	}
	for _, field := range strings.Split(*batches, ",") {
		batch, err := strconv.Atoi(strings.TrimSpace(field))
		check(err)
		var wall [2][]time.Duration
		lost := 0
		for p := range *pairs {
			order := []int{0, 1}
			if p%2 == 1 {
				order = []int{1, 0}
			}
			for _, t := range order {
				d, aligned, positions := run(bins[t], batch, *clients, *epochs, *workers)
				wall[t] = append(wall[t], d)
				fmt.Printf("batch %d pair %d tree %c: %d ms, %d of %d positions aligned\n", batch, p, 'a'+t, d.Milliseconds(), aligned, positions)
			}
			if wall[1][p] > wall[0][p] {
				lost++
			}
		}
		ma, q1, q3 := quartiles(wall[0])
		mb, _, _ := quartiles(wall[1])
		fmt.Printf("batch %d: a %s ms, b %s ms; medians %d → %d ms, a's IQR %d ms; b slower in %d of %d pairs\n",
			batch, millis(wall[0]), millis(wall[1]), ma.Milliseconds(), mb.Milliseconds(), (q3 - q1).Milliseconds(), lost, *pairs)
	}
}

// run starts two proxies of bin, announces one query, times one client
// process and counts the aligned positions of what it published.
func run(bin string, batch, clients, epochs, workers int) (wall time.Duration, aligned, positions int) {
	var addrs []string
	for i := range 2 {
		px := exec.Command(bin, "proxy", "-listen", "127.0.0.1:0", "-index", strconv.Itoa(i))
		out, err := px.StdoutPipe()
		check(err)
		check(px.Start())
		proxies = append(proxies, px)
		// "proxy N serving topic "…" on ADDR"
		line, err := bufio.NewReader(out).ReadString('\n')
		check(err)
		addrs = append(addrs, strings.TrimSpace(line[strings.LastIndex(line, " ")+1:]))
	}
	list := "-proxies=" + strings.Join(addrs, ",")
	check(exec.Command(bin, "submit", list, "-queries=1", "-s=1").Run())
	client := exec.Command(bin, "client", list, "-seed=42", "-n="+strconv.Itoa(clients),
		"-epochs="+strconv.Itoa(epochs), "-batch="+strconv.Itoa(batch), "-workers="+strconv.Itoa(workers))
	start := time.Now()
	if out, err := client.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "%s", out)
		check(err)
	}
	wall = time.Since(start)
	mids := make([][][]string, len(addrs))
	for i, addr := range addrs {
		mids[i] = read(addr, proxy.TopicFor(i))
	}
	for part := range mids[0] {
		for k := range min(len(mids[0][part]), len(mids[1][part])) {
			positions++
			if mids[0][part][k] == mids[1][part][k] {
				aligned++
			}
		}
	}
	stopProxies()
	return wall, aligned, positions
}

// proxies are the proxy processes of the current run.
var proxies []*exec.Cmd

func stopProxies() {
	for _, px := range proxies {
		px.Process.Kill()
		px.Wait()
	}
	proxies = nil
}

// read returns the keys of every record of topic at addr, partition by
// partition in offset order.
func read(addr, topic string) [][]string {
	cli, err := pubsub.DialOptions(addr, pubsub.Options{Conns: 1})
	check(err)
	defer cli.Close()
	parts, err := cli.Partitions(topic)
	check(err)
	keys := make([][]string, parts)
	var runs []pubsub.Run
	var mem []byte
	for p := range keys {
		for {
			runs, mem, err = cli.FetchWait(topic, p, int64(len(keys[p])), 4096, 0, runs[:0], mem[:0])
			check(err)
			if len(runs) == 0 {
				break
			}
			for _, r := range runs {
				for i := range r.Count {
					at := i * (r.KeyLen + r.ValLen)
					keys[p] = append(keys[p], string(r.Body[at:at+r.KeyLen]))
				}
			}
		}
	}
	return keys
}

// quartiles returns the median and the first and third quartiles of ds.
func quartiles(ds []time.Duration) (median, q1, q3 time.Duration) {
	s := slices.Clone(ds)
	slices.Sort(s)
	at := func(f float64) time.Duration {
		x := f * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + time.Duration((x-float64(lo))*float64(s[lo+1]-s[lo]))
	}
	return at(0.5), at(0.25), at(0.75)
}

func millis(ds []time.Duration) string {
	var s []string
	for _, d := range ds {
		s = append(s, strconv.FormatInt(d.Milliseconds(), 10))
	}
	return strings.Join(s, "/")
}

func check(err error) {
	if err != nil {
		stopProxies()
		fmt.Fprintln(os.Stderr, "nodeflush:", err)
		os.Exit(1)
	}
}
