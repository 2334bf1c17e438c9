package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"privapprox/internal/pubsub"
)

// runNetbench measures the networked transport on loopback: client →
// TCP proxy share throughput swept over publish batch size × connection
// pool size. batch=1,conns=1 publishes one share per round-trip (a
// batch of one); the batched rows show the amortization the paper's Fig. 9
// scalability depends on (one frame per epoch per proxy instead of one
// per share).
func runNetbench(fast bool) error {
	total := 40000
	if fast {
		total = 8000
	}
	fmt.Printf("%8s  %8s  %14s  %10s\n", "batch", "conns", "shares/sec", "speedup")
	var baseline float64
	for _, conns := range []int{1, 4} {
		for _, batch := range []int{1, 64, 256, 1024} {
			rate, err := netbenchRun(total, batch, conns)
			if err != nil {
				return err
			}
			if baseline == 0 {
				baseline = rate
			}
			fmt.Printf("%8d  %8d  %14.0f  %9.2fx\n", batch, conns, rate, rate/baseline)
		}
	}
	fmt.Println("expected: ≥ 5x over the batch=1,conns=1 baseline from batch ≥ 256")
	return nil
}

// netbenchRun publishes total MID-keyed shares from 4 concurrent
// producers through one pooled client and returns shares/sec.
func netbenchRun(total, batch, conns int) (float64, error) {
	broker := pubsub.NewBroker()
	if err := broker.CreateTopic("answer", 4); err != nil {
		return 0, err
	}
	srv, err := pubsub.Serve(broker, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cli, err := pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: conns})
	if err != nil {
		return 0, err
	}
	defer cli.Close()

	const producers = 4
	per := total / producers
	payload := make([]byte, 32) // an 11-bucket answer message's share size
	errs := make(chan error, producers)
	var wg sync.WaitGroup
	start := time.Now()
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			key := func(i int) []byte {
				k := make([]byte, 16)
				binary.BigEndian.PutUint64(k, uint64(pr))
				binary.BigEndian.PutUint64(k[8:], uint64(i))
				return k
			}
			cols := pubsub.Columns{KeyLen: 16, ValLen: len(payload)}
			for i := 0; i < per; i++ {
				cols.Keys = append(cols.Keys, key(i)...)
				cols.Vals = append(cols.Vals, payload...)
				cols.Count++
				if cols.Count == batch || i == per-1 {
					if err := cli.PublishColumns("answer", cols, 0, 0); err != nil {
						errs <- err
						return
					}
					cols.Count, cols.Keys, cols.Vals = 0, cols.Keys[:0], cols.Vals[:0]
				}
			}
		}(pr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, err
	}

	// Every share must have landed.
	var landed int64
	for p := 0; p < 4; p++ {
		end, err := broker.EndOffset("answer", p)
		if err != nil {
			return 0, err
		}
		landed += end
	}
	if landed != int64(producers*per) {
		return 0, fmt.Errorf("netbench: %d of %d shares landed", landed, producers*per)
	}
	return float64(landed) / elapsed.Seconds(), nil
}
