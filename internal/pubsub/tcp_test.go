package pubsub

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Broker, *Server, *Client) {
	t.Helper()
	b := NewBroker()
	srv, err := Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialOptions(srv.Addr(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return b, srv, cli
}

func TestTCPCreatePublishFetch(t *testing.T) {
	_, _, cli := startServer(t)
	if err := cli.CreateTopic("answer", 2); err != nil {
		t.Fatal(err)
	}
	if n, err := cli.Partitions("answer"); err != nil || n != 2 {
		t.Fatalf("Partitions = %d, %v", n, err)
	}
	part, off, err := publishAt(cli, "answer", []byte("mid-1"), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Errorf("first offset = %d", off)
	}
	recs, err := fetch(cli, "answer", part, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Value, []byte("payload")) || !bytes.Equal(recs[0].Key, []byte("mid-1")) {
		t.Errorf("Fetch = %+v", recs)
	}
	if recs[0].Timestamp.IsZero() {
		t.Error("timestamp not carried over the wire")
	}
	end, err := cli.EndOffset("answer", part)
	if err != nil || end != 1 {
		t.Errorf("EndOffset = %d, %v", end, err)
	}
}

func TestTCPErrorsPropagate(t *testing.T) {
	_, _, cli := startServer(t)
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.CreateTopic("t", 1); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Errorf("duplicate create over TCP: %v", err)
	}
	if err := publish(cli, "missing", nil, []byte("v")); err == nil {
		t.Error("expected missing-topic error over TCP")
	}
	if _, err := fetch(cli, "t", 5, 0, 1, 0); err == nil {
		t.Error("expected bad-partition error over TCP")
	}
}

func TestTCPNilKeyPublish(t *testing.T) {
	_, _, cli := startServer(t)
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := publish(cli, "t", nil, []byte("nokey")); err != nil {
		t.Fatal(err)
	}
	recs, err := fetch(cli, "t", 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Key) != 0 {
		t.Errorf("nil-key record = %+v", recs)
	}
}

func TestTCPWaitFetch(t *testing.T) {
	_, srv, cli := startServer(t)
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	cli2, err := DialOptions(srv.Addr(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	done := make(chan []Record, 1)
	go func() {
		recs, err := fetch(cli2, "t", 0, 0, 10, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- recs
	}()
	time.Sleep(20 * time.Millisecond)
	if err := publish(cli, "t", nil, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 {
			t.Errorf("blocking fetch = %v", recs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocking fetch never returned")
	}
}

func TestTCPCommitOffsets(t *testing.T) {
	_, _, cli := startServer(t)
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := cli.CommitOffset("g", "t", 0, 5); err != nil {
		t.Fatal(err)
	}
	off, err := cli.CommittedOffset("g", "t", 0)
	if err != nil || off != 5 {
		t.Errorf("CommittedOffset = %d, %v", off, err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	b, srv, _ := startServer(t)
	if err := b.CreateTopic("t", 4); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	const each = 100
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := DialOptions(srv.Addr(), Options{Conns: 1})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for j := 0; j < each; j++ {
				key := []byte(fmt.Sprintf("c%d-%d", i, j))
				if err := publish(cli, "t", key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	total := int64(0)
	for p := 0; p < 4; p++ {
		end, err := b.EndOffset("t", p)
		if err != nil {
			t.Fatal(err)
		}
		total += end
	}
	if total != clients*each {
		t.Errorf("total = %d, want %d", total, clients*each)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	_, srv, cli := startServer(t)
	if err := cli.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := publish(cli, "t", nil, []byte("x")); err == nil {
		t.Error("expected error after server close")
	}
}
