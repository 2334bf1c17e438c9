package proxy

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"privapprox/internal/pubsub"
	"privapprox/internal/xorcrypt"
)

func TestSubmitBatchRoundTrip(t *testing.T) {
	p, err := New("p", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Payload sizes change every four shares, so the batch is forwarded
	// as several fixed-stride runs.
	shares := make([]xorcrypt.Share, 32)
	want := make(map[xorcrypt.MID][]byte, len(shares))
	for i := range shares {
		shares[i] = randomShare(t, bytes.Repeat([]byte{byte(i)}, 1+i/4%3))
		want[shares[i].MID] = shares[i].Payload
	}
	if err := p.SubmitBatch(shares); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBatch(nil); err != nil {
		t.Fatal(err)
	}
	c, err := p.Consumer("agg")
	if err != nil {
		t.Fatal(err)
	}
	polled := pollShares(t, c, 100, time.Second)
	if len(polled) != len(shares) {
		t.Fatalf("polled %d records, want %d", len(polled), len(shares))
	}
	for _, got := range polled {
		if !bytes.Equal(got.Payload, want[got.MID]) {
			t.Fatalf("share %x arrived as %x, want %x", got.MID, got.Payload, want[got.MID])
		}
	}
	if st := p.Stats(); st.MessagesIn != int64(len(shares)) {
		t.Errorf("MessagesIn = %d", st.MessagesIn)
	}
}

// An attached proxy over a live TCP server behaves like a local one:
// same topics, same submit/consume surface.
func TestAttachOverTCP(t *testing.T) {
	broker := pubsub.NewBroker()
	if err := broker.CreateTopic(topicAnswer, 2); err != nil {
		t.Fatal(err)
	}
	srv, err := pubsub.Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := pubsub.DialOptions(srv.Addr(), pubsub.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	p, err := Attach("remote-0", 0, cli)
	if err != nil {
		t.Fatal(err)
	}
	if p.Topic() != topicAnswer {
		t.Errorf("topic = %q", p.Topic())
	}
	share := randomShare(t, []byte("over-the-wire"))
	if err := p.SubmitBatch([]xorcrypt.Share{share}); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBatch([]xorcrypt.Share{randomShare(t, []byte("b0")), randomShare(t, []byte("b1"))}); err != nil {
		t.Fatal(err)
	}
	c, err := p.Consumer("agg")
	if err != nil {
		t.Fatal(err)
	}
	polled := pollShares(t, c, 10, time.Second)
	if len(polled) != 3 {
		t.Fatalf("polled %d records, want 3", len(polled))
	}
	found := false
	for _, got := range polled {
		if got.MID == share.MID && bytes.Equal(got.Payload, share.Payload) {
			found = true
		}
	}
	if !found {
		t.Error("submitted share not found in consumed records")
	}
	// Attaching to a topic the remote never created must fail.
	if _, err := Attach("remote-1", 1, cli); err == nil {
		t.Error("Attach to a missing topic succeeded")
	}
	// Close on an attached proxy must not shut the remote broker down.
	p.Close()
	if err := p.SubmitBatch([]xorcrypt.Share{randomShare(t, []byte("after-close"))}); err != nil {
		t.Errorf("remote broker closed by attached proxy Close: %v", err)
	}
}

// Regression: a mid-loop constructor failure must close the proxies
// already built instead of leaking their brokers.
func TestFleetBuildFailureClosesBuiltProxies(t *testing.T) {
	var built []*Proxy
	_, err := newFleet(3, func(i int) (*Proxy, error) {
		if i == 2 {
			return nil, fmt.Errorf("injected failure at %d", i)
		}
		p, err := New(fmt.Sprintf("p%d", i), i, 1)
		if err == nil {
			built = append(built, p)
		}
		return p, err
	})
	if err == nil {
		t.Fatal("expected fleet build error")
	}
	if len(built) != 2 {
		t.Fatalf("built %d proxies before the failure", len(built))
	}
	for i, p := range built {
		if err := p.SubmitBatch([]xorcrypt.Share{randomShare(t, []byte("x"))}); err == nil {
			t.Errorf("proxy %d still accepts submissions: its broker leaked", i)
		}
	}
}

func TestAttachFleet(t *testing.T) {
	// Two in-process brokers stand in for two remote proxy processes.
	var transports []pubsub.Transport
	for i := 0; i < 2; i++ {
		b := pubsub.NewBroker()
		if err := b.CreateTopic(TopicFor(i), 2); err != nil {
			t.Fatal(err)
		}
		transports = append(transports, b)
	}
	f, err := AttachFleet(transports)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 2 || f.Proxy(0).Topic() != topicAnswer || f.Proxy(1).Topic() != topicKey {
		t.Fatalf("fleet roles wrong: %q %q", f.Proxy(0).Topic(), f.Proxy(1).Topic())
	}
	sh := randomShare(t, []byte("fan"))
	for i := 0; i < 2; i++ {
		if err := f.Proxy(i).SubmitBatch([]xorcrypt.Share{sh}); err != nil {
			t.Fatal(err)
		}
	}
	consumers, err := f.Consumers("agg")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range consumers {
		recs, err := c.Poll(10)
		if err != nil || len(recs) != 1 {
			t.Fatalf("proxy %d: polled %d shares, err %v", i, len(recs), err)
		}
		if got, err := DecodeRecord(recs[0]); err != nil || got.MID != sh.MID {
			t.Fatalf("proxy %d: decoded %v, err %v; want MID %v", i, got.MID, err, sh.MID)
		}
	}
	if _, err := AttachFleet(transports[:1]); err == nil {
		t.Error("one-transport fleet accepted")
	}
}

// TestLazyAttachDeliversStampsOnceServerIsUp: a proxy handle attached
// lazily to an address nobody listens on yet reports stamp failures
// while the server is down and delivers stamps as soon as it is up —
// nothing decided at attach time can switch stamping off for good.
func TestLazyAttachDeliversStampsOnceServerIsUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cli, err := pubsub.DialOptions(addr, pubsub.Options{LazyDial: true, RedialBackoff: time.Millisecond, RedialBackoffMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	p, err := attachLazy("late-0", 0, cli)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitStamp([]byte("lost")); err == nil {
		t.Fatal("stamp to a proxy that is down reported success")
	}

	broker := pubsub.NewBroker()
	defer broker.Close()
	if err := broker.CreateTopic(TopicLineage, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := pubsub.Serve(broker, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var lastErr error
	for i := 0; i < 50; i++ {
		if lastErr = p.SubmitStamp([]byte("stamp")); lastErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("stamps never recovered once the proxy came up: %v", lastErr)
	}
	lc, err := p.LineageConsumer("agg")
	if err != nil || lc == nil {
		t.Fatalf("lineage consumer = %v, %v", lc, err)
	}
	recs, err := lc.Poll(10)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "stamp" {
		t.Fatalf("polled %+v, %v; want the one stamp", recs, err)
	}
}

// TestStampWithoutLineageTopic: against a broker that never created the
// lineage topic a stamp is dropped silently and there is no consumer.
func TestStampWithoutLineageTopic(t *testing.T) {
	broker := pubsub.NewBroker()
	defer broker.Close()
	if err := broker.CreateTopic(topicAnswer, 1); err != nil {
		t.Fatal(err)
	}
	p, err := Attach("bare-0", 0, broker)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitStamp([]byte("stamp")); err != nil {
		t.Fatalf("stamp without a lineage topic: %v", err)
	}
	if lc, err := p.LineageConsumer("agg"); lc != nil || err != nil {
		t.Fatalf("lineage consumer without the topic = %v, %v; want nil, nil", lc, err)
	}
}

// pollShares polls up to max records, waiting up to wait for the first,
// and returns the shares their runs carry.
func pollShares(t *testing.T, c *pubsub.Consumer, max int, wait time.Duration) []xorcrypt.Share {
	t.Helper()
	runs, err := c.PollRuns(max, wait)
	if err != nil {
		t.Fatal(err)
	}
	var shares []xorcrypt.Share
	for _, r := range runs {
		var skipped int
		if shares, skipped = AppendShares(shares, r); skipped > 0 {
			t.Fatalf("%d records without a share", skipped)
		}
	}
	return shares
}
