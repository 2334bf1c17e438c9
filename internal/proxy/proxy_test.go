package proxy

import (
	"bytes"
	"crypto/rand"
	"runtime"
	"testing"
	"time"

	"privapprox/internal/client"
	"privapprox/internal/pubsub"
	"privapprox/internal/xorcrypt"
)

func randomShare(t *testing.T, payload []byte) xorcrypt.Share {
	t.Helper()
	var mid xorcrypt.MID
	if _, err := rand.Read(mid[:]); err != nil {
		t.Fatal(err)
	}
	return xorcrypt.Share{MID: mid, Payload: payload}
}

func TestNewProxyTopics(t *testing.T) {
	p0, err := New("p0", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	if p0.Topic() != topicAnswer {
		t.Errorf("proxy 0 topic = %q", p0.Topic())
	}
	p1, err := New("p1", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	if p1.Topic() != topicKey {
		t.Errorf("proxy 1 topic = %q", p1.Topic())
	}
	if p0.Name() != "p0" {
		t.Errorf("Name = %q", p0.Name())
	}
	if _, err := New("bad", 0, 0); err == nil {
		t.Error("expected error for zero partitions")
	}
}

func TestSubmitConsumeRoundTrip(t *testing.T) {
	p, err := New("p", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	share := randomShare(t, []byte("payload-bytes"))
	if err := p.SubmitBatch([]xorcrypt.Share{share}); err != nil {
		t.Fatal(err)
	}
	c, err := p.Consumer("agg")
	if err != nil {
		t.Fatal(err)
	}
	shares := pollShares(t, c, 10, time.Second)
	if len(shares) != 1 {
		t.Fatalf("polled %d records", len(shares))
	}
	if got := shares[0]; got.MID != share.MID || !bytes.Equal(got.Payload, share.Payload) {
		t.Errorf("decoded = %+v", got)
	}
}

func TestDecodeRecordRejectsBadKey(t *testing.T) {
	if _, err := DecodeRecord(pubsub.Record{Key: []byte("short")}); err == nil {
		t.Error("expected error for malformed key")
	}
}

func TestAppendSharesViewsRunsWithAMID(t *testing.T) {
	var body []byte
	var want []xorcrypt.Share
	for i := range 3 {
		sh := randomShare(t, []byte{byte(i), 7})
		want = append(want, sh)
		body = append(append(body, sh.MID[:]...), sh.Payload...)
	}
	run := pubsub.Run{Count: 3, KeyLen: xorcrypt.MIDSize, ValLen: 2, Body: body}
	got, skipped := AppendShares(nil, run)
	if skipped != 0 || len(got) != 3 {
		t.Fatalf("AppendShares = %d shares, %d skipped; want 3, 0", len(got), skipped)
	}
	for i := range got {
		if got[i].MID != want[i].MID || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("share %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Payload[0] = 9; body[(xorcrypt.MIDSize+2)+xorcrypt.MIDSize] != 9 {
		t.Error("a share's payload is not a view of the run body")
	}
	bad := pubsub.Run{Count: 4, KeyLen: 3, ValLen: 2, Body: make([]byte, 20)}
	if got, skipped := AppendShares(got, bad); skipped != 4 || len(got) != 3 {
		t.Errorf("a run keyed by 3 bytes: %d shares, %d skipped; want 3, 4", len(got), skipped)
	}
}

func TestFleetValidationAndRoles(t *testing.T) {
	if _, err := NewFleet(1, 1); err == nil {
		t.Error("expected error for one-proxy fleet")
	}
	f, err := NewFleet(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 3 {
		t.Fatalf("Size = %d", f.Size())
	}
	if f.Proxy(0).Topic() != topicAnswer || f.Proxy(1).Topic() != topicKey || f.Proxy(2).Topic() != topicKey {
		t.Error("fleet roles wrong")
	}
}

func TestFleetTotalStats(t *testing.T) {
	f, err := NewFleet(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh := randomShare(t, []byte("abcd"))
	f.Proxy(0).SubmitBatch([]xorcrypt.Share{sh})
	f.Proxy(1).SubmitBatch([]xorcrypt.Share{sh})
	st := f.TotalStats()
	if st.MessagesIn != 2 {
		t.Errorf("MessagesIn = %d", st.MessagesIn)
	}
	wantBytes := int64(2 * (len(sh.Payload) + xorcrypt.MIDSize))
	if st.BytesIn != wantBytes {
		t.Errorf("BytesIn = %d, want %d", st.BytesIn, wantBytes)
	}
}

// TestProxySubmitZeroAllocs pins the in-process forward on the product
// path: a client.Batcher copies shares into its columnar lanes, and one
// Flush hands them to Proxy.SubmitColumns, whose one copy per share
// lands in a partition slab. The run stays inside the slabs the warm-up
// opened (a new slab is the only allocation a publish may make). The
// gate is the least a flush allocates over many, as TestPublishColumnsAllocs
// measures it: under the race detector sync.Pool drops pooled scratch at
// random, so a single flush may miss the pool.
func TestProxySubmitZeroAllocs(t *testing.T) {
	p, err := New("p", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	b := client.NewBatcher(p, 0)
	share := randomShare(t, make([]byte, 22))
	flush := func() {
		for i := 0; i < 64; i++ {
			share.MID[0]++ // walk the partitions
			if err := b.Submit(share); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		flush()
	}
	least := uint64(1 << 62)
	for run := 0; run < 32; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		flush()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("Batcher → Proxy.SubmitColumns allocates %d times per flush of 64 shares, want 0", least)
	}
}
