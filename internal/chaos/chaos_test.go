package chaos_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"privapprox/internal/chaos"
	"privapprox/internal/proxy"
	"privapprox/internal/pubsub"
)

func gateCols(n int) pubsub.Columns {
	cols := pubsub.Columns{Count: n, KeyLen: 7, ValLen: 7}
	for i := 0; i < n; i++ {
		cols.Keys = append(cols.Keys, fmt.Sprintf("key-%03d", i)...)
		cols.Vals = append(cols.Vals, fmt.Sprintf("val-%03d", i)...)
	}
	return cols
}

func newWrapped(t *testing.T, plan chaos.Plan) (*pubsub.Broker, *chaos.Transport) {
	t.Helper()
	b := pubsub.NewBroker()
	t.Cleanup(b.Close)
	if err := b.CreateTopic("answer", 2); err != nil {
		t.Fatal(err)
	}
	ct, err := chaos.Wrap(b, plan)
	if err != nil {
		t.Fatal(err)
	}
	return b, ct
}

func TestPlanValidate(t *testing.T) {
	for _, bad := range []chaos.Plan{
		{Reset: -0.1},
		{AckDrop: 1.5},
		{Reset: 0.5, AckDrop: 0.3, Duplicate: 0.3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("plan %+v validated", bad)
		}
	}
	if err := (chaos.Plan{Reset: 0.25, AckDrop: 0.25, Duplicate: 0.25, Delay: 0.25}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestFaultReset: the call never reaches the broker, and the error is
// retryable — a producer with attempts to spare delivers exactly once.
func TestFaultReset(t *testing.T) {
	b, ct := newWrapped(t, chaos.Plan{Reset: 1})
	prod := pubsub.NewProducer(ct, pubsub.RetryPolicy{Attempts: 1})
	err := prod.PublishColumns("answer", gateCols(4))
	if !errors.Is(err, chaos.ErrInjectedReset) {
		t.Fatalf("err = %v, want injected reset", err)
	}
	if st := b.Stats(); st.MessagesIn != 0 {
		t.Fatalf("reset fault leaked %d messages to the broker", st.MessagesIn)
	}
	if st := ct.Stats(); st.Resets != 1 || st.Injected() != 1 {
		t.Fatalf("stats = %+v, want one reset", st)
	}
}

// TestFaultAckDrop: the batch lands, the caller sees ErrAmbiguous, and
// every deduplicated retry lands as broker duplicates — never as extra
// records.
func TestFaultAckDrop(t *testing.T) {
	b, ct := newWrapped(t, chaos.Plan{AckDrop: 1})
	prod := pubsub.NewProducer(ct, pubsub.RetryPolicy{Attempts: 3, Backoff: time.Microsecond})
	err := prod.PublishColumns("answer", gateCols(4))
	if !errors.Is(err, pubsub.ErrAmbiguous) {
		t.Fatalf("err = %v, want ErrAmbiguous", err)
	}
	st := b.Stats()
	if st.MessagesIn != 4 {
		t.Fatalf("MessagesIn = %d, want 4 (batch applied exactly once)", st.MessagesIn)
	}
	if st.Duplicates != 8 {
		t.Fatalf("Duplicates = %d, want 8 (two deduplicated retries)", st.Duplicates)
	}
}

// TestFaultDuplicate: the injected redelivery is absorbed by the
// broker's session dedup and the caller sees clean success.
func TestFaultDuplicate(t *testing.T) {
	b, ct := newWrapped(t, chaos.Plan{Duplicate: 1})
	prod := pubsub.NewProducer(ct, pubsub.RetryPolicy{})
	if err := prod.PublishColumns("answer", gateCols(4)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	st := b.Stats()
	if st.MessagesIn != 4 || st.Duplicates != 4 {
		t.Fatalf("MessagesIn = %d, Duplicates = %d; want 4 and 4", st.MessagesIn, st.Duplicates)
	}
}

// TestScheduleDeterminism: the same plan over the same call sequence
// draws the same faults.
func TestScheduleDeterminism(t *testing.T) {
	plan := chaos.Plan{Seed: 42, Reset: 0.2, AckDrop: 0.2, Duplicate: 0.2, Delay: 0.2, DelayFor: time.Microsecond}
	run := func() chaos.Stats {
		_, ct := newWrapped(t, plan)
		prod := pubsub.NewProducer(ct, pubsub.RetryPolicy{Attempts: 4, Backoff: time.Microsecond})
		for i := 0; i < 50; i++ {
			prod.PublishColumns("answer", gateCols(2))
		}
		return ct.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Injected() == 0 {
		t.Fatalf("schedule injected nothing: %+v", a)
	}
}

// TestPassthroughUnfaulted: unsessioned publishes are never perturbed,
// whatever the plan says.
func TestPassthroughUnfaulted(t *testing.T) {
	b, ct := newWrapped(t, chaos.Plan{Reset: 1})
	one := pubsub.Columns{Count: 1, KeyLen: 1, ValLen: 1, Keys: []byte("k"), Vals: []byte("v")}
	if err := ct.PublishColumns("answer", one, 0, 0); err != nil {
		t.Fatalf("plain publish faulted: %v", err)
	}
	if err := ct.PublishColumns("answer", gateCols(2), 0, 0); err != nil {
		t.Fatalf("plain batch faulted: %v", err)
	}
	if st := ct.Stats(); st.Calls != 0 {
		t.Fatalf("plain publishes drew faults: %+v", st)
	}
	if st := b.Stats(); st.MessagesIn != 3 {
		t.Fatalf("MessagesIn = %d, want 3", st.MessagesIn)
	}
}

// TestStampThroughWrappedTransport: a proxy attached over a
// chaos-wrapped transport still delivers lineage stamps to its lineage
// consumer — the wrapper must not hide the sidecar topic.
func TestStampThroughWrappedTransport(t *testing.T) {
	b, ct := newWrapped(t, chaos.Plan{Reset: 1})
	if err := b.CreateTopic(proxy.TopicLineage, 1); err != nil {
		t.Fatal(err)
	}
	px, err := proxy.Attach("wrapped", 0, ct)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.SubmitStamp([]byte("stamp")); err != nil {
		t.Fatal(err)
	}
	lc, err := px.LineageConsumer("agg")
	if err != nil || lc == nil {
		t.Fatalf("lineage consumer over wrapped transport = %v, %v", lc, err)
	}
	recs, err := lc.Poll(10)
	if err != nil || len(recs) != 1 || string(recs[0].Value) != "stamp" {
		t.Fatalf("polled %+v, %v; want the one stamp", recs, err)
	}
}
