// Package proxy implements PrivApprox's anonymizing proxies (paper
// §3.2.3, §5): thin, synchronization-free forwarders built on the
// pub/sub substrate. Each proxy owns one broker topic; clients submit
// one XOR share per proxy, and the aggregator consumes every proxy's
// stream. A proxy cannot tell an encrypted answer from a key share —
// both are fixed-length pseudo-random payloads keyed by the message
// identifier.
//
// A Proxy runs over any pubsub.Transport: New builds an in-process
// broker (the single-process pipeline), while Attach binds the same
// Proxy type to a broker served elsewhere — typically a pubsub.Client
// dialed at a remote proxy process — so clients and the aggregator use
// identical code in both deployment shapes (paper Fig. 3).
package proxy

import (
	"errors"
	"fmt"
	"path/filepath"

	"privapprox/internal/pubsub"
	"privapprox/internal/wal"
	"privapprox/internal/xorcrypt"
)

// ErrClosed reports operations on a closed proxy.
var ErrClosed = errors.New("proxy: closed")

// Topic names mirror the paper's two Kafka topics: "answer" carries the
// encrypted answer stream on the first proxy, "key" carries key shares
// on all others. Functionally identical — the names only document
// roles. Every proxy additionally serves the "control" topic, the
// channel signed queries are distributed to clients through (paper
// §3.1: queries reach clients via the proxies); it is single-partition
// so announcements keep a total order.
const (
	TopicAnswer  = "answer"
	TopicKey     = "key"
	TopicControl = "control"
	// TopicLineage is the provenance sidecar: clients publish one
	// compact origin stamp per batch flush, the aggregator folds them
	// into per-window result cards. Single-partition, advisory — the
	// share plane never blocks on it.
	TopicLineage = "lineage"
)

// TopicFor returns the topic a proxy at the given fleet index serves.
func TopicFor(index int) string {
	if index == 0 {
		return TopicAnswer
	}
	return TopicKey
}

// Proxy is one forwarding node.
type Proxy struct {
	name  string
	topic string
	t     pubsub.Transport
	// broker is non-nil only for proxies built by New, which own their
	// in-process broker; attached proxies leave lifecycle and stats to
	// the remote process.
	broker *pubsub.Broker
	// prod is the idempotent batch front-end: SubmitBatch/SubmitColumns
	// go through a producer session, so a retry after an ambiguous
	// transport failure is deduplicated by the broker instead of
	// double-publishing shares (a duplicated share would XOR the MID
	// join into garbage).
	prod *pubsub.Producer
}

// New builds a proxy with its own broker and a single topic. Index 0 is
// conventionally the answer proxy; every other index forwards key
// shares.
func New(name string, index, partitions int) (*Proxy, error) {
	return newWithBroker(name, index, partitions, pubsub.NewBroker())
}

// NewDurable builds a proxy whose broker journals partitions, commits,
// and topic metadata to write-ahead logs under dir — a killed proxy
// restarted on the same directory replays its share streams and its
// control topic, so in-flight epochs and distributed query sets survive
// (the topics already exist after a replay; creation is idempotent
// here).
func NewDurable(name string, index, partitions int, dir string, opts wal.Options) (*Proxy, error) {
	b, err := pubsub.OpenBroker(dir, opts)
	if err != nil {
		return nil, err
	}
	return newWithBroker(name, index, partitions, b)
}

func newWithBroker(name string, index, partitions int, b *pubsub.Broker) (*Proxy, error) {
	if partitions <= 0 {
		b.Close()
		return nil, fmt.Errorf("proxy: %d partitions", partitions)
	}
	topic := TopicFor(index)
	if err := b.CreateTopic(topic, partitions); err != nil && !errors.Is(err, pubsub.ErrTopicExists) {
		b.Close()
		return nil, err
	}
	if err := b.CreateTopic(TopicControl, 1); err != nil && !errors.Is(err, pubsub.ErrTopicExists) {
		b.Close()
		return nil, err
	}
	if err := b.CreateTopic(TopicLineage, 1); err != nil && !errors.Is(err, pubsub.ErrTopicExists) {
		b.Close()
		return nil, err
	}
	p := &Proxy{name: name, topic: topic, t: b, broker: b}
	p.prod = pubsub.NewProducer(b, pubsub.RetryPolicy{})
	return p, nil
}

// Attach binds a proxy handle to an already-running broker reachable
// through t — e.g. a pubsub.Client dialed at a networked proxy process
// that created its topic at startup. The topic must already exist.
func Attach(name string, index int, t pubsub.Transport) (*Proxy, error) {
	if t == nil {
		return nil, fmt.Errorf("proxy: nil transport")
	}
	topic := TopicFor(index)
	if _, err := t.Partitions(topic); err != nil {
		return nil, fmt.Errorf("proxy: attach %s: %w", name, err)
	}
	p := &Proxy{name: name, topic: topic, t: t}
	p.prod = pubsub.NewProducer(t, pubsub.RetryPolicy{})
	return p, nil
}

// AttachLazy is Attach without the topic probe: the handle binds even
// while the remote proxy is unreachable, and a missing topic surfaces
// on first submit instead. Degraded-mode clients use this (paired with
// pubsub.Options.LazyDial) to come up while a proxy is down.
func AttachLazy(name string, index int, t pubsub.Transport) (*Proxy, error) {
	if t == nil {
		return nil, fmt.Errorf("proxy: nil transport")
	}
	p := &Proxy{name: name, topic: TopicFor(index), t: t}
	p.prod = pubsub.NewProducer(t, pubsub.RetryPolicy{})
	return p, nil
}

// Name returns the proxy name.
func (p *Proxy) Name() string { return p.name }

// Topic returns the proxy's stream name.
func (p *Proxy) Topic() string { return p.topic }

// SetRetryPolicy installs the at-least-once retry policy the batched
// submit path (SubmitBatch/SubmitColumns) runs under. Retried batches
// are deduplicated by the broker's producer sessions, so Attempts > 1
// is safe against double-publish. Configure before serving traffic.
func (p *Proxy) SetRetryPolicy(pol pubsub.RetryPolicy) { p.prod.SetPolicy(pol) }

// SetCapacity bounds the backlog of every partition of this proxy's
// share topic (see pubsub.Broker.SetTopicCapacity). Only proxies that
// own their broker can be bounded locally; attached proxies return an
// error — bound the remote broker in its own process.
func (p *Proxy) SetCapacity(capacity int) error {
	if p.broker == nil {
		return fmt.Errorf("proxy: %s is attached; set capacity on the remote broker", p.name)
	}
	return p.broker.SetTopicCapacity(p.topic, capacity)
}

// SubmitBatch accepts many shares in one call: each run of same-size
// payloads is packed into a MID lane and a payload lane and forwarded
// through SubmitColumns, so a same-query batch is one frame. The shares
// (and their payloads) are consumed before SubmitBatch returns;
// all-or-nothing holds per run. Every wiring publishes through
// client.Batcher → SubmitColumns; SubmitBatch stays only because the
// benchmark harness (bench/layers.go) compiles against it.
func (p *Proxy) SubmitBatch(shares []xorcrypt.Share) error {
	var mids, payloads []byte
	for start := 0; start < len(shares); {
		size := len(shares[start].Payload)
		mids, payloads = mids[:0], payloads[:0]
		end := start
		for ; end < len(shares) && len(shares[end].Payload) == size; end++ {
			mids = append(mids, shares[end].MID[:]...)
			payloads = append(payloads, shares[end].Payload...)
		}
		if err := p.SubmitColumns(mids, payloads, end-start, size); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// SubmitColumns accepts a columnar batch of count shares: a contiguous
// MID lane (count × xorcrypt.MIDSize bytes) and a contiguous payload
// lane at a fixed size-byte stride — one segment of a client's arena
// batcher, one frame over TCP. The processing at a PrivApprox proxy is
// exactly this publish: no noise addition, no inter-proxy coordination
// (the property Fig. 6 measures). On a bounded, full topic it fails
// fast with pubsub.ErrPartitionFull; the caller decides whether to
// shed. The batch goes through the proxy's producer session, so under
// the retry policy an ambiguous transport failure is retried and the
// broker dedups any slice that already landed. Both lanes are fully
// consumed before SubmitColumns returns (DESIGN.md §6, §10).
func (p *Proxy) SubmitColumns(mids, payloads []byte, count, size int) error {
	if count == 0 {
		return nil
	}
	return p.prod.PublishColumns(p.topic, pubsub.Columns{
		Count:  count,
		KeyLen: xorcrypt.MIDSize,
		ValLen: size,
		Keys:   mids,
		Vals:   payloads,
	})
}

// Consumer returns an aggregator-side consumer over this proxy's stream.
func (p *Proxy) Consumer(group string) (*pubsub.Consumer, error) {
	return p.consumer(group, p.topic)
}

// consumer subscribes group to one of this proxy's topics, through the
// owned broker when there is one so polls observe its shutdown.
func (p *Proxy) consumer(group, topic string) (*pubsub.Consumer, error) {
	if p.broker != nil {
		return pubsub.NewConsumer(p.broker, group, topic)
	}
	return pubsub.NewTransportConsumer(p.t, group, topic)
}

// Announce publishes one control-plane payload (a serialized query-set
// announcement) to this proxy's control topic. The proxy forwards the
// opaque bytes like any other record; clients verify the analyst
// signatures themselves, so a proxy cannot tamper with an announced
// query undetected (forgery under a fresh key is only ruled out when
// clients pin analyst keys — see engine.Applier.Trust).
func (p *Proxy) Announce(payload []byte) error {
	_, _, err := p.t.Publish(TopicControl, nil, payload)
	return err
}

// ControlConsumer returns a consumer over this proxy's control topic —
// the client-side end of query distribution.
func (p *Proxy) ControlConsumer(group string) (*pubsub.Consumer, error) {
	return p.consumer(group, TopicControl)
}

// SubmitStamp publishes one encoded batch origin stamp to the lineage
// sidecar. Stamps are advisory observability data: against a broker
// without the topic the stamp is silently dropped and the share plane
// is unaffected. Transport failures are returned — a proxy that is down
// now may be back for the next stamp.
func (p *Proxy) SubmitStamp(payload []byte) error {
	_, _, err := p.t.Publish(TopicLineage, nil, payload)
	if errors.Is(err, pubsub.ErrNoTopic) {
		return nil
	}
	return err
}

// LineageConsumer returns an aggregator-side consumer over this
// proxy's lineage sidecar topic, or nil (no error) when the broker has
// no such topic — the caller just has no stamps to drain.
func (p *Proxy) LineageConsumer(group string) (*pubsub.Consumer, error) {
	c, err := p.consumer(group, TopicLineage)
	if errors.Is(err, pubsub.ErrNoTopic) {
		return nil, nil
	}
	return c, err
}

// Stats exposes the underlying broker's traffic counters. Attached
// (remote) proxies report zero — the counters live in the remote
// process.
func (p *Proxy) Stats() pubsub.Stats {
	if p.broker == nil {
		return pubsub.Stats{}
	}
	return p.broker.Stats()
}

// Broker returns the proxy's in-process broker, nil for attached
// (remote) proxies — the telemetry plane uses it to hook publish
// latency histograms and backlog gauges onto owned brokers.
func (p *Proxy) Broker() *pubsub.Broker { return p.broker }

// Close shuts the underlying broker down when this proxy owns it; for
// attached proxies the remote process owns the lifecycle and Close is a
// no-op.
func (p *Proxy) Close() {
	if p.broker != nil {
		p.broker.Close()
	}
}

// DecodeRecord converts a consumed pub/sub record back into the share a
// client submitted.
func DecodeRecord(rec pubsub.Record) (xorcrypt.Share, error) {
	if len(rec.Key) != xorcrypt.MIDSize {
		return xorcrypt.Share{}, fmt.Errorf("proxy: record key has %d bytes, want %d", len(rec.Key), xorcrypt.MIDSize)
	}
	var mid xorcrypt.MID
	copy(mid[:], rec.Key)
	return xorcrypt.Share{MID: mid, Payload: rec.Value}, nil
}

// AppendShares appends the shares a fetched run carries to shares, each
// a view of its record in the run's body, and returns them with the
// number of records it skipped: a run whose key is not a MID carries no
// share, and all of its records are skipped.
func AppendShares(shares []xorcrypt.Share, r pubsub.Run) ([]xorcrypt.Share, int) {
	if r.KeyLen != xorcrypt.MIDSize {
		return shares, r.Count
	}
	stride := r.KeyLen + r.ValLen
	for at := 0; at < len(r.Body); at += stride {
		sh := xorcrypt.Share{Payload: r.Body[at+r.KeyLen : at+stride : at+stride]}
		copy(sh.MID[:], r.Body[at:])
		shares = append(shares, sh)
	}
	return shares, 0
}

// Fleet is the set of n ≥ 2 proxies a deployment runs. The threat model
// (paper §2.2) requires at least two non-colluding proxies.
type Fleet struct {
	proxies []*Proxy
}

// NewFleet builds n in-process proxies with the given partition count
// each.
func NewFleet(n, partitions int) (*Fleet, error) {
	return newFleet(n, func(i int) (*Proxy, error) {
		return New(fmt.Sprintf("proxy-%d", i), i, partitions)
	})
}

// NewDurableFleet builds n in-process proxies whose brokers journal to
// WALs under dir (one subdirectory per proxy); reopening the same dir
// replays every proxy's topics.
func NewDurableFleet(n, partitions int, dir string, opts wal.Options) (*Fleet, error) {
	return newFleet(n, func(i int) (*Proxy, error) {
		return NewDurable(fmt.Sprintf("proxy-%d", i), i, partitions,
			filepath.Join(dir, fmt.Sprintf("proxy-%d", i)), opts)
	})
}

// AttachFleet binds a fleet handle to one remote proxy per transport,
// transport i serving the index-i topic.
func AttachFleet(transports []pubsub.Transport) (*Fleet, error) {
	return newFleet(len(transports), func(i int) (*Proxy, error) {
		return Attach(fmt.Sprintf("proxy-%d", i), i, transports[i])
	})
}

// AttachFleetLazy is AttachFleet via AttachLazy: no startup probes, so
// the fleet binds while some proxies are still unreachable.
func AttachFleetLazy(transports []pubsub.Transport) (*Fleet, error) {
	return newFleet(len(transports), func(i int) (*Proxy, error) {
		return AttachLazy(fmt.Sprintf("proxy-%d", i), i, transports[i])
	})
}

// newFleet assembles n proxies from build, closing any already-built
// proxies when a later one fails so no broker leaks.
func newFleet(n int, build func(i int) (*Proxy, error)) (*Fleet, error) {
	if n < 2 {
		return nil, fmt.Errorf("proxy: fleet needs ≥ 2 proxies, got %d", n)
	}
	f := &Fleet{}
	for i := 0; i < n; i++ {
		p, err := build(i)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.proxies = append(f.proxies, p)
	}
	return f, nil
}

// Size returns the number of proxies.
func (f *Fleet) Size() int { return len(f.proxies) }

// Proxy returns proxy i.
func (f *Fleet) Proxy(i int) *Proxy { return f.proxies[i] }

// Consumers returns one aggregator consumer per proxy.
func (f *Fleet) Consumers(group string) ([]*pubsub.Consumer, error) {
	out := make([]*pubsub.Consumer, len(f.proxies))
	for i, p := range f.proxies {
		c, err := p.Consumer(group)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// LineageConsumers returns one lineage consumer per proxy that hosts
// the lineage topic; proxies without it are skipped, so the slice may
// be shorter than the fleet.
func (f *Fleet) LineageConsumers(group string) ([]*pubsub.Consumer, error) {
	var out []*pubsub.Consumer
	for _, p := range f.proxies {
		c, err := p.LineageConsumer(group)
		if err != nil {
			return nil, err
		}
		if c != nil {
			out = append(out, c)
		}
	}
	return out, nil
}

// Announce publishes one control payload to every proxy's control
// topic, so a client following any single proxy sees the full
// announcement stream (clients need not trust any one proxy to be
// honest about the query set — signatures travel with the queries).
func (f *Fleet) Announce(payload []byte) error {
	for _, p := range f.proxies {
		if err := p.Announce(payload); err != nil {
			return fmt.Errorf("proxy: announce via %s: %w", p.Name(), err)
		}
	}
	return nil
}

// SetCapacity bounds every owned proxy's share-topic backlog (attached
// proxies are skipped — their brokers live elsewhere).
func (f *Fleet) SetCapacity(capacity int) error {
	for _, p := range f.proxies {
		if p.broker == nil {
			continue
		}
		if err := p.SetCapacity(capacity); err != nil {
			return err
		}
	}
	return nil
}

// SetRetryPolicy installs one at-least-once retry policy on every
// proxy's batched submit path.
func (f *Fleet) SetRetryPolicy(pol pubsub.RetryPolicy) {
	for _, p := range f.proxies {
		p.SetRetryPolicy(pol)
	}
}

// TotalStats sums traffic over the fleet. MaxBacklog is the fleet-wide
// maximum, not a sum — it answers "how far behind is the worst
// partition anywhere".
func (f *Fleet) TotalStats() pubsub.Stats {
	var total pubsub.Stats
	for _, p := range f.proxies {
		s := p.Stats()
		total.MessagesIn += s.MessagesIn
		total.BytesIn += s.BytesIn
		total.MessagesOut += s.MessagesOut
		total.BytesOut += s.BytesOut
		total.Rejected += s.Rejected
		total.Duplicates += s.Duplicates
		total.TotalBacklog += s.TotalBacklog
		if s.MaxBacklog > total.MaxBacklog {
			total.MaxBacklog = s.MaxBacklog
		}
	}
	return total
}

// Close shuts every proxy down.
func (f *Fleet) Close() {
	for _, p := range f.proxies {
		p.Close()
	}
}
