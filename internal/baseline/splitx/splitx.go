// Package splitx reproduces the latency comparison baseline of the
// paper's Fig. 6: SplitX (Chen et al., SIGCOMM 2013), a
// privacy-preserving analytics system whose proxies must *synchronize*
// to process answers — adding noise, exchanging and intersecting answer
// batches, and shuffling — whereas PrivApprox proxies only forward.
//
// Both pipelines run on the same pub/sub substrate so the measured gap
// reflects the architectural difference, not implementation bias: a
// PrivApprox proxy performs one publish+consume per answer; SplitX
// proxies additionally exchange every answer with each other (a second
// and third transmission), intersect the two proxies' message-ID sets,
// add calibrated noise, and shuffle the batch before forwarding, with a
// synchronization barrier between phases.
package splitx

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"privapprox/internal/pubsub"
)

// Components breaks a SplitX batch latency into the phases Fig. 6
// plots.
type Components struct {
	Transmission time.Duration
	Computation  time.Duration // noise addition + intersection
	Shuffling    time.Duration
	Total        time.Duration
}

// answerValue synthesizes an n-byte payload.
func answerValue(bytes int, i int) []byte {
	v := make([]byte, bytes)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

func key(i int) []byte {
	return []byte(fmt.Sprintf("mid-%010d", i))
}

// record is one consumed answer, copied out of the poll that read it.
type record struct{ key, value []byte }

// publish appends one answer to topic as a batch of one.
func publish(b *pubsub.Broker, topic string, key, value []byte) error {
	return b.PublishColumns(topic, pubsub.Columns{Count: 1, KeyLen: len(key), ValLen: len(value), Keys: key, Vals: value}, 0, 0)
}

// RunPrivApprox measures the proxy-stage latency of n answers of the
// given size through a PrivApprox proxy: publish, then consume —
// nothing else happens at the proxy.
func RunPrivApprox(n, answerBytes int) (time.Duration, error) {
	broker := pubsub.NewBroker()
	if err := broker.CreateTopic("answer", 1); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := publish(broker, "answer", key(i), answerValue(answerBytes, i)); err != nil {
			return 0, err
		}
	}
	if _, err := fetchAll(broker, "answer", n); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// RunSplitX measures the proxy-stage latency of n answers through the
// SplitX pipeline on the same substrate. Phases are sequential — the
// synchronization the paper's §6 #VIII blames for SplitX's latency.
func RunSplitX(n, answerBytes int, rng *rand.Rand) (Components, error) {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	var comp Components

	// Phase 1 — transmission: clients send answer shares to two proxies.
	brokerA := pubsub.NewBroker()
	brokerB := pubsub.NewBroker()
	for _, b := range []*pubsub.Broker{brokerA, brokerB} {
		if err := b.CreateTopic("in", 1); err != nil {
			return comp, err
		}
		if err := b.CreateTopic("exchange", 1); err != nil {
			return comp, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		v := answerValue(answerBytes, i)
		if err := publish(brokerA, "in", key(i), v); err != nil {
			return comp, err
		}
		if err := publish(brokerB, "in", key(i), v); err != nil {
			return comp, err
		}
	}
	batchA, err := fetchAll(brokerA, "in", n)
	if err != nil {
		return comp, err
	}
	batchB, err := fetchAll(brokerB, "in", n)
	if err != nil {
		return comp, err
	}
	comp.Transmission = time.Since(start)

	// Phase 2 — computation: the proxies exchange their batches (another
	// full transmission each), intersect the message-ID sets, and add
	// noise to the counts. This is where SplitX synchronizes.
	start = time.Now()
	for _, rec := range batchA {
		if err := publish(brokerB, "exchange", rec.key, rec.value); err != nil {
			return comp, err
		}
	}
	for _, rec := range batchB {
		if err := publish(brokerA, "exchange", rec.key, rec.value); err != nil {
			return comp, err
		}
	}
	exchA, err := fetchAll(brokerA, "exchange", n)
	if err != nil {
		return comp, err
	}
	if _, err := fetchAll(brokerB, "exchange", n); err != nil {
		return comp, err
	}
	// Intersection of the two ID sets.
	seen := make(map[string]struct{}, len(batchA))
	for _, rec := range batchA {
		seen[string(rec.key)] = struct{}{}
	}
	matched := 0
	for _, rec := range exchA {
		if _, ok := seen[string(rec.key)]; ok {
			matched++
		}
	}
	if matched != n {
		return comp, fmt.Errorf("splitx: intersection lost answers: %d of %d", matched, n)
	}
	// Calibrated Laplace noise per answer slot.
	noise := 0.0
	for i := 0; i < n; i++ {
		noise += laplace(rng, 1)
	}
	_ = noise
	comp.Computation = time.Since(start)

	// Phase 3 — shuffling: Fisher–Yates over the batch, then forward to
	// the aggregator.
	start = time.Now()
	rng.Shuffle(len(batchA), func(i, j int) { batchA[i], batchA[j] = batchA[j], batchA[i] })
	out := pubsub.NewBroker()
	if err := out.CreateTopic("agg", 1); err != nil {
		return comp, err
	}
	for _, rec := range batchA {
		if err := publish(out, "agg", rec.key, rec.value); err != nil {
			return comp, err
		}
	}
	if _, err := fetchAll(out, "agg", n); err != nil {
		return comp, err
	}
	comp.Shuffling = time.Since(start)

	comp.Total = comp.Transmission + comp.Computation + comp.Shuffling
	return comp, nil
}

// fetchAll reads a topic's answers, at least n of them, through a
// consumer; each run's records are copied out of the poll's memory,
// which the next poll reuses.
func fetchAll(b *pubsub.Broker, topic string, n int) ([]record, error) {
	consumer, err := pubsub.NewConsumer(b, "splitx", topic)
	if err != nil {
		return nil, err
	}
	out := make([]record, 0, n)
	for len(out) < n {
		runs, err := consumer.PollRuns(8192, 0)
		if err != nil {
			return nil, err
		}
		if len(runs) == 0 {
			return nil, fmt.Errorf("splitx: missing records: %d of %d", len(out), n)
		}
		for _, r := range runs {
			body, stride := bytes.Clone(r.Body), r.KeyLen+r.ValLen
			for at := 0; at < len(body); at += stride {
				out = append(out, record{key: body[at : at+r.KeyLen : at+r.KeyLen], value: body[at+r.KeyLen : at+stride : at+stride]})
			}
		}
	}
	return out, nil
}

// laplace draws Laplace(0, scale) noise — SplitX's per-count noise.
func laplace(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	return -scale * sign(u) * math.Log(1-2*math.Abs(u))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Extrapolate scales a measured latency at nMeasured answers linearly
// to nTarget answers — how the Fig. 6 harness reaches 10⁸ clients
// without running 10⁸ messages (latency is linear in n for both
// systems; measured points confirm it over the feasible range).
func Extrapolate(measured time.Duration, nMeasured, nTarget int) time.Duration {
	if nMeasured <= 0 {
		return 0
	}
	return time.Duration(float64(measured) * float64(nTarget) / float64(nMeasured))
}
