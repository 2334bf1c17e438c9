package role

import (
	"fmt"

	"privapprox/internal/aggregator"
	"privapprox/internal/pubsub"
)

// Conserve checks a run's share ledger at teardown, after its last
// drain, over counters the roles already keep, and returns an error
// naming the first equation that fails. For each proxy i:
//
//	answered − dropped[i] = published[i] = fetched[i]
//
// answered is Σ client AnswersSent (one share per proxy each),
// dropped[i] the shares proxy i's batcher discarded (Batcher.Dropped),
// published[i] the share records proxy i's broker took in (MessagesIn,
// less its control and lineage records), and fetched[i] what the drain's
// consumer of proxy i has read (Fetched). The rest is Balance's
// arithmetic. It is the run's own account, so it holds only for a drain
// that started from offset 0 in this process — not for one restored
// from a checkpoint.
func Conserve(answered int64, dropped, published []int64, consumers []*pubsub.Consumer, agg *aggregator.Aggregator) error {
	if len(dropped) != len(consumers) || len(published) != len(consumers) {
		return fmt.Errorf("role: conservation over %d consumers needs as many dropped and published counts, have %d and %d", len(consumers), len(dropped), len(published))
	}
	for i := range published {
		if answered-dropped[i] != published[i] {
			return fmt.Errorf("role: proxy %d: answered %d − dropped %d ≠ published %d", i, answered, dropped[i], published[i])
		}
	}
	return Balance(answered, dropped, Fetched(consumers), agg.Stats(), int64(agg.PendingJoins()))
}

// Fetched returns what each consumer has read: its next-read positions
// summed over partitions.
func Fetched(consumers []*pubsub.Consumer) []int64 {
	fetched := make([]int64, len(consumers))
	for i, c := range consumers {
		for _, parts := range c.Positions() {
			for _, off := range parts {
				fetched[i] += off
			}
		}
	}
	return fetched
}

// Balance is the share ledger's arithmetic over plain counts — the
// multi-process deployment reads them from its roles' output. For each
// proxy i:
//
//	answered − dropped[i] = fetched[i]
//
// and over the n proxies every fetched share went into a joined message
// (n shares), a refused replay (one), a skipped record or a malformed
// message (one or n: Malformed counts both), or a pending or swept join
// (1 to n−1):
//
//	Σ fetched = n·joined + duplicates + the shares of malformed, pending and swept
//
// where joined is Decoded (Late answers included) plus the unknown-query
// and length-mismatch drops, st is the aggregator's Stats and pending
// its PendingJoins.
func Balance(answered int64, dropped, fetched []int64, st aggregator.Stats, pending int64) error {
	n := int64(len(fetched))
	if len(dropped) != len(fetched) {
		return fmt.Errorf("role: conservation over %d proxies needs as many dropped counts, have %d", n, len(dropped))
	}
	var total int64
	for i, got := range fetched {
		if answered-dropped[i] != got {
			return fmt.Errorf("role: proxy %d: answered %d − dropped %d ≠ fetched %d", i, answered, dropped[i], got)
		}
		total += got
	}
	joined, partial := st.Decoded+st.UnknownQuery+st.LengthMismatch, pending+st.Swept
	whole := n*joined + st.Duplicates
	if lo, hi := whole+st.Malformed+partial, whole+n*st.Malformed+(n-1)*partial; total < lo || total > hi {
		return fmt.Errorf("role: fetched %d ≠ %d proxies × joined %d + %d duplicates + the shares of %d malformed and %d pending or swept",
			total, n, joined, st.Duplicates, st.Malformed, partial)
	}
	return nil
}
