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
// less its control and lineage records), and fetched[i] the next-read
// positions of the drain's consumer of proxy i, summed over partitions.
// Over the n proxies, every fetched share went into a joined message
// (n shares), a refused replay (one), a skipped record or a malformed
// message (one or n: Malformed counts both), or a pending or swept join
// (1 to n−1):
//
//	Σ fetched = n·joined + duplicates + the shares of malformed, pending and swept
//
// where joined is Decoded (Late answers included) plus the unknown-query
// and length-mismatch drops. It is the run's own account, so it holds
// only for a drain that started from offset 0 in this process — not for
// one restored from a checkpoint.
func Conserve(answered int64, dropped, published []int64, consumers []*pubsub.Consumer, agg *aggregator.Aggregator) error {
	n := int64(len(consumers))
	if len(dropped) != len(consumers) || len(published) != len(consumers) {
		return fmt.Errorf("role: conservation over %d consumers needs as many dropped and published counts, have %d and %d", n, len(dropped), len(published))
	}
	var fetched int64
	for i, c := range consumers {
		var got int64
		for _, parts := range c.Positions() {
			for _, off := range parts {
				got += off
			}
		}
		if answered-dropped[i] != published[i] {
			return fmt.Errorf("role: proxy %d: answered %d − dropped %d ≠ published %d", i, answered, dropped[i], published[i])
		}
		if published[i] != got {
			return fmt.Errorf("role: proxy %d: published %d ≠ fetched %d", i, published[i], got)
		}
		fetched += got
	}
	st := agg.Stats()
	joined, partial := st.Decoded+st.UnknownQuery+st.LengthMismatch, int64(agg.PendingJoins())+st.Swept
	whole := n*joined + st.Duplicates
	if lo, hi := whole+st.Malformed+partial, whole+n*st.Malformed+(n-1)*partial; fetched < lo || fetched > hi {
		return fmt.Errorf("role: fetched %d ≠ %d proxies × joined %d + %d duplicates + the shares of %d malformed and %d pending or swept",
			fetched, n, joined, st.Duplicates, st.Malformed, partial)
	}
	return nil
}
