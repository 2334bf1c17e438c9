package stream_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"privapprox/internal/aggregator"
	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/role"
	"privapprox/internal/rr"
	"privapprox/internal/xorcrypt"
)

// roundOp is one step of a FuzzSubmitRound input, applied to proxy
// c&1's arrival order: move the share at a to b, replay it at b, drop
// it, reverse the run of up to four shares from a, or cut a round before
// position a.
func roundOp(op string, proxy, a, b byte) []byte {
	kind := map[string]byte{"move": 0, "replay": 1, "drop": 2, "reverse": 3, "cut": 4}[op]
	return []byte{kind<<1 | proxy, a, b}
}

// FuzzSubmitRound pins the paired submit to its model: a round submitted
// in one SubmitRound call fires the same windows, keeps the same Stats
// and PendingJoins, and balances the share ledger (role.Balance) exactly
// when its proxies' slices submitted one SubmitShareBatch call after the
// other, in proxy order, do. The messages are one query's answers, four
// an epoch (every eleventh with a truncated proxy-1 share, so it joins
// malformed), split over two proxies. The input rearranges each proxy's
// arrivals — shifted, replayed, dropped and reordered shares — and cuts
// each proxy's stream into rounds on its own, so rounds run unequal and
// a proxy may poll nothing. The stream spans less than the query's
// window, so the join state never ages: aging once per call, not once
// per round, is the one place the two may part (the chunking contract).
func FuzzSubmitRound(f *testing.F) {
	seed := func(n byte, ops ...[]byte) []byte { return slices.Concat(append([][]byte{{n}}, ops...)...) }
	// Aligned runs, cut alike, and cut differently.
	f.Add(seed(20, roundOp("cut", 0, 8, 0), roundOp("cut", 1, 8, 0), roundOp("cut", 0, 16, 0), roundOp("cut", 1, 16, 0)))
	f.Add(seed(20, roundOp("cut", 0, 8, 0), roundOp("cut", 1, 12, 0), roundOp("cut", 1, 20, 0)))
	// One run shifted by a share.
	f.Add(seed(24, roundOp("move", 1, 23, 0), roundOp("cut", 0, 12, 0), roundOp("cut", 1, 12, 0)))
	// Frames interleaved differently at the two proxies.
	f.Add(seed(24, roundOp("reverse", 0, 4, 3), roundOp("move", 1, 2, 9), roundOp("cut", 0, 10, 0), roundOp("cut", 1, 10, 0)))
	// A replay inside a run, and one across rounds.
	f.Add(seed(16, roundOp("replay", 0, 3, 5), roundOp("replay", 1, 3, 5), roundOp("replay", 1, 6, 14), roundOp("cut", 0, 9, 0), roundOp("cut", 1, 9, 0)))
	// A proxy with nothing polled in a round, and a lost share.
	f.Add(seed(16, roundOp("cut", 0, 0, 0), roundOp("cut", 0, 0, 0), roundOp("cut", 1, 6, 0), roundOp("drop", 0, 2, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		msgs := 4 + int(data[0]%25)
		all := splitMessages(t, msgs)
		var orders, cuts [2][]int
		for p := range orders {
			for i := range msgs {
				orders[p] = append(orders[p], i)
			}
		}
		for i := 1; i+2 < len(data); i += 3 {
			p, kind := int(data[i]&1), data[i]>>1%5
			o := orders[p]
			a, b := int(data[i+1]), int(data[i+2])
			switch {
			case kind == 4:
				cuts[p] = append(cuts[p], a%(len(o)+1))
			case len(o) == 0:
			case kind == 0:
				at := o[a%len(o)]
				o = slices.Delete(o, a%len(o), a%len(o)+1)
				o = slices.Insert(o, b%(len(o)+1), at)
			case kind == 1:
				o = slices.Insert(o, b%(len(o)+1), o[a%len(o)])
			case kind == 2:
				o = slices.Delete(o, a%len(o), a%len(o)+1)
			case kind == 3:
				lo := a % len(o)
				slices.Reverse(o[lo:min(len(o), lo+1+b%4)])
			}
			orders[p] = o
		}
		// rounds[r][p] is what proxy p's poll of round r reads.
		var rounds [][2][]int
		for p, o := range orders {
			slices.Sort(cuts[p])
			lo := 0
			for r, cut := range append(cuts[p], len(o)) {
				cut = min(cut, len(o))
				for len(rounds) <= r {
					rounds = append(rounds, [2][]int{})
				}
				rounds[r][p] = o[lo:max(lo, cut)]
				lo = max(lo, cut)
			}
		}

		// shares gives a run its own copies of a poll's shares: the tail
		// may rewrite payloads in place.
		shares := func(p int, idx []int) []xorcrypt.Share {
			out := make([]xorcrypt.Share, len(idx))
			for k, i := range idx {
				out[k] = xorcrypt.Share{MID: all[i][p].MID, Payload: slices.Clone(all[i][p].Payload)}
			}
			return out
		}
		type outcome struct {
			results []aggregator.Result
			stats   aggregator.Stats
			pending int
			balance string
		}
		run := func(paired bool) outcome {
			agg := roundAggregator(t)
			var out outcome
			for _, r := range rounds {
				var fired []aggregator.Result
				var err error
				if paired {
					fired, err = agg.SubmitRound([][]xorcrypt.Share{shares(0, r[0]), shares(1, r[1])}, math.MaxUint64)
				} else {
					for p := range r {
						var res []aggregator.Result
						res, err = agg.SubmitShareBatch(shares(p, r[p]), p, time.Time{})
						fired = append(fired, res...)
						if err != nil {
							break
						}
					}
				}
				if err != nil {
					t.Fatalf("paired %t: %v", paired, err)
				}
				out.results = append(out.results, fired...)
			}
			final, err := agg.Flush()
			if err != nil {
				t.Fatal(err)
			}
			out.results = append(out.results, final...)
			out.stats, out.pending = agg.Stats(), agg.PendingJoins()
			fetched := []int64{int64(len(orders[0])), int64(len(orders[1]))}
			dropped := []int64{int64(msgs) - fetched[0], int64(msgs) - fetched[1]}
			out.balance = fmt.Sprint(role.Balance(int64(msgs), dropped, fetched, out.stats, int64(out.pending)))
			return out
		}
		want, got := run(false), run(true)
		if !reflect.DeepEqual(got.results, want.results) {
			t.Fatalf("rounds %v: paired, %d windows fire; proxy by proxy, %d, or they differ", rounds, len(got.results), len(want.results))
		}
		if got.stats != want.stats || got.pending != want.pending || got.balance != want.balance {
			t.Fatalf("rounds %v\npaired:         %+v, %d pending, %s\nproxy by proxy: %+v, %d pending, %s",
				rounds, got.stats, got.pending, got.balance, want.stats, want.pending, want.balance)
		}
		if want.balance != "<nil>" {
			t.Fatalf("the share ledger does not balance: %s", want.balance)
		}
	})
}

// roundQID is the query FuzzSubmitRound answers: one-second epochs,
// windows of eight slid by one.
var roundQID = query.ID{Analyst: "round", Serial: 1}

func roundAggregator(t *testing.T) *aggregator.Aggregator {
	t.Helper()
	buckets, err := query.UniformRanges(0, nbuckets, nbuckets, false)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregator.New(aggregator.Config{
		Query: &query.Query{
			QID: roundQID, SQL: "SELECT v FROM t", Buckets: buckets,
			Frequency: time.Second, Window: 8 * time.Second, Slide: time.Second,
		},
		Params:     budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}},
		Population: 4,
		Proxies:    2,
		Origin:     origin,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// splitMessages splits n answers of the roundQID query — message i of epoch i/4 —
// into their two shares, with distinct MIDs. Every eleventh message's
// proxy-1 share is a byte short.
func splitMessages(t *testing.T, n int) [][]xorcrypt.Share {
	t.Helper()
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]xorcrypt.Share, n)
	for i := range out {
		vec, err := answer.OneHot(nbuckets, i%nbuckets)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := (&answer.Message{QueryID: roundQID.Uint64(), Epoch: uint64(i / 4), Answer: vec}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		split, err := sp.SplitInto(raw, new(xorcrypt.SplitScratch))
		if err != nil {
			t.Fatal(err)
		}
		for p, sh := range split {
			sh.MID = xorcrypt.MID{byte(i), byte(i >> 8), 0x5e}
			sh.Payload = slices.Clone(sh.Payload)
			if p == 1 && i%11 == 10 {
				sh.Payload = sh.Payload[:len(sh.Payload)-1]
			}
			out[i] = append(out[i], sh)
		}
	}
	return out
}
