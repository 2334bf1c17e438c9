package aggregator

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/query"
	"privapprox/internal/rr"
	"privapprox/internal/stream"
	"privapprox/internal/xorcrypt"
)

// encodeShares splits one answer message into its per-source shares.
func encodeShares(t testing.TB, sp *xorcrypt.Splitter, qid, epoch uint64, nbits, bucket int) []xorcrypt.Share {
	t.Helper()
	var vec *answer.BitVector
	var err error
	if bucket >= 0 {
		vec, err = answer.OneHot(nbits, bucket)
	} else {
		vec, err = answer.NewBitVector(nbits)
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := (&answer.Message{QueryID: qid, Epoch: epoch, Answer: vec}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := sp.Split(raw)
	if err != nil {
		t.Fatal(err)
	}
	return shares
}

func copyShare(sh xorcrypt.Share) xorcrypt.Share {
	return xorcrypt.Share{MID: sh.MID, Payload: append([]byte(nil), sh.Payload...)}
}

// chunkRun is what one submission of a share stream leaves behind: every
// result it fired (then the final flush), the counters, and the
// OnDecoded sequence.
type chunkRun struct {
	results []Result
	stats   Stats
	decoded []string
}

// TestSubmitShareBatchMatchesPerShare pins the chunking contract of the
// one submit tail: a share stream carrying two interleaved queries (one
// with a non-byte-aligned answer width), multiple epochs, a late
// straggler, unknown-query and wrong-length messages, duplicate shares,
// and a malformed (mismatched-size) group must produce the same fired
// results, the same stats and the same OnDecoded sequence whether it is
// submitted one share per call, as one batch per source, or cut at
// seeded random chunk sizes.
func TestSubmitShareBatchMatchesPerShare(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	const nb1, nb2 = 11, 5
	const population = 500
	q2 := testQuery(t, nb2)
	q2.QID = query.ID{Analyst: "b", Serial: 2}
	qid1, qid2 := testQuery(t, nb1).QID.Uint64(), q2.QID.Uint64()

	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var all [][]xorcrypt.Share
	for epoch := uint64(0); epoch < 4; epoch++ {
		for i := 0; i < 40; i++ {
			switch i % 8 {
			case 3: // second query, interleaved: forces segment breaks
				all = append(all, encodeShares(t, sp, qid2, epoch, nb2, rng.Intn(nb2)))
			case 5: // unknown query
				all = append(all, encodeShares(t, sp, 0xdeadbeef, epoch, nb1, rng.Intn(nb1)))
			case 7: // wrong answer length for query 1
				all = append(all, encodeShares(t, sp, qid1, epoch, nb1+2, 0))
			default:
				all = append(all, encodeShares(t, sp, qid1, epoch, nb1, rng.Intn(nb1)))
			}
		}
	}
	// Late straggler: epoch 0 again after epoch 3 advanced the watermark.
	all = append(all, encodeShares(t, sp, qid1, 0, nb1, 1))
	// Malformed group: same MID from both sources with mismatched sizes.
	var badMID xorcrypt.MID
	badMID[0] = 0xaa
	all = append(all, []xorcrypt.Share{
		{MID: badMID, Payload: []byte{1, 2, 3}},
		{MID: badMID, Payload: []byte{4, 5}},
	})
	// Duplicate: replay a message of the newest epoch verbatim — inside
	// the retain horizon (a replay of the first message would by now join
	// again and count as late).
	all = append(all, []xorcrypt.Share{copyShare(all[3*40][0]), copyShare(all[3*40][1])})

	// run submits the stream in chunks of next() messages: all source-0
	// shares of a chunk, then all source-1 shares, so joins complete in
	// message order whatever the chunk size. Each run gets its own deep
	// copies of the payloads, as the ownership contract allows the tail
	// to mask trailing bits in place.
	run := func(next func() int) chunkRun {
		var out chunkRun
		cfg := testConfig(t, nb1, params, population)
		cfg.OnDecoded = func(raw []byte, at time.Time) {
			out.decoded = append(out.decoded, fmt.Sprintf("%x@%d", raw, at.UnixNano()))
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AddQuery(QuerySpec{Query: q2, Params: params}); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(all); {
			hi := min(lo+next(), len(all))
			for src := 0; src < 2; src++ {
				var batch []xorcrypt.Share
				for _, shares := range all[lo:hi] {
					batch = append(batch, copyShare(shares[src]))
				}
				res, err := a.SubmitShareBatch(batch, src, time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				out.results = append(out.results, res...)
			}
			lo = hi
		}
		final, err := a.Flush()
		if err != nil {
			t.Fatal(err)
		}
		out.results = append(out.results, final...)
		out.stats = a.Stats()
		return out
	}

	perShare := run(func() int { return 1 })
	st := perShare.stats
	if len(perShare.results) == 0 || len(perShare.decoded) == 0 {
		t.Fatal("test produced no results at all")
	}
	if st.Late == 0 || st.Duplicates == 0 || st.Malformed == 0 || st.UnknownQuery == 0 || st.LengthMismatch == 0 {
		t.Fatalf("fixture failed to exercise every drop path: %+v", st)
	}
	chunkings := map[string]func() int{
		"one batch":    func() int { return len(all) },
		"chunks of 17": func() int { return 17 },
	}
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		chunkings[fmt.Sprintf("random chunks, seed %d", seed)] = func() int { return 1 + r.Intn(60) }
	}
	for name, next := range chunkings {
		got := run(next)
		if !reflect.DeepEqual(got.results, perShare.results) {
			t.Errorf("%s: fired results diverge from one share per call:\n got: %+v\nwant: %+v", name, got.results, perShare.results)
		}
		if got.stats != perShare.stats {
			t.Errorf("%s: stats %+v, one share per call %+v", name, got.stats, perShare.stats)
		}
		if !reflect.DeepEqual(got.decoded, perShare.decoded) {
			t.Errorf("%s: OnDecoded sequence diverges from one share per call", name)
		}
	}
}

// TestSubmitShareBatchEdges: empty batches are no-ops, a bad source is
// rejected with the joiner's arity error, and single-share batches
// complete a message.
func TestSubmitShareBatchEdges(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	cfg := testConfig(t, 4, params, 10)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := a.SubmitShareBatch(nil, 0, time.Now()); err != nil || res != nil {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	sh := xorcrypt.Share{Payload: []byte{1}}
	if _, err := a.SubmitShareBatch([]xorcrypt.Share{sh}, 2, time.Now()); !errors.Is(err, stream.ErrJoinArity) {
		t.Fatalf("bad source: err=%v", err)
	}
	if _, err := a.SubmitShareBatch([]xorcrypt.Share{sh}, -1, time.Now()); !errors.Is(err, stream.ErrJoinArity) {
		t.Fatalf("negative source: err=%v", err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	shares := encodeShares(t, sp, cfg.Query.QID.Uint64(), 0, 4, 2)
	for src, s := range shares {
		if _, err := a.SubmitShareBatch([]xorcrypt.Share{s}, src, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().Decoded; got != 1 {
		t.Fatalf("Decoded = %d after single-share batches", got)
	}
}
