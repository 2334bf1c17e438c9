package aggregator

import (
	"errors"
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
func encodeShares(t *testing.T, sp *xorcrypt.Splitter, qid, epoch uint64, nbits, bucket int) []xorcrypt.Share {
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

// TestSubmitShareBatchMatchesPerShare pins the batch path's
// equivalence contract: a share stream carrying two interleaved
// queries (one with a non-byte-aligned answer width), multiple epochs,
// a late straggler, unknown-query and wrong-length messages, duplicate
// shares, and a malformed (mismatched-size) group must produce the
// same fired results and the same stats whether submitted one share at
// a time or as whole per-source batches.
func TestSubmitShareBatchMatchesPerShare(t *testing.T) {
	params := budget.Params{S: 1, RR: rr.Params{P: 1, Q: 0.5}}
	const nb1, nb2 = 11, 5
	const population = 500
	newAgg := func() *Aggregator {
		cfg := testConfig(t, nb1, params, population)
		cfg.Shards = 4
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q2 := testQuery(t, nb2)
		q2.QID = query.ID{Analyst: "b", Serial: 2}
		if err := a.AddQuery(QuerySpec{Query: q2, Params: params, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	aggV1 := newAgg()
	aggV2 := newAgg()
	qid1 := testQuery(t, nb1).QID.Uint64()
	q2 := testQuery(t, nb2)
	q2.QID = query.ID{Analyst: "b", Serial: 2}
	qid2 := q2.QID.Uint64()

	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))

	// One shared share stream; payloads are read-only in both paths, but
	// each aggregator gets its own deep copies to honor the ownership
	// contract.
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

	arrival := testOrigin

	// Per-share submission, source 0 then source 1 per message.
	var resV1 []Result
	for _, shares := range all {
		for src, sh := range shares {
			res, err := aggV1.SubmitShare(copyShare(sh), src, arrival)
			if err != nil {
				t.Fatal(err)
			}
			resV1 = append(resV1, res...)
		}
	}

	// Batch submission in chunks: all source-0 shares of a chunk, then
	// all source-1 shares — joins complete in the same message order.
	var resV2 []Result
	for lo := 0; lo < len(all); lo += 17 {
		hi := lo + 17
		if hi > len(all) {
			hi = len(all)
		}
		for src := 0; src < 2; src++ {
			var batch []xorcrypt.Share
			for _, shares := range all[lo:hi] {
				batch = append(batch, copyShare(shares[src]))
			}
			res, err := aggV2.SubmitShareBatch(batch, src, arrival)
			if err != nil {
				t.Fatal(err)
			}
			resV2 = append(resV2, res...)
		}
	}

	if !reflect.DeepEqual(resV1, resV2) {
		t.Fatalf("fired results diverge:\nper-share: %+v\nbatch:     %+v", resV1, resV2)
	}
	flushV1, err := aggV1.Flush()
	if err != nil {
		t.Fatal(err)
	}
	flushV2, err := aggV2.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flushV1, flushV2) {
		t.Fatalf("flushed results diverge:\nper-share: %+v\nbatch:     %+v", flushV1, flushV2)
	}
	if s1, s2 := aggV1.Stats(), aggV2.Stats(); s1 != s2 {
		t.Fatalf("stats diverge: per-share %+v, batch %+v", s1, s2)
	}
	if len(resV1) == 0 && len(flushV1) == 0 {
		t.Fatal("test produced no results at all")
	}
	st := aggV1.Stats()
	if st.Late == 0 || st.Duplicates == 0 || st.Malformed == 0 || st.UnknownQuery == 0 || st.LengthMismatch == 0 {
		t.Fatalf("fixture failed to exercise every drop path: %+v", st)
	}
}

// TestSubmitShareBatchEdges: empty batches are no-ops, a bad source is
// rejected with the joiner's arity error, and a single-share batch
// behaves like one SubmitShare.
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
	if got := a.Decoded(); got != 1 {
		t.Fatalf("Decoded = %d after single-share batches", got)
	}
}
