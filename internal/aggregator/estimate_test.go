package aggregator

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/budget"
	"privapprox/internal/rr"
	"privapprox/internal/stats"
	"privapprox/internal/stream"
	"privapprox/internal/xorcrypt"
)

// perBucketReference is the estimator as it stood before the window's
// constants were hoisted, kept as the oracle: the RR correction, the
// binomial moments in closed form and an SRS bound that finds its own
// Student-t critical value, all per bucket. It returns the truthful
// count, the scaled sum and the sampling margin (the randomization
// margin is added by the caller).
func perBucketReference(p rr.Params, inverted bool, yes, n, population int, confidence float64) (truthful, sum, margin float64, err error) {
	if inverted {
		truthful, err = rr.EstimateNo(p, yes, n)
	} else {
		truthful, err = rr.EstimateYes(p, yes, n)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	truthful = clamp(truthful, 0, float64(n))
	kept := int(math.Round(truthful))
	// sampling.BinomialMoments
	mean := float64(kept) / float64(n)
	m2 := float64(kept)*(1-mean)*(1-mean) + float64(n-kept)*mean*mean
	// sampling.EstimateSumFromMoments
	u, uPrime := float64(population), float64(n)
	sum = u / uPrime * float64(kept)
	if n == 1 {
		return truthful, sum, math.Inf(1), nil
	}
	variance := u * u / uPrime * (m2 / float64(n-1)) * (u - uPrime) / u
	tcrit, err := stats.TCritical(1-confidence, n-1)
	if err != nil {
		return 0, 0, 0, err
	}
	return truthful, sum, tcrit * math.Sqrt(variance), nil
}

// TestWindowEstimatorMatchesPerBucketPath: bounding a window once gives,
// bit for bit, what bounding every bucket on its own gave — including
// the one-answer window's +Inf margin and the empty window.
func TestWindowEstimatorMatchesPerBucketPath(t *testing.T) {
	w := stream.Window{Start: testOrigin, End: testOrigin.Add(4 * time.Second)}
	for _, confidence := range []float64{0.9, 0.95, 0.99} {
		for _, inverted := range []bool{false, true} {
			for _, pair := range []rr.Params{{P: 0.9, Q: 0.6}, {P: 0.3, Q: 0.6}} {
				cfg := testConfig(t, 4, budget.Params{S: 0.3, RR: pair}, 1)
				cfg.Query.Inverted = inverted
				cfg.Confidence = confidence
				a, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st := a.states.Load().single
				for _, n := range []int{0, 1, 2, 100, 4800} {
					for _, mult := range []int{1, 10} {
						for _, shed := range []float64{1, 0.5} {
							name := fmt.Sprintf("conf=%v inverted=%t p=%v N=%d U=%dN shed=%v", confidence, inverted, pair.P, n, mult, shed)
							if err := a.SetShed(cfg.Query.QID, 0, shed); err != nil {
								t.Fatal(err)
							}
							acc, err := answer.NewAccumulator(4)
							if err != nil {
								t.Fatal(err)
							}
							if err := acc.AddCounts([]int{0, min(1, n), n / 2, n}, n); err != nil {
								t.Fatal(err)
							}
							res, _, err := a.estimate(st, w, acc, n*mult)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if res.Responses != n || res.Population != n*mult || res.Shed != shed || res.Inverted != inverted || len(res.Buckets) != 4 {
								t.Fatalf("%s: header %+v", name, res)
							}
							for i, b := range res.Buckets {
								if b.Label != cfg.Query.Buckets[i].Label() || b.ObservedYes != acc.Yes(i) || b.Estimate.Confidence != confidence {
									t.Fatalf("%s bucket %d: %+v", name, i, b)
								}
								if n == 0 {
									if b.Truthful != 0 || b.Estimate.Estimate != 0 || !math.IsInf(b.Estimate.Margin, 1) {
										t.Errorf("%s bucket %d: empty window gave %+v", name, i, b)
									}
									continue
								}
								truthful, sum, margin, err := perBucketReference(pair, inverted, b.ObservedYes, n, n*mult, confidence)
								if err != nil {
									t.Fatal(err)
								}
								if truthful > 0 {
									pct := max(1, int(math.Round(truthful/float64(n)*100)))
									loss, ok := st.rrLossCache[pct]
									if !ok {
										t.Fatalf("%s bucket %d: no simulated loss at %d%%", name, i, pct)
									}
									margin += loss * sum
								}
								if n == 1 && !math.IsInf(b.Estimate.Margin, 1) {
									t.Errorf("%s bucket %d: one answer bounded by %v", name, i, b.Estimate.Margin)
								}
								if math.Float64bits(b.Truthful) != math.Float64bits(truthful) ||
									math.Float64bits(b.Estimate.Estimate) != math.Float64bits(sum) ||
									math.Float64bits(b.Estimate.Margin) != math.Float64bits(margin) {
									t.Errorf("%s bucket %d: got truthful %v estimate %v margin %v, per-bucket path %v %v %v",
										name, i, b.Truthful, b.Estimate.Estimate, b.Estimate.Margin, truthful, sum, margin)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestOneParameterGenerationPerWindow swaps the randomization pair
// through AddQuery while windows fire. Every fired window's buckets must
// recompute from ObservedYes under exactly one of the two generations,
// and no memoized loss may outlive a change of pair. Run with -race; it
// needs two CPUs to bite.
func TestOneParameterGenerationPerWindow(t *testing.T) {
	const nbuckets, perEpoch, epochs = 512, 6, 200
	gens := [2]budget.Params{
		{S: 1, RR: rr.Params{P: 0.9, Q: 0.6}},
		{S: 1, RR: rr.Params{P: 0.5, Q: 0.3}},
	}
	cfg := testConfig(t, nbuckets, gens[0], perEpoch)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := xorcrypt.NewSplitter(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every bucket hears yes from a third of a window's answers, so both
	// generations' corrections land strictly inside (0, N) and differ.
	var vecs [3]*answer.BitVector
	for k := range vecs {
		bits := make([]bool, nbuckets)
		for i := range bits {
			bits[i] = (i+k)%3 == 0
		}
		if vecs[k], err = answer.FromBits(bits); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.AddQuery(QuerySpec{Query: cfg.Query, Params: gens[i%2]}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var fired []Result
	for e := uint64(0); e < epochs; e++ {
		for k := 0; k < perEpoch; k++ {
			msg := answer.Message{QueryID: cfg.Query.QID.Uint64(), Epoch: e, Answer: vecs[k%3]}
			raw, err := msg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			shares, err := sp.SplitInto(raw, new(xorcrypt.SplitScratch))
			if err != nil {
				t.Fatal(err)
			}
			for src, sh := range shares {
				res, err := submitOne(a, sh, src)
				if err != nil {
					t.Fatal(err)
				}
				fired = append(fired, res...)
			}
		}
	}
	close(stop)
	swapper.Wait()

	if len(fired) < epochs-2 {
		t.Fatalf("%d windows fired, want at least %d", len(fired), epochs-2)
	}
	under := func(res Result, p rr.Params) bool {
		for _, b := range res.Buckets {
			want, err := rr.EstimateYes(p, b.ObservedYes, res.Responses)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(b.Truthful) != math.Float64bits(clamp(want, 0, float64(res.Responses))) {
				return false
			}
		}
		return true
	}
	var seen [2]int
	for _, res := range fired {
		first, second := under(res, gens[0].RR), under(res, gens[1].RR)
		if first == second {
			t.Fatalf("window %v: buckets corrected under one generation? first %t, second %t", res.Window.Start, first, second)
		}
		if first {
			seen[0]++
		} else {
			seen[1]++
		}
	}
	t.Logf("windows per generation: %v", seen)

	// The memo holds losses simulated under the current pair only: a
	// retune of the sampling fraction keeps it, a new pair empties it.
	if err := a.AddQuery(QuerySpec{Query: cfg.Query, Params: gens[1]}); err != nil {
		t.Fatal(err)
	}
	st := a.states.Load().single
	memoized := func() int {
		st.estMu.Lock()
		defer st.estMu.Unlock()
		return len(st.rrLossCache)
	}
	for _, step := range []struct {
		params budget.Params
		keeps  bool
	}{
		{gens[0], false},
		{budget.Params{S: 0.5, RR: gens[0].RR}, true},
		{gens[1], false},
	} {
		st.estMu.Lock()
		_, err := a.rrLoss(st, st.entries[len(st.entries)-1].params.RR, 0.3, 100)
		st.estMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		before := memoized()
		if err := a.AddQuery(QuerySpec{Query: cfg.Query, Params: step.params}); err != nil {
			t.Fatal(err)
		}
		if after := memoized(); (after == before) != step.keeps || (!step.keeps && after != 0) {
			t.Fatalf("retune to %+v: %d memoized losses, was %d", step.params, after, before)
		}
	}
}
