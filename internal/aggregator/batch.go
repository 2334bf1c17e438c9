package aggregator

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"privapprox/internal/answer"
	"privapprox/internal/rr"
	"privapprox/internal/sampling"
	"privapprox/internal/seeded"
	"privapprox/internal/stats"
	"privapprox/internal/stream"
)

// AnswerSource iterates stored randomized answers for historical
// analytics — histstore.Store.Scan adapts to it.
type AnswerSource func(fn func(ts time.Time, payload []byte) error) error

// BatchResult is a historical query result over a time range.
type BatchResult struct {
	Result
	// SecondSampling is the extra aggregator-side sampling fraction
	// applied to fit the batch computation into its budget (§3.3.1).
	SecondSampling float64
	// Scanned counts stored answers examined; Kept counts those that
	// survived the second sampling round.
	Scanned, Kept int
}

// BatchAnalyze replays stored responses through the estimator with an
// additional round of sampling (paper §3.3.1: "we can perform an
// additional round of sampling at the aggregator to ensure that the
// batch analytics computation remains within the query budget").
// secondSampling ∈ (0, 1] is the keep probability; the estimator
// compensates by treating kept answers as an SRS of the stored set.
func BatchAnalyze(cfg Config, src AnswerSource, from, to time.Time, secondSampling float64, rng *rand.Rand) (BatchResult, error) {
	if secondSampling <= 0 || secondSampling > 1 || math.IsNaN(secondSampling) {
		return BatchResult{}, fmt.Errorf("%w: second sampling %v", errConfig, secondSampling)
	}
	agg, err := New(cfg)
	if err != nil {
		return BatchResult{}, err
	}
	st := agg.states.Load().single
	if rng == nil {
		rng = seeded.New(rand.Int63())
	}
	nbuckets := len(cfg.Query.Buckets)
	acc, err := answer.NewAccumulator(nbuckets)
	if err != nil {
		return BatchResult{}, err
	}
	out := BatchResult{SecondSampling: secondSampling}
	epochs := make(map[uint64]struct{})
	err = src(func(ts time.Time, payload []byte) error {
		if ts.Before(from) || !ts.Before(to) {
			return nil
		}
		out.Scanned++
		if rng.Float64() >= secondSampling {
			return nil
		}
		var msg answer.Message
		if err := msg.UnmarshalBinary(payload); err != nil {
			agg.malformed.Add(1)
			return nil
		}
		if msg.QueryID != st.qidWire || msg.Answer.Len() != nbuckets {
			agg.malformed.Add(1)
			return nil
		}
		epochs[msg.Epoch] = struct{}{}
		out.Kept++
		return acc.Add(msg.Answer)
	})
	if err != nil {
		return BatchResult{}, err
	}
	// The answer-slot population over the range: one slot per client per
	// epoch that produced data.
	effPop := cfg.Population * len(epochs)
	if effPop == 0 {
		effPop = cfg.Population
	}
	res, _, err := agg.estimate(st, stream.Window{Start: from, End: to}, acc, effPop)
	if err != nil {
		return BatchResult{}, err
	}
	// Widen each bucket's interval for the second sampling round: the
	// kept set is an SRS of the scanned set, so its own margin adds on.
	if out.Kept > 0 && out.Kept < out.Scanned {
		srs, err := sampling.NewSRS(out.Kept, out.Scanned, agg.cfg.Confidence)
		if err != nil {
			return BatchResult{}, err
		}
		// Scale the stored-set margin up to the population.
		scale := float64(agg.cfg.Population) / float64(out.Scanned)
		for i := range res.Buckets {
			b := &res.Buckets[i]
			second, err := srs.Count(int(math.Round(b.Truthful)))
			if err != nil {
				return BatchResult{}, err
			}
			b.Estimate = stats.ConfidenceInterval{
				Estimate:   b.Estimate.Estimate,
				Margin:     b.Estimate.Margin + second.Margin*scale,
				Confidence: b.Estimate.Confidence,
			}
		}
	}
	out.Result = res
	return out, nil
}

// estimateYesForWindow applies the paper's Eq. 5 correction (or its
// inverted form) to one bucket's raw counts: the first step of every
// estimate.
func estimateYesForWindow(params rr.Params, inverted bool, observedYes, n int) (float64, error) {
	if inverted {
		return rr.EstimateNo(params, observedYes, n)
	}
	return rr.EstimateYes(params, observedYes, n)
}
