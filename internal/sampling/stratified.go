package sampling

import (
	"fmt"
	"math"

	"privapprox/internal/stats"
)

// Stratum is one homogeneous sub-population in stratified sampling: its
// total size and the sampled answers drawn from it. The paper's technical
// report extends the client-side SRS with stratification to handle data
// streams whose distributions differ across client groups.
type Stratum struct {
	Name       string
	Population int
	Sample     []float64
}

// StratifiedEstimate is the combined population-sum estimate over all
// strata, with the per-stratum breakdown retained for inspection.
type StratifiedEstimate struct {
	Sum        float64
	Margin     float64
	Confidence float64
	PerStratum []SumEstimate
}

// EstimateStratifiedSum combines the per-stratum SRS estimators:
// τ̂ = Σ_h τ̂_h with V̂ar(τ̂) = Σ_h V̂ar(τ̂_h). The critical value uses
// Σ_h (n_h − 1) degrees of freedom, the standard conservative choice.
func EstimateStratifiedSum(strata []Stratum, confidence float64) (StratifiedEstimate, error) {
	if len(strata) == 0 {
		return StratifiedEstimate{}, ErrEmptySample
	}
	if confidence <= 0 || confidence >= 1 {
		return StratifiedEstimate{}, fmt.Errorf("%w: %v", ErrBadConfidence, confidence)
	}
	out := StratifiedEstimate{Confidence: confidence}
	var varianceSum float64
	df := 0
	for _, st := range strata {
		if len(st.Sample) == 0 {
			return StratifiedEstimate{}, fmt.Errorf("%w: stratum %q", ErrEmptySample, st.Name)
		}
		est, err := EstimateSum(st.Sample, st.Population, confidence)
		if err != nil {
			return StratifiedEstimate{}, fmt.Errorf("stratum %q: %w", st.Name, err)
		}
		out.Sum += est.Sum
		out.PerStratum = append(out.PerStratum, est)
		// Recover the variance from the stratum's margin and its own
		// critical value so we can re-combine with pooled df.
		v, err := varianceOf(st, est)
		if err != nil {
			return StratifiedEstimate{}, err
		}
		varianceSum += v
		if n := len(st.Sample); n > 1 {
			df += n - 1
		}
	}
	if df < 1 {
		out.Margin = math.Inf(1)
		return out, nil
	}
	tcrit, err := stats.TCritical(1-confidence, df)
	if err != nil {
		return StratifiedEstimate{}, err
	}
	out.Margin = tcrit * math.Sqrt(varianceSum)
	return out, nil
}

// varianceOf recomputes the stratum estimator variance from first
// principles (Eq. 4 applied within the stratum).
func varianceOf(st Stratum, est SumEstimate) (float64, error) {
	n := len(st.Sample)
	if n < 2 {
		return 0, nil
	}
	u := float64(st.Population)
	uPrime := float64(n)
	return u * u / uPrime * stats.Variance(st.Sample) * (u - uPrime) / u, nil
}

// ProportionalAllocation splits a total sample budget across strata in
// proportion to their population sizes, guaranteeing at least one sample
// per stratum when the budget allows. It returns the per-stratum sample
// sizes in input order.
func ProportionalAllocation(populations []int, budget int) ([]int, error) {
	if len(populations) == 0 {
		return nil, ErrEmptySample
	}
	if budget < len(populations) {
		return nil, fmt.Errorf("sampling: budget %d below one sample per stratum (%d strata)", budget, len(populations))
	}
	total := 0
	for i, p := range populations {
		if p <= 0 {
			return nil, fmt.Errorf("sampling: stratum %d has population %d", i, p)
		}
		total += p
	}
	out := make([]int, len(populations))
	assigned := 0
	for i, p := range populations {
		out[i] = budget * p / total
		if out[i] == 0 {
			out[i] = 1
		}
		if out[i] > p {
			out[i] = p
		}
		assigned += out[i]
	}
	// Distribute any remainder to the largest strata that still have room.
	for assigned < budget {
		best := -1
		for i, p := range populations {
			if out[i] >= p {
				continue
			}
			if best == -1 || p-out[i] > populations[best]-out[best] {
				best = i
			}
		}
		if best == -1 {
			break // every stratum fully sampled
		}
		out[best]++
		assigned++
	}
	return out, nil
}
