// Package rappor holds the privacy level of Google's RAPPOR mechanism
// (Erlingsson et al., CCS 2014), the comparison baseline of the
// paper's Fig. 5c. The figure compares ε only, so the package keeps
// only the ε formula of RAPPOR's randomized response and no encoder.
// The paper maps PrivApprox parameters p = 1−f, q = 0.5, h = 1 so both
// systems share the same randomized response process.
package rappor

import (
	"errors"
	"fmt"
	"math"
)

// ErrParams reports invalid RAPPOR parameters.
var ErrParams = errors.New("rappor: invalid parameters")

// EpsilonOneTime is the differential privacy level of RAPPOR's
// randomized response with parameter f for a single report with h hash
// functions:
//
//	ε = h · ln((1 − f/2) / (f/2))
//
// This is the quantity Fig. 5c compares against: with h = 1 it equals
// PrivApprox's ε_dp under the paper's mapping p = 1−f, q = 0.5 at s = 1.
func EpsilonOneTime(f float64, h int) (float64, error) {
	if f <= 0 || f >= 2 || h <= 0 {
		return 0, fmt.Errorf("%w: f=%v h=%d", ErrParams, f, h)
	}
	return float64(h) * math.Log((1-f/2)/(f/2)), nil
}
