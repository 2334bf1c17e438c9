package budget

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"privapprox/internal/codec"
)

// SLOController is the closed-loop overload controller layered above the
// accuracy feedback Controller: where Controller trades privacy budget
// for accuracy between epochs, SLOController trades *accuracy for
// latency* under overload. It tracks the p95 window-fire latency over a
// sliding window of observations and actuates a shed threshold ∈
// [shedMin, 1]: when p95 exceeds the target the threshold tightens
// multiplicatively (shedding answers and spending approximation), and
// when the system is comfortably under target it relaxes additively
// back toward 1 — the classic AIMD shape, conservative on recovery so
// the loop does not oscillate between shedding and collapse.
//
// It is not safe for concurrent use; core.System drives it under its
// controller lock.
type SLOController struct {
	target  float64 // p95 latency target, in the caller's unit
	shedMin float64
	window  int

	shed float64
	obs  []float64 // ring buffer of recent latencies
	next int       // ring write position
	full bool
}

// SLO controller gains: over target multiplies the threshold by
// sloTighten; under half the target it recovers by ×sloRelax, capped at
// 1 (multiplicative recovery is gentle enough here because shed is
// bounded in [shedMin, 1], a span of at most 1 decade in practice).
const (
	sloTighten = 0.7
	sloRelax   = 1.1
)

// NewSLOController builds a controller targeting the given p95 latency,
// shedding no lower than shedMin, over a sliding window of `window`
// observations.
func NewSLOController(targetP95, shedMin float64, window int) (*SLOController, error) {
	if targetP95 <= 0 || math.IsNaN(targetP95) {
		return nil, fmt.Errorf("%w: SLO target %v", errBadBudget, targetP95)
	}
	if !(shedMin > 0) || shedMin > 1 {
		return nil, fmt.Errorf("%w: shed floor %v", errBadBudget, shedMin)
	}
	if window < 1 {
		return nil, fmt.Errorf("%w: window %d", errBadBudget, window)
	}
	return &SLOController{
		target:  targetP95,
		shedMin: shedMin,
		window:  window,
		shed:    1,
		obs:     make([]float64, window),
	}, nil
}

// Shed returns the current shed threshold ∈ [shedMin, 1].
func (c *SLOController) Shed() float64 { return c.shed }

// P95 returns the 95th percentile over the observation window (0 before
// any observation).
func (c *SLOController) P95() float64 {
	n := c.next
	if c.full {
		n = c.window
	}
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, c.obs[:n])
	sort.Float64s(sorted)
	// Nearest-rank p95 (1-indexed rank ⌈0.95·n⌉).
	rank := int(math.Ceil(0.95 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Observe folds in one window-fire latency and returns the (possibly
// adjusted) shed threshold for the next epoch: multiplicative tighten
// when p95 is over target, gentle relax when under half the target.
func (c *SLOController) Observe(latency float64) float64 {
	if latency < 0 || math.IsNaN(latency) {
		latency = 0
	}
	c.obs[c.next] = latency
	c.next++
	if c.next == c.window {
		c.next = 0
		c.full = true
	}
	p95 := c.P95()
	switch {
	case p95 > c.target:
		c.shed = math.Max(c.shedMin, c.shed*sloTighten)
	case p95 < c.target/2:
		c.shed = math.Min(1, c.shed*sloRelax)
	}
	return c.shed
}

// AppendState serializes the controller's mutable state (shed threshold
// and observation ring) for a checkpoint. The static configuration —
// target, floor, window size — is not stored: it is re-supplied on
// restore and validated against the ring length.
func (c *SLOController) AppendState(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.shed))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.next))
	if c.full {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.window))
	for _, v := range c.obs {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// RestoreState reinstalls serialized state produced by AppendState,
// read from d; every failure is d's. The stored window length must match
// this controller's configuration — a mismatched restore would silently
// change the loop's time constant.
func (c *SLOController) RestoreState(d *codec.Reader) error {
	shed, next, full, window := d.F64(), int(d.U32()), d.U8(), int(d.U32())
	switch {
	case d.Err() != nil:
	case window != c.window:
		d.Fail("SLO state window %d, controller configured for %d", window, c.window)
	case next >= window || full > 1:
		d.Fail("SLO state corrupt (next=%d full=%d)", next, full)
	case !(shed > 0) || shed > 1:
		d.Fail("SLO state shed %v", shed)
	}
	for i := range c.obs {
		if c.obs[i] = d.F64(); math.IsNaN(c.obs[i]) || c.obs[i] < 0 {
			d.Fail("SLO state observation %v", c.obs[i])
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	c.shed, c.next, c.full = shed, next, full == 1
	return nil
}
