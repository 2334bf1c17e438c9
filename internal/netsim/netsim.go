// Package netsim models cluster scaling for the paper's Fig. 8: the
// evaluation ran proxies and the aggregator on a 44-node cluster we do
// not have, so scale-up is measured on real cores and scale-out is
// projected with a calibrated cluster model (see DESIGN.md §2). The
// model combines Amdahl-style intra-node serialization with a per-node
// coordination efficiency for scale-out — the standard first-order
// shape of shared-nothing stream systems.
package netsim

import (
	"errors"
	"fmt"
	"math"
)

// errModel reports invalid model parameters.
var errModel = errors.New("netsim: invalid model")

// ClusterModel projects throughput from a single measured core.
type ClusterModel struct {
	// PerCoreOpsPerSec is the calibrated single-core throughput.
	PerCoreOpsPerSec float64
	// SerialFraction is the Amdahl serial share within one node
	// (lock/allocator contention); 0.05 means 5% serialized.
	SerialFraction float64
	// ScaleOutEfficiency is the per-added-node multiplicative efficiency
	// (network partitioning and coordination overhead); 0.97 means each
	// added node delivers 97% of the previous marginal node.
	ScaleOutEfficiency float64
	// CoresPerNode for node-level projections.
	CoresPerNode int
}

// validate checks ranges.
func (m ClusterModel) validate() error {
	if m.PerCoreOpsPerSec <= 0 || math.IsNaN(m.PerCoreOpsPerSec) {
		return fmt.Errorf("%w: per-core rate %v", errModel, m.PerCoreOpsPerSec)
	}
	if m.SerialFraction < 0 || m.SerialFraction >= 1 {
		return fmt.Errorf("%w: serial fraction %v", errModel, m.SerialFraction)
	}
	if m.ScaleOutEfficiency <= 0 || m.ScaleOutEfficiency > 1 {
		return fmt.Errorf("%w: efficiency %v", errModel, m.ScaleOutEfficiency)
	}
	if m.CoresPerNode <= 0 {
		return fmt.Errorf("%w: %d cores per node", errModel, m.CoresPerNode)
	}
	return nil
}

// ScaleUp returns the projected throughput of one node using the given
// number of cores (Amdahl's law).
func (m ClusterModel) ScaleUp(cores int) (float64, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	if cores <= 0 {
		return 0, fmt.Errorf("%w: %d cores", errModel, cores)
	}
	speedup := float64(cores) / (1 + m.SerialFraction*float64(cores-1))
	return m.PerCoreOpsPerSec * speedup, nil
}

// ScaleOut returns the projected cluster throughput of the given number
// of full nodes: each added node contributes the full-node rate times a
// geometric coordination efficiency.
func (m ClusterModel) ScaleOut(nodes int) (float64, error) {
	if nodes <= 0 {
		return 0, fmt.Errorf("%w: %d nodes", errModel, nodes)
	}
	nodeRate, err := m.ScaleUp(m.CoresPerNode)
	if err != nil {
		return 0, err
	}
	total := 0.0
	marginal := nodeRate
	for i := 0; i < nodes; i++ {
		total += marginal
		marginal *= m.ScaleOutEfficiency
	}
	return total, nil
}

// Calibrate builds a model from a measured single-core rate with the
// default shape parameters used by the Fig. 8 harness.
func Calibrate(perCoreOpsPerSec float64, coresPerNode int) (ClusterModel, error) {
	m := ClusterModel{
		PerCoreOpsPerSec:   perCoreOpsPerSec,
		SerialFraction:     0.05,
		ScaleOutEfficiency: 0.97,
		CoresPerNode:       coresPerNode,
	}
	if err := m.validate(); err != nil {
		return ClusterModel{}, err
	}
	return m, nil
}
