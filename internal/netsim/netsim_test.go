package netsim

import (
	"testing"
)

func TestCalibrateAndValidate(t *testing.T) {
	m, err := Calibrate(100000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Calibrate(0, 8); err == nil {
		t.Error("expected error for zero rate")
	}
	bad := m
	bad.SerialFraction = 1
	if err := bad.validate(); err == nil {
		t.Error("expected error for serial fraction 1")
	}
	bad = m
	bad.ScaleOutEfficiency = 0
	if err := bad.validate(); err == nil {
		t.Error("expected error for zero efficiency")
	}
}

func TestScaleUpMonotoneSublinear(t *testing.T) {
	m, _ := Calibrate(100000, 8)
	prev := 0.0
	for _, cores := range []int{1, 2, 4, 8} {
		tp, err := m.ScaleUp(cores)
		if err != nil {
			t.Fatal(err)
		}
		if tp <= prev {
			t.Errorf("throughput not increasing at %d cores", cores)
		}
		if tp > float64(cores)*m.PerCoreOpsPerSec+1e-9 {
			t.Errorf("superlinear speedup at %d cores: %v", cores, tp)
		}
		prev = tp
	}
	one, _ := m.ScaleUp(1)
	if one != m.PerCoreOpsPerSec {
		t.Errorf("1 core = %v, want per-core rate", one)
	}
	if _, err := m.ScaleUp(0); err == nil {
		t.Error("expected error for zero cores")
	}
}

func TestScaleOutMonotoneSublinear(t *testing.T) {
	m, _ := Calibrate(100000, 8)
	nodeRate, _ := m.ScaleUp(8)
	prev := 0.0
	for _, nodes := range []int{1, 2, 4, 10, 20} {
		tp, err := m.ScaleOut(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if tp <= prev {
			t.Errorf("throughput not increasing at %d nodes", nodes)
		}
		if tp > float64(nodes)*nodeRate+1e-6 {
			t.Errorf("superlinear scale-out at %d nodes", nodes)
		}
		prev = tp
	}
	one, _ := m.ScaleOut(1)
	if one != nodeRate {
		t.Errorf("1 node = %v, want node rate %v", one, nodeRate)
	}
	if _, err := m.ScaleOut(0); err == nil {
		t.Error("expected error for zero nodes")
	}
}
