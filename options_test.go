package faircache

import (
	"errors"
	"reflect"
	"testing"
)

// TestWithDefaultsNil covers the nil-receiver path: every field lands on
// the paper's defaults.
func TestWithDefaultsNil(t *testing.T) {
	var o *Options
	got := o.withDefaults()
	if got.Capacity != 5 {
		t.Errorf("Capacity = %d, want 5", got.Capacity)
	}
	if got.FairnessWeight != 1 {
		t.Errorf("FairnessWeight = %f, want 1", got.FairnessWeight)
	}
	if got.HopLimit != 2 {
		t.Errorf("HopLimit = %d, want 2", got.HopLimit)
	}
	if got.Capacities != nil || got.BatteryLevels != nil {
		t.Errorf("nil options produced non-nil slices: %+v", got)
	}
}

// TestWithDefaultsCapacityFallback covers the zero- and negative-capacity
// branches: both fall back to the paper's 5.
func TestWithDefaultsCapacityFallback(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		got := (&Options{Capacity: capacity}).withDefaults()
		if got.Capacity != 5 {
			t.Errorf("Capacity %d -> %d, want fallback 5", capacity, got.Capacity)
		}
	}
	got := (&Options{Capacity: 9}).withDefaults()
	if got.Capacity != 9 {
		t.Errorf("Capacity 9 -> %d, want 9 kept", got.Capacity)
	}
}

// TestWithDefaultsFairnessWeightClamp covers the FairnessWeight branches:
// zero selects the default 1, negative requests the contention-only
// ablation and is clamped to 0, positive passes through.
func TestWithDefaultsFairnessWeightClamp(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0, 1},
		{-1, 0},
		{-0.5, 0},
		{2.5, 2.5},
	}
	for _, tc := range cases {
		got := (&Options{FairnessWeight: tc.in}).withDefaults()
		if got.FairnessWeight != tc.want {
			t.Errorf("FairnessWeight %f -> %f, want %f", tc.in, got.FairnessWeight, tc.want)
		}
	}
}

// TestWithDefaultsCapacitiesPassthrough: heterogeneous capacities pass
// through untouched and coexist with the scalar default.
func TestWithDefaultsCapacitiesPassthrough(t *testing.T) {
	caps := []int{1, 2, 3}
	got := (&Options{Capacities: caps}).withDefaults()
	if !reflect.DeepEqual(got.Capacities, caps) {
		t.Errorf("Capacities = %v, want %v", got.Capacities, caps)
	}
	if got.Capacity != 5 {
		t.Errorf("scalar Capacity = %d, want default 5 alongside Capacities", got.Capacity)
	}
}

// TestWithDefaultsMiscBranches covers the remaining conditional copies.
func TestWithDefaultsMiscBranches(t *testing.T) {
	got := (&Options{HopLimit: -1}).withDefaults()
	if got.HopLimit != 2 {
		t.Errorf("HopLimit -1 -> %d, want default 2", got.HopLimit)
	}
	got = (&Options{HopLimit: 4}).withDefaults()
	if got.HopLimit != 4 {
		t.Errorf("HopLimit 4 -> %d, want 4", got.HopLimit)
	}
	got = (&Options{BatteryWeight: -2}).withDefaults()
	if got.BatteryWeight != 0 {
		t.Errorf("BatteryWeight -2 -> %f, want clamp to 0 (disabled)", got.BatteryWeight)
	}
	got = (&Options{ChunkTTL: -1, GreedyConFL: true, ImproveSteiner: true}).withDefaults()
	if got.ChunkTTL != -1 || !got.GreedyConFL || !got.ImproveSteiner {
		t.Errorf("passthrough fields lost: %+v", got)
	}
}

// TestTopologyHopDistances covers the façade's BFS export hook.
func TestTopologyHopDistances(t *testing.T) {
	topo, err := Grid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := topo.HopDistances(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 1, 2, 3} // row-major 2x3 grid from corner 0
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("HopDistances(0) = %v, want %v", dist, want)
	}
	if _, err := topo.HopDistances(-1); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("HopDistances(-1) error = %v, want ErrBadArgument", err)
	}
	if _, err := topo.HopDistances(6); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("HopDistances(6) error = %v, want ErrBadArgument", err)
	}
}
