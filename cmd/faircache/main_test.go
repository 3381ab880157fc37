package main

import (
	"context"
	"errors"
	"testing"

	faircache "repro"
)

func TestBuildTopology(t *testing.T) {
	topo, err := buildTopology("6x6", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 36 {
		t.Errorf("grid nodes = %d, want 36", topo.NumNodes())
	}
	topo, err = buildTopology("ignored", 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 30 {
		t.Errorf("random nodes = %d, want 30", topo.NumNodes())
	}
	for _, bad := range []string{"6", "ax6", "6xb", ""} {
		if _, err := buildTopology(bad, 0, 1); err == nil {
			t.Errorf("grid spec %q: want error", bad)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if err := run(context.Background(), "nope", "3x3", 0, 1, -1, 1, 5, 2, 0, 0, false); err == nil {
		t.Error("unknown algorithm: want error")
	}
}

func TestRunSmokeTextAndJSON(t *testing.T) {
	// Output goes to stdout; only success/failure is asserted here.
	if err := run(context.Background(), "appx", "4x4", 0, 1, -1, 2, 5, 2, 0, 0, false); err != nil {
		t.Errorf("text run: %v", err)
	}
	if err := run(context.Background(), "dist", "4x4", 0, 1, -1, 1, 5, 2, 0, 0, true); err != nil {
		t.Errorf("json run: %v", err)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, "appx", "4x4", 0, 1, -1, 2, 5, 2, 0, 0, false)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
}

// TestParseAlgorithm: the CLI resolves -alg exactly as the library and
// the daemon do, long-form aliases included.
func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]faircache.Algorithm{
		"BRTF":        faircache.AlgorithmOptimal,
		"exact":       faircache.AlgorithmOptimal,
		"approximate": faircache.AlgorithmApprox,
	} {
		if err := run(context.Background(), name, "3x3", 0, 1, -1, 1, 5, 2, 0, 0, true); err != nil {
			t.Errorf("-alg %q: %v", name, err)
		}
		if alg, err := faircache.ParseAlgorithm(name); err != nil || alg != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v, want %v", name, alg, err, want)
		}
	}
}
