package faircache_test

import (
	"context"
	"runtime"
	"testing"

	faircache "repro"
)

// runAlg runs one positional solve through the Solver API — the shim the
// removed deprecated wrappers (Approximate, Distribute, ...) used to
// provide. Tests keep their terse call shape; the library keeps a single
// public entry point.
func runAlg(alg faircache.Algorithm, t *faircache.Topology, producer, chunks int, opts *faircache.Options) (*faircache.Result, error) {
	s, err := faircache.NewSolver(t)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), faircache.Request{
		Producer:  producer,
		Chunks:    chunks,
		Algorithm: alg,
		Options:   opts,
	})
}

// setWidth runs the rest of the test at GOMAXPROCS n, the width every
// solve, publication and adaptation sizes its worker pool from, and
// restores the previous value when the test ends.
func setWidth(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
