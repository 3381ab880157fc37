package costmodel

import (
	"context"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
)

// countingCtx returns nil from Err for the first `allow` calls, then
// context.Canceled — deterministic mid-ForEach cancellation.
type countingCtx struct {
	calls, allow int
}

func (c *countingCtx) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}             { return nil }
func (c *countingCtx) Value(key interface{}) interface{} { return nil }
func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.allow {
		return context.Canceled
	}
	return nil
}

func TestReproCancelMidRepairThenRetry(t *testing.T) {
	g := gridGraph(t, 5, 5) // helper from the package's own tests
	st := cache.NewState(g.NumNodes(), 4)
	m, err := New(g, graph.NewPathCache(g), st, Options{FairnessWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RefreshCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(0, 7); err != nil {
		t.Fatal(err)
	}
	// Cancel after 3 rows of the sweep have run.
	cc := &countingCtx{allow: 3}
	if err := m.RefreshCtx(cc, nil); err == nil {
		t.Fatal("expected cancellation error")
	}
	// Retry with a live context, as the online system does on the next publish.
	if err := m.RefreshCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(context.Background(), nil); err != nil {
		t.Fatalf("model corrupt after cancelled repair + retry: %v", err)
	}
}
