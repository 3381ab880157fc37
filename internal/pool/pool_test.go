package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestNormalize(t *testing.T) {
	if got := Normalize(0); got != DefaultWorkers() {
		t.Fatalf("Normalize(0) = %d, want GOMAXPROCS %d", got, DefaultWorkers())
	}
	if got := Normalize(-3); got != 1 {
		t.Fatalf("Normalize(-3) = %d, want 1", got)
	}
	if got := Normalize(7); got != 7 {
		t.Fatalf("Normalize(7) = %d, want 7", got)
	}
}

func TestForEachCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := New(workers)
		const n = 1000
		hits := make([]int32, n)
		if err := p.ForEach(context.Background(), n, func(w, i int) {
			if w < 0 || w >= p.Workers() {
				t.Errorf("workers=%d: index %d ran on worker slot %d", workers, i, w)
			}
			atomic.AddInt32(&hits[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: ForEach: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
		p.Close()
	}
}

func TestForEachNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
	sum := 0
	if err := p.ForEach(context.Background(), 5, func(_, i int) { sum += i }); err != nil {
		t.Fatalf("ForEach on nil pool: %v", err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
	p.Close() // must not panic
}

func TestForEachDeterministicSlots(t *testing.T) {
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	p := New(8)
	defer p.Close()
	got := make([]int, n)
	if err := p.ForEach(context.Background(), n, func(_, i int) { got[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestForEachCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(4)
	defer p.Close()
	ran := atomic.Int32{}
	err := p.ForEach(ctx, 100, func(_, i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// Inline path with a pre-cancelled ctx must not run anything.
	var inline *Pool
	inRan := 0
	if err := inline.ForEach(ctx, 100, func(_, i int) { inRan++ }); !errors.Is(err, context.Canceled) {
		t.Fatalf("inline ForEach: err = %v, want context.Canceled", err)
	}
	if inRan != 0 {
		t.Fatalf("inline ForEach ran %d items after cancel, want 0", inRan)
	}
}

func TestForEachCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(2)
	defer p.Close()
	ran := atomic.Int32{}
	err := p.ForEach(ctx, 10000, func(_, i int) {
		if ran.Add(1) == 50 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 10000 {
		t.Fatalf("cancel mid-run still executed the whole range (%d items)", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(3)
	p.Close()
	p.Close()
	p = New(1)
	p.Close() // inline pool: no goroutines, still fine
}

func TestForEachZeroItems(t *testing.T) {
	p := New(4)
	defer p.Close()
	if err := p.ForEach(context.Background(), 0, func(_, i int) { t.Fatal("ran") }); err != nil {
		t.Fatal(err)
	}
}
