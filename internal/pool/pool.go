// Package pool provides the bounded worker pool behind the parallel solve
// engine. A Pool owns a fixed set of worker goroutines (GOMAXPROCS-sized by
// default) that fan independent index ranges out across cores; work items
// are identified by a dense index and must write only to their own output
// slot, which makes every parallel result byte-identical to the sequential
// loop regardless of scheduling.
//
// A Pool with one worker runs everything inline on the calling goroutine —
// the sequential reference path — so callers never need two code paths.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the fan-out width used when a caller asks for 0
// workers: the scheduler's GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize maps a caller-facing worker count onto an effective one:
// 0 means DefaultWorkers, negative values force the sequential path.
func Normalize(workers int) int {
	if workers == 0 {
		return DefaultWorkers()
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// Pool is a fixed-size worker pool. The zero value and nil are valid and
// behave like a single-worker (inline, sequential) pool. Pools with more
// than one worker own goroutines and must be released with Close.
type Pool struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
	once    sync.Once
}

// New returns a pool of the given effective width (see Normalize: 0 means
// GOMAXPROCS, negative means 1). Widths above one spawn that many worker
// goroutines, which live until Close.
func New(workers int) *Pool {
	p := &Pool{workers: Normalize(workers)}
	if p.workers > 1 {
		p.tasks = make(chan func())
		p.wg.Add(p.workers)
		for i := 0; i < p.workers; i++ {
			go func() {
				defer p.wg.Done()
				for f := range p.tasks {
					f()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool's effective width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close stops the worker goroutines. It is safe to call more than once and
// on nil or inline pools. ForEach must not be running or called afterwards.
func (p *Pool) Close() {
	if p == nil || p.tasks == nil {
		return
	}
	p.once.Do(func() {
		close(p.tasks)
		p.wg.Wait()
	})
}

// ForEachErr is ForEach for fallible work: fn may return an error, and the
// first one (by lowest index, so the choice is deterministic) is returned
// after all started indexes finish. A failing index cancels the derived
// context seen by ctx-checking workers, so remaining indexes are skipped,
// but fn itself is responsible for observing ctx if an individual item is
// long-running. The slot-write contract of ForEach applies unchanged.
func (p *Pool) ForEachErr(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	ferr := p.ForEach(inner, n, func(_, i int) {
		if errs[i] = fn(i); errs[i] != nil {
			cancel()
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ferr != nil {
		// The derived context only cancels after an error slot was written,
		// so surviving to here means the parent context itself ended.
		return ctx.Err()
	}
	return nil
}

// ForEach runs fn(w, i) for every i in [0, n), spread over the pool's
// workers. fn must write only to state owned by index i; under that
// contract the result is identical to the sequential loop
// `for i := 0; i < n; i++`.
//
// w is the executing worker's slot index (0 ≤ w < Workers()); within one
// call each concurrently running fn sees a distinct w, so callers can
// route a per-worker scratch arena through it without locking. The
// index-to-worker assignment is scheduling-dependent: fn must use w only
// to pick reusable storage, never to influence results. Callers with no
// per-worker storage ignore it.
//
// Cancelling ctx stops workers from picking up further indexes and makes
// ForEach return ctx.Err(); indexes already started still finish, but the
// full range may not have run — callers must discard partial output on a
// non-nil return.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(w, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}

	var next atomic.Int64
	var done sync.WaitGroup
	spawn := p.workers
	if spawn > n {
		spawn = n
	}
	done.Add(spawn)
	for w := 0; w < spawn; w++ {
		w := w
		p.tasks <- func() {
			defer done.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}
	}
	done.Wait()
	return ctx.Err()
}
