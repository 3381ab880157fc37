package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	faircache "repro"
)

// Snapshot is the immutable committed state of one registered topology.
// Workers build a fresh Snapshot after every mutation and swap it in
// atomically; readers load the pointer and never see a half-applied
// mutation. A Snapshot must never be modified after it is stored.
type Snapshot struct {
	// Version increases by one per committed mutation, starting at 1 for
	// the registration commit.
	Version int `json:"version"`
	// Source records what committed this snapshot: "register",
	// "solve:<algorithm>" or "publish".
	Source string `json:"source"`
	// Producer is the topology's producer node.
	Producer int `json:"producer"`
	// Chunks is the number of known chunk ids; ids in [0, Chunks) are
	// valid lookup targets even when their copies have expired (the
	// producer always serves them).
	Chunks int `json:"chunks"`
	// Holders maps each live chunk id to the nodes caching it.
	Holders map[int][]int `json:"holders"`
	// Counts is the per-node cached-chunk count.
	Counts []int `json:"counts"`
	// Clock is the online system's publication count.
	Clock int `json:"clock"`
	// Solves and Publications count committed mutations by kind.
	Solves       int `json:"solves"`
	Publications int `json:"publications"`
}

// command is one serialized mutation handed to a topology's worker. apply
// receives the request context so the engine underneath can abort
// mid-solve when the client disconnects or the deadline passes — not just
// have its finished result discarded.
type command struct {
	ctx   context.Context
	apply func(ctx context.Context) (any, error)
	reply chan cmdResult
}

type cmdResult struct {
	value any
	err   error
}

// topology is one registered topology: an immutable network, a
// single-writer worker goroutine that owns all mutable state, and an
// atomically swapped snapshot that read endpoints consume lock-free.
type topology struct {
	id       string
	kind     string
	topo     *faircache.Topology
	producer int
	capacity int

	cmds     chan *command
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
	snap     atomic.Pointer[Snapshot]
	solver   *faircache.Solver

	// queued counts mutations submitted to the worker and not yet
	// answered — the worker queue depth the metrics gauge sums.
	queued atomic.Int64

	// demand is the last demand-subsystem snapshot, stored by the worker
	// after each requests/adapt mutation and read lock-free by the list
	// and get handlers. Nil until the first requests batch.
	demand atomic.Pointer[DemandInfo]

	// Worker-owned state below: only the run() goroutine touches it.
	online *faircache.OnlineSystem
	// adaptive is the topology's demand subsystem, built lazily by the
	// first requests batch. In-memory only: restarts drop it.
	adaptive       *faircache.AdaptiveSystem
	demandCapacity int
	// memo serves repeated solve requests; it starts empty, so a
	// recovered topology's first solve of each request runs the engine.
	memo solveMemo
}

// newTopology builds a topology and starts its worker. snap restores
// recovered state; a nil snap is a fresh registration (version 1, empty
// register snapshot).
func newTopology(id, kind string, topo *faircache.Topology, producer, capacity int, online *faircache.OnlineSystem, snap *Snapshot) *topology {
	// NewSolver only fails on a nil topology, which every caller excludes.
	solver, _ := faircache.NewSolver(topo)
	tp := &topology{
		id:       id,
		kind:     kind,
		topo:     topo,
		producer: producer,
		capacity: capacity,
		cmds:     make(chan *command),
		quit:     make(chan struct{}),
		online:   online,
		solver:   solver,
		memo:     newSolveMemo(memoBudget),
	}
	if snap == nil {
		snap = &Snapshot{
			Version:  1,
			Source:   "register",
			Producer: producer,
			Holders:  map[int][]int{},
			Counts:   make([]int, topo.NumNodes()),
		}
	}
	tp.snap.Store(snap)
	tp.wg.Add(1)
	go tp.run()
	return tp
}

// run is the topology's single-writer loop: mutations are applied one at
// a time, each ending in an atomic snapshot swap. Requests whose context
// expired while queued are skipped without running.
func (tp *topology) run() {
	defer tp.wg.Done()
	for {
		select {
		case <-tp.quit:
			return
		case cmd := <-tp.cmds:
			// A request that expired while queued is skipped outright —
			// starting a solve whose client is already gone is pure waste.
			if err := cmd.ctx.Err(); err != nil {
				cmd.reply <- cmdResult{err: fmt.Errorf("request expired before the %s worker ran it: %w", tp.id, err)}
				continue
			}
			v, err := cmd.apply(cmd.ctx)
			cmd.reply <- cmdResult{value: v, err: err}
		}
	}
}

// do submits a mutation to the worker and waits for its result, the end
// of the request's context, or topology shutdown — whichever comes
// first. An ended context's error is wrapped, so asError answers 499
// canceled for a caller that hung up and 504 timeout for a passed
// deadline. The reply channel is buffered so an abandoned command never
// blocks the worker.
func (tp *topology) do(ctx context.Context, apply func(ctx context.Context) (any, error)) (any, error) {
	tp.queued.Add(1)
	defer tp.queued.Add(-1)
	cmd := &command{ctx: ctx, apply: apply, reply: make(chan cmdResult, 1)}
	select {
	case tp.cmds <- cmd:
	case <-tp.quit:
		return nil, gonef("topology %s is shut down", tp.id)
	case <-ctx.Done():
		return nil, fmt.Errorf("request expired while waiting for the %s worker: %w", tp.id, ctx.Err())
	}
	select {
	case res := <-cmd.reply:
		return res.value, res.err
	case <-tp.quit:
		return nil, gonef("topology %s shut down mid-request", tp.id)
	case <-ctx.Done():
		return nil, fmt.Errorf("request ended while the %s worker was busy: %w", tp.id, ctx.Err())
	}
}

// commit makes snap the topology's next version. The caller fills what
// the mutation decided: Source, Chunks, Holders, Counts and, for a
// publish, Clock. commit sets the version, producer and the solve and
// publication totals from the committed snapshot (count is a publish's
// batch size, 0 otherwise), carries the clock forward for every other
// type, and logs a record of type typ before it swaps snap in under the
// journal's lock, so the record carries the absolute committed state.
// Worker goroutine only.
func (s *Server) commit(ctx context.Context, tp *topology, typ string, count int, snap *Snapshot) error {
	prev := tp.snap.Load()
	snap.Version = prev.Version + 1
	snap.Producer = tp.producer
	snap.Solves = prev.Solves
	snap.Publications = prev.Publications + count
	if typ == WALSolve {
		snap.Solves++
	}
	if typ != WALPublish {
		snap.Clock = prev.Clock
	}
	return s.journal.append(ctx, &WALRecord{Type: typ, ID: tp.id, Snap: snap, Count: count},
		func() { tp.snap.Store(snap) })
}

// stop signals the worker to exit after its current mutation. Safe to
// call more than once and from any goroutine.
func (tp *topology) stop() {
	tp.quitOnce.Do(func() { close(tp.quit) })
}
