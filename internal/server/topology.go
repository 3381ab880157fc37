package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	faircache "repro"

	"repro/internal/trace"
)

// Snapshot is the immutable committed state of one registered topology.
// Every mutation builds a fresh Snapshot and swaps it in atomically;
// readers load the pointer and never see a half-applied mutation. A
// Snapshot must never be modified after it is stored.
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

// topology is one registered topology: an immutable network, mutable
// state that its mutations touch one at a time under the topology's
// lock, and an atomically swapped snapshot that read endpoints consume
// lock-free.
type topology struct {
	id       string
	kind     string
	topo     *faircache.Topology
	producer int
	capacity int

	// lock is a one-slot channel: a mutation holds the topology's lock
	// while it fills the slot. Like a mutex, the channel operations order
	// every access to the state the lock guards (online, adaptive,
	// demandCapacity and memo) for the race detector.
	lock     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
	snap     atomic.Pointer[Snapshot]
	solver   *faircache.Solver

	// queued counts mutations waiting for or holding the lock — the
	// queue depth the metrics gauge sums.
	queued atomic.Int64

	// demand is the last demand-subsystem snapshot, stored after each
	// requests/adapt mutation and read lock-free by the list and get
	// handlers. Nil until the first requests batch.
	demand atomic.Pointer[DemandInfo]

	// Under the topology's lock only.
	online *faircache.OnlineSystem
	// adaptive is the topology's demand subsystem, built lazily by the
	// first requests batch. In-memory only: restarts drop it.
	adaptive       *faircache.AdaptiveSystem
	demandCapacity int
	// memo serves repeated solve requests; it starts empty, so a
	// recovered topology's first solve of each request runs the engine.
	memo solveMemo
}

// newTopology builds a topology. snap restores recovered state; a nil
// snap is a fresh registration (version 1, empty register snapshot).
func newTopology(id, kind string, topo *faircache.Topology, producer, capacity int, online *faircache.OnlineSystem, snap *Snapshot) *topology {
	// NewSolver only fails on a nil topology, which every caller excludes.
	solver, _ := faircache.NewSolver(topo)
	tp := &topology{
		id:       id,
		kind:     kind,
		topo:     topo,
		producer: producer,
		capacity: capacity,
		lock:     make(chan struct{}, 1),
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
	return tp
}

// do runs a mutation under the topology's lock on the caller's
// goroutine and returns its result. A request that ends while it waits
// for the lock, or whose topology shuts down first, never runs. An ended
// context's error is wrapped, so asError answers 499 canceled for a
// caller that hung up and 504 timeout for a passed deadline; a mutation
// that completes after its caller's context ended answers the same way.
// A traced request records its wait for the lock as a server.queue span.
func (tp *topology) do(ctx context.Context, apply func(ctx context.Context) (any, error)) (any, error) {
	sp := trace.FromContext(ctx).Start("server.queue")
	tp.queued.Add(1)
	defer tp.queued.Add(-1)
	select {
	case tp.lock <- struct{}{}:
		defer func() { <-tp.lock }()
	case <-tp.quit:
	case <-ctx.Done():
	}
	sp.End()
	// A select with several ready cases picks one at random, so the lock
	// may be held here although quit is closed or the context ended.
	select {
	case <-tp.quit:
		return nil, gonef("topology %s is shut down", tp.id)
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("request ended while it waited for the %s lock: %w", tp.id, err)
	}
	v, err := apply(ctx)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("request ended while it held the %s lock: %w", tp.id, cerr)
	}
	return v, err
}

// commit makes snap the topology's next version. The caller fills what
// the mutation decided: Source, Chunks, Holders, Counts and, for a
// publish, Clock. commit sets the version, producer and the solve and
// publication totals from the committed snapshot (count is a publish's
// batch size, 0 otherwise), carries the clock forward for every other
// type, and logs a record of type typ before it swaps snap in under the
// journal's lock, so the record carries the absolute committed state.
// Under the topology's lock.
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

// stop shuts the topology down: it refuses every mutation still waiting
// for the lock, waits for the running one to finish and then holds the
// lock for good. Safe to call more than once and from any goroutine.
func (tp *topology) stop() {
	tp.quitOnce.Do(func() {
		close(tp.quit)
		tp.lock <- struct{}{}
	})
}
