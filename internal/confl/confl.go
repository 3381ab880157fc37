// Package confl solves one per-chunk Connected Facility Location instance
// with the primal-dual dual-growth scheme of the paper's Algorithm 1
// (phase 1). Demands raise connection bids α at a fixed unit step U_α;
// surplus bids fund facility opening costs (β) and relay/connectivity
// support (γ, the SPAN mechanism); a candidate whose opening cost is fully
// paid and that gathered a SPAN quorum becomes an ADMIN caching node.
//
// The scheme mirrors the structure of the 6.55-approximation primal-dual
// ConFL algorithm the paper builds on [20]; the iterative per-chunk use
// preserves the ratio (paper, Theorem 1). Phase 2 (connecting the ADMIN
// set with a Steiner tree) lives in package steiner and is orchestrated by
// package core.
package confl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/pool"
)

// Instance is a single-chunk ConFL instance over nodes 0..N-1.
type Instance struct {
	// N is the number of nodes.
	N int
	// Producer is the node that originates the chunk. It acts as an
	// always-open facility with zero opening cost, and is not a demand.
	Producer int
	// FacilityCost holds the opening cost f_i per node (the Fairness
	// Degree Cost). +Inf marks nodes that must not cache (full storage).
	// The producer's entry is ignored. The slice is borrowed, not copied:
	// Algorithm 1 hands in views owned by its incremental cost model, so
	// the dual growth must treat it as read-only (it does — both cost
	// inputs are only ever read) and must not retain it past the solve.
	FacilityCost []float64
	// ConnCost is the symmetric path contention cost matrix c_ij, stored
	// flat in row-major order with stride N (entry (i, j) at ConnCost[i*N+j]).
	// Like FacilityCost it is a read-only borrow from the caller's cost
	// model, valid for the duration of one solve.
	ConnCost []float64
	// PreOpen lists nodes already caching the chunk; they behave like the
	// producer (open facilities with no further opening cost).
	PreOpen []int
}

// connRow returns row i of the flat connection cost matrix.
func (in *Instance) connRow(i int) []float64 {
	return in.ConnCost[i*in.N : (i+1)*in.N]
}

// Options tunes the dual-growth process.
type Options struct {
	// AlphaStep is U_α, the per-tick increment of every active demand's
	// connection bid. Smaller steps approximate the continuous process
	// more closely at the price of more iterations (Sec. IV-B).
	AlphaStep float64
	// GammaStep is U_γ, the per-tick increment of relay (SPAN) bids. A
	// demand starts raising its relay bid toward a candidate once its
	// connection bid covers the candidate's connection cost.
	GammaStep float64
	// SpanQuorum is M: the number of SPAN supporters a candidate needs
	// before volunteering as an ADMIN caching node.
	SpanQuorum int
	// MaxIterations caps the dual-growth loop as a safety net; 0 derives
	// the paper's bound max(c_ij)/U_α (plus slack) automatically.
	MaxIterations int
	// Pool fans the per-demand and per-candidate tick phases out over its
	// workers. nil (or a single-worker pool) runs the sequential reference
	// path; results are byte-identical either way because every parallel
	// item writes only its own row or slot.
	Pool *pool.Pool
}

// DefaultOptions returns the parameter set used throughout the evaluation,
// calibrated on the paper's 6×6-grid scenario so that per-chunk cache-set
// sizes, Gini coefficient and percentile fairness land in the reported
// regime (≈7 caches per chunk, Gini < 0.4 and falling with network size).
// The relay bid grows faster than the connection bid (U_γ > U_α) so that
// SPAN quorums form before the producer's growing service ball freezes the
// candidates' supporters.
func DefaultOptions() Options {
	return Options{
		AlphaStep:  1,
		GammaStep:  2.5,
		SpanQuorum: 2,
	}
}

// Solution is the outcome of phase 1 for one chunk. Its slices are freshly
// allocated per solve (they outlive the scratch the dual growth ran on).
type Solution struct {
	// Facilities is the ADMIN set A: nodes chosen to cache the chunk
	// (never includes the producer or pre-open nodes), sorted.
	Facilities []int
	// Assign maps every node to the open facility it was frozen against
	// (producer, pre-open or ADMIN member). Assign[Producer] = Producer.
	Assign []int
	// Alpha holds the final dual values α_j.
	Alpha []float64
	// Iterations is the number of dual-growth ticks executed.
	Iterations int
}

// Errors returned by the solvers.
var (
	ErrBadInstance = errors.New("confl: invalid instance")
	ErrNoProgress  = errors.New("confl: dual growth exceeded iteration bound")
)

// solver carries the mutable dual-growth state. Its buffers live inside a
// Scratch and recycle across chunks and solves; the per-solve reset is a
// handful of memclr sweeps. The solver address is stable for the lifetime
// of its Scratch, so the tick-phase closures bind once and never reallocate.
type solver struct {
	inst Instance
	opts Options
	// open and admin are mutated only in the sequential opening scan, so
	// they pack into bitsets; frozen (the TIGHT set) is written by the
	// parallel freeze phase — distinct demands may share a bitset word, so
	// it must stay byte-addressed.
	open   bitset.Set
	admin  bitset.Set
	frozen []bool
	assign []int32
	alpha  []float64
	// gamma holds demand j's relay (SPAN) bid toward candidate i at
	// gamma[i*N+j] — flat with stride N, cleared per solve.
	gamma []float64
	// paidBuf caches Σ_j β_ij per candidate for one tick (α is fixed once
	// the raise phase ends, so the totals can be precomputed in parallel).
	paidBuf []float64

	// Hoisted tick-phase closures (allocated once per Scratch, not per
	// tick): the ForEach fan-outs would otherwise allocate a capture per
	// tick per phase.
	freezeFn func(j int)
	spanFn   func(i int)
	paidFn   func(i int)
}

// Scratch owns the reusable dual-growth state of one ConFL solver. A zero
// Scratch is ready for use; one Scratch serves any number of sequential
// solves (the per-chunk loop reuses one across all chunks), growing its
// buffers to the largest instance seen. Concurrent solves need one Scratch
// each.
type Scratch struct {
	s solver
}

// SolveScratchCtx runs the dual-growth process until every demand is
// frozen, checking ctx between ticks (and inside the parallel tick phases
// when opts.Pool is set); on cancellation it returns ctx.Err() wrapped so
// that errors.Is(err, context.Canceled/DeadlineExceeded) holds. The
// dual-growth state is carved out of scr (nil allocates a transient
// scratch): a warm scratch makes a steady-state solve allocate only its
// Solution. The result is byte-identical at any pool width.
func SolveScratchCtx(ctx context.Context, inst Instance, opts Options, scr *Scratch) (*Solution, error) {
	if err := validate(inst); err != nil {
		return nil, err
	}
	if opts.AlphaStep <= 0 {
		opts.AlphaStep = 1
	}
	if opts.GammaStep <= 0 {
		opts.GammaStep = opts.AlphaStep
	}
	if opts.SpanQuorum <= 0 {
		opts.SpanQuorum = 1
	}

	if scr == nil {
		scr = &Scratch{}
	}
	s := scr.s.reset(inst, opts)
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxC := 0.0
		for _, c := range inst.connRow(inst.Producer) {
			if c > maxC {
				maxC = c
			}
		}
		maxIter = int(maxC/opts.AlphaStep) + inst.N + 2
	}

	iter := 0
	for ; s.anyActive(); iter++ {
		if iter >= maxIter {
			return nil, fmt.Errorf("%w after %d iterations", ErrNoProgress, iter)
		}
		if err := s.tick(ctx); err != nil {
			return nil, fmt.Errorf("confl: dual growth interrupted: %w", err)
		}
	}

	sol := &Solution{
		Assign:     make([]int, inst.N),
		Alpha:      append([]float64(nil), s.alpha...),
		Iterations: iter,
	}
	for j, a := range s.assign {
		sol.Assign[j] = int(a)
	}
	for i := 0; i < inst.N; i++ {
		if s.admin.Has(i) {
			sol.Facilities = append(sol.Facilities, i)
		}
	}
	// Facilities collect in ascending node order already; the sort is kept
	// as a guard (and documents the ordered contract).
	slices.Sort(sol.Facilities)
	return sol, nil
}

// reset binds the solver to a new instance, growing and clearing its
// buffers. The returned pointer is the scratch-resident solver.
func (s *solver) reset(inst Instance, opts Options) *solver {
	n := inst.N
	s.inst = inst
	s.opts = opts
	s.open = s.open.Grow(n)
	s.admin = s.admin.Grow(n)
	s.frozen = growBools(s.frozen, n)
	s.assign = growInt32(s.assign, n)
	s.alpha = growFloats(s.alpha, n)
	s.gamma = growFloats(s.gamma, n*n)
	s.paidBuf = growFloats(s.paidBuf, n)
	for j := range s.assign {
		s.assign[j] = -1
	}
	s.open.Add(inst.Producer)
	s.frozen[inst.Producer] = true
	s.assign[inst.Producer] = int32(inst.Producer)
	for _, v := range inst.PreOpen {
		s.open.Add(v)
		s.frozen[v] = true
		s.assign[v] = int32(v)
	}
	if s.freezeFn == nil {
		s.freezeFn = func(j int) { s.freezeDemand(j) }
		s.spanFn = func(i int) { s.raiseSpan(i) }
		s.paidFn = func(i int) {
			if s.isCandidate(i) {
				s.paidBuf[i] = s.paid(i)
			}
		}
	}
	return s
}

// tick advances the dual-growth process by one step U_α.
//
// Three of its four phases are embarrassingly parallel once the preceding
// phase has completed — each work item reads only state the earlier phases
// fixed and writes only its own slot or row — so they fan out over
// opts.Pool. The opening phase stays sequential: each opening freezes
// supporters, which changes the SPAN counts of later candidates.
func (s *solver) tick(ctx context.Context) error {
	inst, n := s.inst, s.inst.N
	p := s.opts.Pool

	// Raise connection bids of active demands.
	for j := 0; j < n; j++ {
		if !s.frozen[j] {
			s.alpha[j] += s.opts.AlphaStep
		}
	}

	// TIGHT: freeze demands whose bid covers an open facility. Because a
	// frozen demand's α stops growing, its contribution max(0, α_j − c_ij)
	// to still-unopened candidates is automatically snapshotted. Each
	// demand j reads the fixed open set and writes frozen[j]/assign[j].
	if err := p.ForEach(ctx, n, s.freezeFn); err != nil {
		return err
	}

	// Raise relay (SPAN) bids toward candidates the demand is tight with.
	// Per-candidate row i of γ; frozen[] is fixed for the rest of the tick.
	if err := p.ForEach(ctx, n, s.spanFn); err != nil {
		return err
	}

	// β totals depend only on α, which no longer moves this tick, so they
	// can be precomputed in parallel before the sequential opening scan.
	if err := p.ForEach(ctx, n, s.paidFn); err != nil {
		return err
	}

	// Open candidates that are fully paid and hold a SPAN quorum.
	for i := 0; i < n; i++ {
		if !s.isCandidate(i) {
			continue
		}
		if s.paidBuf[i] < inst.FacilityCost[i] || s.spanCount(i) < s.opts.SpanQuorum {
			continue
		}
		s.openAdmin(i)
	}
	return nil
}

// raiseSpan advances candidate i's relay-bid row for the demands tight with
// it (the SPAN phase of one tick). It writes only row i of γ.
func (s *solver) raiseSpan(i int) {
	if !s.isCandidate(i) {
		return
	}
	conn := s.inst.connRow(i)
	gamma := s.gamma[i*s.inst.N : (i+1)*s.inst.N]
	for j := 0; j < s.inst.N; j++ {
		if !s.frozen[j] && s.alpha[j] >= conn[j] {
			gamma[j] += s.opts.GammaStep
		}
	}
}

// isCandidate reports whether node i can still become a caching facility.
func (s *solver) isCandidate(i int) bool {
	return !s.open.Has(i) && i != s.inst.Producer && !math.IsInf(s.inst.FacilityCost[i], 1)
}

// paid returns Σ_j β_ij, the total contribution toward i's opening cost.
func (s *solver) paid(i int) float64 {
	total := 0.0
	conn := s.inst.connRow(i)
	for j := 0; j < s.inst.N; j++ {
		if j == s.inst.Producer {
			continue
		}
		if b := s.alpha[j] - conn[j]; b > 0 {
			total += b
		}
	}
	return total
}

// spanCount returns the number of active demands whose relay bid covers
// the connection cost to candidate i (SPAN supporters). The candidate's
// own zero-cost entry does not count: support must come from peers.
func (s *solver) spanCount(i int) int {
	count := 0
	conn := s.inst.connRow(i)
	gamma := s.gamma[i*s.inst.N : (i+1)*s.inst.N]
	for j := 0; j < s.inst.N; j++ {
		if s.frozen[j] || j == i {
			continue
		}
		if c := conn[j]; gamma[j] >= c && c > 0 {
			count++
		}
	}
	return count
}

// openAdmin promotes candidate i to an ADMIN caching node and freezes its
// supporters onto it.
func (s *solver) openAdmin(i int) {
	s.open.Add(i)
	s.admin.Add(i)
	if !s.frozen[i] {
		s.frozen[i] = true
		s.assign[i] = int32(i)
	}
	conn := s.inst.connRow(i)
	gamma := s.gamma[i*s.inst.N : (i+1)*s.inst.N]
	for j := 0; j < s.inst.N; j++ {
		if s.frozen[j] {
			continue
		}
		if s.alpha[j] >= conn[j] || gamma[j] >= conn[j] {
			s.frozen[j] = true
			s.assign[j] = int32(i)
		}
	}
}

// freezeDemand connects demand j to the cheapest open facility its α
// covers, if any. It touches only j's slots, so distinct demands can be
// frozen concurrently against a fixed open set. The scan walks the set
// bits of the open bitset in ascending node order (the open set is a
// handful of nodes, so this replaces n strided matrix loads with |open|),
// with the same strict < tie-break as a full ascending sweep.
func (s *solver) freezeDemand(j int) {
	if s.frozen[j] {
		return
	}
	best := int32(-1)
	bestC := math.Inf(1)
	aj := s.alpha[j]
	n := s.inst.N
	for wi, word := range s.open {
		base := wi * 64
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			if c := s.inst.ConnCost[i*n+j]; aj >= c && c < bestC {
				best, bestC = int32(i), c
			}
		}
	}
	if best >= 0 {
		s.frozen[j] = true
		s.assign[j] = best
	}
}

func (s *solver) anyActive() bool {
	for j := 0; j < s.inst.N; j++ {
		if !s.frozen[j] {
			return true
		}
	}
	return false
}

// growBools returns a cleared bool slice of length n, reusing b's storage
// when possible.
func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// growInt32 returns an int32 slice of length n, reusing storage (contents
// undefined; callers overwrite).
func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// growFloats returns a zeroed float64 slice of length n, reusing storage.
func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

func validate(inst Instance) error {
	if inst.N <= 0 {
		return fmt.Errorf("%w: N = %d", ErrBadInstance, inst.N)
	}
	if inst.Producer < 0 || inst.Producer >= inst.N {
		return fmt.Errorf("%w: producer %d out of range [0,%d)", ErrBadInstance, inst.Producer, inst.N)
	}
	if len(inst.FacilityCost) != inst.N {
		return fmt.Errorf("%w: facility cost length %d != N %d", ErrBadInstance, len(inst.FacilityCost), inst.N)
	}
	if len(inst.ConnCost) != inst.N*inst.N {
		return fmt.Errorf("%w: connection cost matrix length %d != N² %d", ErrBadInstance, len(inst.ConnCost), inst.N*inst.N)
	}
	for j, c := range inst.connRow(inst.Producer) {
		if math.IsInf(c, 1) {
			return fmt.Errorf("%w: node %d unreachable from producer", ErrBadInstance, j)
		}
	}
	for _, v := range inst.PreOpen {
		if v < 0 || v >= inst.N {
			return fmt.Errorf("%w: pre-open node %d out of range", ErrBadInstance, v)
		}
	}
	return nil
}
