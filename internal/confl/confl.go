// Package confl solves one per-chunk Connected Facility Location instance
// with the primal-dual dual-growth scheme of the paper's Algorithm 1
// (phase 1). Demands raise connection bids α at a fixed unit step U_α;
// surplus bids fund facility opening costs (β) and relay/connectivity
// support (γ, the SPAN mechanism); a candidate whose opening cost is fully
// paid and that gathered a SPAN quorum becomes an ADMIN caching node.
//
// The dual growth is event-driven: a tick works only on the pairs the bids
// have reached. A demand's cost column is read again only once its bid
// reaches the cheapest cost it left uncovered, relay bids exist only for
// the pairs a bid has reached, SPAN supporters are counted as relay bids
// cover their costs and as demands freeze, and β totals are summed only
// for candidates that already hold a quorum. A tick costs O(N), plus O(N)
// per column read, β total and opening, plus O(1) per rising relay bid;
// the dense O(N²) tick survives only as the test oracle in
// reference_test.go.
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
	// Algorithm 1 hands in views owned by its cost model, so
	// the dual growth must treat it as read-only (it does — both cost
	// inputs are only ever read) and must not retain it past the solve.
	FacilityCost []float64
	// ConnCost is the symmetric path contention cost matrix c_ij, stored
	// flat in row-major order with stride N (entry (i, j) at ConnCost[i*N+j]).
	// Like FacilityCost it is a read-only borrow from the caller's cost
	// model, valid for the duration of one solve.
	ConnCost []float64
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
	// Pool fans SolveGreedyCtx's marginal-gain scan out over its workers.
	// nil (or a single-worker pool) runs the scan sequentially; results
	// are byte-identical either way because every item writes only its own
	// slot. The primal-dual dual growth runs sequentially and ignores it.
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
	// (never includes the producer), sorted.
	Facilities []int
	// Assign maps every node to the open facility it was frozen against
	// (producer or ADMIN member). Assign[Producer] = Producer.
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
// Scratch and recycle across chunks and solves; every buffer is O(N²) at
// most, whatever the step or iteration bound, and the per-solve reset is a
// handful of clearing sweeps.
//
// The state is event-driven. A pair (i, j) starts its relay bid on the
// first tick α_j ≥ c_ij and raises it every tick while j is active and i a
// candidate, so only those rising pairs carry a γ. A SPAN count changes
// only when a rising bid first covers its cost or a supporter freezes, so
// it is kept as a counter.
type solver struct {
	inst Instance
	opts Options
	// open and admin pack the OPEN and ADMIN sets; frozen is the TIGHT set.
	open   bitset.Set
	admin  bitset.Set
	frozen []bool
	assign []int32
	alpha  []float64
	// next[j] is the smallest cost in demand j's column that α_j did not
	// cover at the column's last read. Until α_j reaches it, the read
	// would neither freeze j nor reach a new candidate, so it is skipped.
	next []float64
	// span[i] counts candidate i's SPAN supporters: active demands j ≠ i
	// with c_ij > 0 whose relay bid covers c_ij.
	span []int32
	// supports marks each counted pair at bit j*words*64+i, so a freezing
	// demand withdraws exactly its own support by walking its row of
	// words (the row is padded to whole words).
	supports bitset.Set
	words    int
	// rising holds the relay bids that have started but do not yet cover
	// their connection cost.
	rising []relayBid
}

// relayBid is demand j's growing relay bid γ toward candidate i.
type relayBid struct {
	i, j  int32
	gamma float64
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
// frozen, checking ctx between ticks; on cancellation it returns ctx.Err()
// wrapped so that errors.Is(err, context.Canceled/DeadlineExceeded)
// holds. The dual growth runs on the calling goroutine (opts.Pool is not
// used). Its state is carved out of scr (nil allocates a transient
// scratch): a warm scratch makes a steady-state solve allocate only its
// Solution.
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
		maxIter = TickBound(maxC, opts.AlphaStep, inst.N+2)
	}

	iter := 0
	for ; s.anyActive(); iter++ {
		if iter >= maxIter {
			return nil, fmt.Errorf("%w after %d iterations", ErrNoProgress, iter)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("confl: dual growth interrupted: %w", err)
		}
		s.tick()
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

// TickBound is a dual growth's termination bound: every demand freezes
// once its bid, raised by step per tick, covers the largest connection
// cost maxC, so ⌊maxC/step⌋ ticks plus slack suffice. A step so small
// that the quotient leaves the int range saturates to math.MaxInt
// instead of wrapping negative; such a run ends at its context's
// deadline.
func TickBound(maxC, step float64, slack int) int {
	ticks := maxC / step
	if ticks >= 1<<62 {
		return math.MaxInt
	}
	return int(ticks) + slack
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
	s.next = growFloats(s.next, n)
	s.span = growInt32(s.span, n)
	s.words = (n + 63) / 64
	s.supports = s.supports.Grow(n * s.words * 64)
	s.rising = s.rising[:0]
	for j := range s.assign {
		s.assign[j] = -1
		s.span[j] = 0
		// -Inf: the first tick reads every active demand's column.
		s.next[j] = math.Inf(-1)
	}
	s.open.Add(inst.Producer)
	s.frozen[inst.Producer] = true
	s.assign[inst.Producer] = int32(inst.Producer)
	return s
}

// tick advances the dual-growth process by one step U_α: raise the active
// bids (freezing demands that now cover an open facility), raise the relay
// bids, then open the candidates that are fully paid and hold a SPAN
// quorum. The opening scan is ascending and sequential: each opening
// freezes supporters, which changes the SPAN counts of later candidates.
func (s *solver) tick() {
	inst, n := s.inst, s.inst.N

	// Raise connection bids of active demands; read a column only once
	// its bid reaches the cheapest cost it left uncovered.
	for j := 0; j < n; j++ {
		if s.frozen[j] {
			continue
		}
		s.alpha[j] += s.opts.AlphaStep
		if s.alpha[j] >= s.next[j] {
			s.readColumn(j)
		}
	}

	s.raiseRelays()

	// Open candidates that hold a SPAN quorum and are fully paid. β totals
	// are computed only for quorum holders; α does not move in this scan.
	for i := 0; i < n; i++ {
		if !s.isCandidate(i) || int(s.span[i]) < s.opts.SpanQuorum {
			continue
		}
		if s.paid(i) < inst.FacilityCost[i] {
			continue
		}
		s.openAdmin(i)
	}
}

// readColumn reads demand j's column after its bid reached next[j]. When
// the bid covers an open facility, j freezes (TIGHT) on the cheapest one,
// the lowest index on ties. Otherwise every candidate the bid reached since
// the last read starts a relay bid from j, and next[j] becomes the
// cheapest cost still uncovered.
func (s *solver) readColumn(j int) {
	n, conn := s.inst.N, s.inst.ConnCost
	aj, from := s.alpha[j], s.next[j]
	best, bestC, next := -1, math.Inf(1), math.Inf(1)
	for i := 0; i < n; i++ {
		c := conn[i*n+j]
		if aj < c {
			if c < next {
				next = c
			}
			continue
		}
		if s.open.Has(i) {
			if c < bestC {
				best, bestC = i, c
			}
		} else if c >= from && c > 0 && i != j && s.isCandidate(i) {
			s.rising = append(s.rising, relayBid{i: int32(i), j: int32(j)})
		}
	}
	if best >= 0 {
		s.freeze(j, best) // raiseRelays drops the bids this read started
		return
	}
	s.next[j] = next
}

// raiseRelays adds U_γ to every relay bid whose demand is still active and
// whose candidate is still a candidate, and drops the others for good. A
// bid that covers its connection cost makes its demand a SPAN supporter.
func (s *solver) raiseRelays() {
	n := s.inst.N
	live := s.rising[:0]
	for _, r := range s.rising {
		i, j := int(r.i), int(r.j)
		if s.frozen[j] || !s.isCandidate(i) {
			continue
		}
		r.gamma += s.opts.GammaStep
		if r.gamma >= s.inst.ConnCost[i*n+j] {
			s.span[i]++
			s.supports.Add(j*s.words*64 + i)
			continue
		}
		live = append(live, r)
	}
	s.rising = live
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

// openAdmin promotes candidate i to an ADMIN caching node and freezes onto
// it every active demand whose bid covers c_ij. (A supporter's relay bid
// never covers c_ij before its bid does: γ_ij starts only once α_j ≥ c_ij.)
func (s *solver) openAdmin(i int) {
	s.open.Add(i)
	s.admin.Add(i)
	if !s.frozen[i] {
		s.freeze(i, i)
	}
	conn := s.inst.connRow(i)
	for j := 0; j < s.inst.N; j++ {
		if !s.frozen[j] && s.alpha[j] >= conn[j] {
			s.freeze(j, i)
		}
	}
}

// freeze makes demand j TIGHT on facility to and withdraws its SPAN
// support from every candidate it counted toward.
func (s *solver) freeze(j, to int) {
	s.frozen[j] = true
	s.assign[j] = int32(to)
	row := s.supports[j*s.words : (j+1)*s.words]
	for wi, word := range row {
		for word != 0 {
			s.span[wi*64+bits.TrailingZeros64(word)]--
			word &= word - 1
		}
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
	return nil
}
