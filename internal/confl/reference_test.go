package confl

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// This file keeps a dense implementation of the dual growth as the oracle
// of TestSolveMatchesDenseReference: every tick sweeps all candidate×node
// pairs three times (relay raise, β totals, SPAN recount) over an N² γ
// matrix.

// refSolver carries the mutable dual-growth state. Its buffers live inside a
// refScratch and recycle across chunks and solves; the per-solve reset is a
// handful of memclr sweeps. The solver address is stable for the lifetime
// of its refScratch, so the tick-phase closures bind once and never reallocate.
type refSolver struct {
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

	// Hoisted tick-phase closures (allocated once per refScratch, not per
	// tick): the ForEach fan-outs would otherwise allocate a capture per
	// tick per phase.
	freezeFn func(_, j int)
	spanFn   func(_, i int)
	paidFn   func(_, i int)
}

// refScratch owns the reusable dual-growth state of one ConFL solver. A zero
// refScratch is ready for use; one refScratch serves any number of sequential
// solves (the per-chunk loop reuses one across all chunks), growing its
// buffers to the largest instance seen. Concurrent solves need one refScratch
// each.
type refScratch struct {
	s refSolver
}

// refSolveScratchCtx runs the dual-growth process until every demand is
// frozen, checking ctx between ticks (and inside the parallel tick phases
// when opts.Pool is set); on cancellation it returns ctx.Err() wrapped so
// that errors.Is(err, context.Canceled/DeadlineExceeded) holds. The
// dual-growth state is carved out of scr (nil allocates a transient
// scratch): a warm scratch makes a steady-state solve allocate only its
// Solution. The result is byte-identical at any pool width.
func refSolveScratchCtx(ctx context.Context, inst Instance, opts Options, scr *refScratch) (*Solution, error) {
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
		scr = &refScratch{}
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
func (s *refSolver) reset(inst Instance, opts Options) *refSolver {
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
	if s.freezeFn == nil {
		s.freezeFn = func(_, j int) { s.freezeDemand(j) }
		s.spanFn = func(_, i int) { s.raiseSpan(i) }
		s.paidFn = func(_, i int) {
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
func (s *refSolver) tick(ctx context.Context) error {
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
func (s *refSolver) raiseSpan(i int) {
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
func (s *refSolver) isCandidate(i int) bool {
	return !s.open.Has(i) && i != s.inst.Producer && !math.IsInf(s.inst.FacilityCost[i], 1)
}

// paid returns Σ_j β_ij, the total contribution toward i's opening cost.
func (s *refSolver) paid(i int) float64 {
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
func (s *refSolver) spanCount(i int) int {
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
func (s *refSolver) openAdmin(i int) {
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
func (s *refSolver) freezeDemand(j int) {
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

func (s *refSolver) anyActive() bool {
	for j := 0; j < s.inst.N; j++ {
		if !s.frozen[j] {
			return true
		}
	}
	return false
}

// diffInstance draws one instance and option set for the differential
// test. Costs come from a small range so that the dense reference stays
// cheap, and integer costs with round steps hit the exact-equality cases
// (α = c, γ = c) that the bid comparisons must break the same way. One
// instance in three is under capacity pressure (reported by pressured):
// 50–95% of its nodes are full, so only a few can still open.
func diffInstance(rng *rand.Rand) (inst Instance, opts Options, pressured bool) {
	n := 2 + rng.Intn(59)
	integer := rng.Intn(2) == 0
	draw := func(scale float64) float64 {
		if integer {
			return float64(rng.Intn(int(scale) + 1))
		}
		return scale * rng.Float64()
	}
	scale := float64(2 + rng.Intn(39))
	zeroOff := rng.Intn(3) == 0 // some off-diagonal costs are zero
	asym := rng.Intn(2) == 0
	conn := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := draw(scale)
			if zeroOff && rng.Intn(8) == 0 {
				c = 0
			}
			conn[i*n+j], conn[j*n+i] = c, c
			if asym {
				conn[j*n+i] = draw(scale)
			}
		}
	}
	producer := rng.Intn(n)
	if rng.Intn(8) == 0 {
		// An unreachable pair off the producer's row.
		if i, j := rng.Intn(n), rng.Intn(n); i != producer && i != j {
			conn[i*n+j] = math.Inf(1)
		}
	}

	fc := make([]float64, n)
	fscale := float64(1 + rng.Intn(30))
	full := 0.1
	if pressured = rng.Intn(3) == 0; pressured {
		full = 0.5 + 0.45*rng.Float64()
	}
	for i := range fc {
		switch r := rng.Float64(); {
		case r < full:
			fc[i] = math.Inf(1)
		case r < full+(1-full)/9:
			fc[i] = 0
		default:
			fc[i] = draw(fscale)
		}
	}

	inst = Instance{N: n, Producer: producer, FacilityCost: fc, ConnCost: conn}

	steps := []float64{0.1, 0.25, 0.5, 1, 1.5, 2}
	opts = Options{
		AlphaStep:  steps[rng.Intn(len(steps))],
		GammaStep:  0.05 + 3.95*rng.Float64(),
		SpanQuorum: 1 + rng.Intn(5),
	}
	if rng.Intn(2) == 0 {
		opts.AlphaStep = 0.1 + 1.9*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		gsteps := []float64{0.05, 0.5, 1, 2, 2.5, 4}
		opts.GammaStep = gsteps[rng.Intn(len(gsteps))]
	}
	if rng.Intn(6) == 0 {
		opts.MaxIterations = 1 + rng.Intn(12)
	}
	return inst, opts, pressured
}

// TestSolveMatchesDenseReference pins the event-driven dual growth to the
// dense reference on randomized instances: the same facilities,
// assignments, α bits, tick counts and errors, on one warm scratch.
func TestSolveMatchesDenseReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(15))
	var scr Scratch
	var ref refScratch
	var failed, opened, pressuredOpened int
	for k := 0; k < 2000; k++ {
		inst, opts, pressured := diffInstance(rng)
		tag := fmt.Sprintf("instance %d (N=%d, %+v)", k, inst.N, opts)
		want, wantErr := refSolveScratchCtx(ctx, inst, opts, &ref)
		got, gotErr := SolveScratchCtx(ctx, inst, opts, &scr)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s: err = %v, want %v", tag, gotErr, wantErr)
			}
			failed++
			continue
		}
		sameSolution(t, tag, want, got)
		if len(want.Facilities) > 0 {
			opened++
			if pressured {
				pressuredOpened++
			}
		}
	}
	// Guard the generator: the error path, the opening path and openings
	// under capacity pressure must all stay well exercised.
	if failed < 100 || opened < 1000 || pressuredOpened < 200 {
		t.Errorf("%d instances failed, %d opened a facility and %d of those were under capacity pressure; want >= 100, >= 1000 and >= 200",
			failed, opened, pressuredOpened)
	}
}
