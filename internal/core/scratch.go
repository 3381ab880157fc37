package core

import (
	"sync"

	"repro/internal/confl"
	"repro/internal/steiner"
)

// SolveScratch is the reusable arena of one solve worker: every per-chunk
// buffer of Algorithm 1's inner loop — the ConFL dual-growth state, the
// Steiner construction's path rows and scan buffers, the facility-cost and
// terminal staging slices — lives here and recycles across chunks and
// solves. A zero SolveScratch is ready for use; it grows to the largest
// topology seen and must not be shared between concurrent solves (route
// concurrent solves through a ScratchPool).
type SolveScratch struct {
	confl     confl.Scratch
	steiner   steiner.Scratch
	fc        []float64
	terminals []int
}

// ScratchPool hands out SolveScratch arenas to concurrent solves and
// recycles them afterwards. The root solver owns one pool for its whole
// lifetime, so steady-state request traffic stops paying per-chunk arena
// construction entirely. The zero value is ready for use.
//
// The pool is a mutex-guarded free list rather than a sync.Pool: an arena
// returned here is always handed out again (sync.Pool drops items at
// random under the race detector and on garbage collection, so a warm
// solve's allocation count would depend on both). Arenas are created only
// when the free list is empty, so the pool never holds more arenas than
// it has ever lent out at once: the peak number of concurrent solves.
type ScratchPool struct {
	mu   sync.Mutex
	free []*SolveScratch
}

// NewScratchPool returns an empty arena pool.
func NewScratchPool() *ScratchPool { return &ScratchPool{} }

// defaultScratchPool serves callers that do not wire their own pool
// (Options.Scratch == nil), so one-shot solves still recycle arenas
// across the chunks of a single solve and across solves.
var defaultScratchPool ScratchPool

func (sp *ScratchPool) get() *SolveScratch {
	if sp == nil {
		sp = &defaultScratchPool
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	n := len(sp.free)
	if n == 0 {
		return &SolveScratch{}
	}
	s := sp.free[n-1]
	sp.free[n-1] = nil
	sp.free = sp.free[:n-1]
	return s
}

func (sp *ScratchPool) put(s *SolveScratch) {
	if sp == nil {
		sp = &defaultScratchPool
	}
	sp.mu.Lock()
	sp.free = append(sp.free, s)
	sp.mu.Unlock()
}
