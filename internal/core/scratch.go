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
type ScratchPool struct {
	p sync.Pool
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
	if s, ok := sp.p.Get().(*SolveScratch); ok {
		return s
	}
	return &SolveScratch{}
}

func (sp *ScratchPool) put(s *SolveScratch) {
	if sp == nil {
		sp = &defaultScratchPool
	}
	sp.p.Put(s)
}
