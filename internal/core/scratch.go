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
// solves. It grows to the largest topology seen and is lent to one
// placement at a time by the arena free list.
type SolveScratch struct {
	confl     confl.Scratch
	steiner   steiner.Scratch
	fc        []float64
	terminals []int
}

// arenas is the process-wide free list every placement borrows its
// SolveScratch from, so steady-state traffic (solves, publications,
// adaptation passes) stops paying per-chunk arena construction.
//
// It is a mutex-guarded free list rather than a sync.Pool: an arena
// returned here is always handed out again (sync.Pool drops items at
// random under the race detector and on garbage collection, so a warm
// solve's allocation count would depend on both). Arenas are created only
// when the list is empty, so it never holds more arenas than have ever
// been lent out at once: the peak number of concurrent placements.
var arenas struct {
	mu   sync.Mutex
	free []*SolveScratch
}

func getScratch() *SolveScratch {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	n := len(arenas.free)
	if n == 0 {
		return &SolveScratch{}
	}
	s := arenas.free[n-1]
	arenas.free[n-1] = nil
	arenas.free = arenas.free[:n-1]
	return s
}

func putScratch(s *SolveScratch) {
	arenas.mu.Lock()
	arenas.free = append(arenas.free, s)
	arenas.mu.Unlock()
}
