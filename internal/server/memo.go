package server

// memoBudget bounds one topology's solve memo by the holder and count
// ints its entries keep: 1<<18 ints, 2 MiB on a 64-bit machine, the size
// of the N×N float64 cost matrix a 512-node topology's solver already
// keeps. A 16-chunk Appx placement on a 15×15 grid at capacity 5 keeps
// about 1,000 ints (786 copies, 225 counts), so the memo holds about 250
// such requests, several times the distinct solves a benchmark pass
// sends to one topology, while on a topology of the largest registrable
// size (4096 nodes) the counts alone limit it to 64.
const memoBudget = 1 << 18

// solveMemo keeps the committed response of each distinct solve request
// on one topology, keyed by solveKey. A solve depends only on the
// topology and the request (the engine runs on a fork of the warm
// empty-state cost model), so a repeat can commit the stored placement
// without running the engine again. The stored responses carry no
// per-request field (version, elapsed time, trace id or explain trace)
// and are never modified. Worker goroutine only, so it needs no lock.
type solveMemo struct {
	budget  int // ints the entries may keep
	ints    int // ints the entries keep now
	entries map[string]*SolveResponse
	order   []string // keys, oldest first
}

func newSolveMemo(budget int) solveMemo {
	return solveMemo{budget: budget, entries: make(map[string]*SolveResponse)}
}

// memoInts is the number of holder and count ints resp keeps.
func memoInts(resp *SolveResponse) int {
	n := len(resp.Counts)
	for _, nodes := range resp.Holders {
		n += len(nodes)
	}
	return n
}

// get returns the response stored under key, nil when there is none.
func (m *solveMemo) get(key string) *SolveResponse { return m.entries[key] }

// put stores resp under a key the memo does not hold, evicting the
// oldest entries until it fits. A response larger than the whole budget
// is not stored.
func (m *solveMemo) put(key string, resp *SolveResponse) {
	size := memoInts(resp)
	if size > m.budget {
		return
	}
	for m.ints+size > m.budget {
		m.ints -= memoInts(m.entries[m.order[0]])
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	m.entries[key] = resp
	m.order = append(m.order, key)
	m.ints += size
}
