package faircache

import (
	"sort"
	"time"

	"repro/internal/trace"
)

// ExplainPhase summarises one pipeline phase of an explain trace.
type ExplainPhase struct {
	// Phase is the span name ("chunk", "confl", "steiner.connect",
	// "costmodel.refresh", "partition.region", "partition.stitch", ...).
	Phase string `json:"phase"`
	// Count is how many spans of this phase ran.
	Count int `json:"count"`
	// TotalMs is their summed elapsed time. Phases overlap (a chunk span
	// contains its confl span) and partitioned regions run concurrently,
	// so phase totals do not sum to TotalMs of the report.
	TotalMs float64 `json:"totalMs"`
	// Counters sums the phase's integer span attributes (ticks, admitted
	// facilities, cost-matrix sweeps, stitch re-bids, ...).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// ExplainReport is the per-request phase breakdown returned on
// Options.Explain via Result.Trace / AdaptationResult.Trace.
type ExplainReport struct {
	TraceID string         `json:"traceId"`
	TotalMs float64        `json:"totalMs"`
	Spans   int            `json:"spans"`
	Phases  []ExplainPhase `json:"phases"`
}

// buildExplain turns a collected explain trace into the public report.
// rootName's total (there is exactly one root span per request) becomes
// the report's TotalMs.
func buildExplain(tr *trace.Trace, rootName string) *ExplainReport {
	recs := tr.Collected()
	if recs == nil {
		return nil
	}
	sums := trace.Summarize(recs)
	rep := &ExplainReport{TraceID: tr.ID(), Spans: len(recs)}
	for _, ps := range sums {
		ms := float64(ps.Total) / float64(time.Millisecond)
		if ps.Phase == rootName {
			rep.TotalMs = ms
		}
		rep.Phases = append(rep.Phases, ExplainPhase{
			Phase:    ps.Phase,
			Count:    ps.Count,
			TotalMs:  ms,
			Counters: ps.Counters,
		})
	}
	// Slowest phases first reads best in JSON output; the root span stays
	// on top by construction since it contains every other phase.
	sort.SliceStable(rep.Phases, func(i, j int) bool {
		return rep.Phases[i].TotalMs > rep.Phases[j].TotalMs
	})
	return rep
}
