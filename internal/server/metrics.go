package server

import (
	"net/http"
	"time"

	"repro/internal/metrics/prom"
)

// serverMetrics is the server's Prometheus instrument set, served on
// GET /metrics, the daemon's one metrics surface. Registry callbacks
// read live server state at scrape time, so gauges like worker queue
// depth and WAL fsync lag never go stale.
type serverMetrics struct {
	registry *prom.Registry

	// Per-endpoint request accounting, recorded by instrument().
	requests *prom.CounterVec   // faircached_requests_total{endpoint}
	errors   *prom.CounterVec   // faircached_request_errors_total{endpoint}
	duration *prom.HistogramVec // faircached_request_duration_seconds{endpoint}

	// Solve-path instruments.
	solveDuration   *prom.Histogram  // underlying engine solves only
	coalesceFlights *prom.CounterVec // underlying computations started
	coalesceHits    *prom.CounterVec // callers served by a shared flight
	memoHits        *prom.Counter    // solves served from a topology's memo

	// Coalesce lifecycle instruments: callers that gave up on a running
	// flight, and flights aborted because every caller left.
	coalesceDetached *prom.CounterVec
	coalesceAborted  *prom.CounterVec

	// Trace-fed phase latency. Observations come from the span observer,
	// so only sampled (or explain) requests contribute — interpret as a
	// latency profile, not a request count.
	phaseDuration *prom.HistogramVec // faircached_solve_phase_seconds{phase}

	// Partition stitch counters, fed from every partitioned solve
	// response (always on, independent of trace sampling).
	stitchRebids  *prom.Counter
	stitchDropped *prom.Counter

	// Adaptation pass counters, fed from every committed adapt response.
	adaptPasses  *prom.Counter
	adaptActions *prom.CounterVec // faircached_adapt_actions_total{action}

	// Online publication outcomes.
	publications  *prom.Counter
	expiredChunks *prom.Counter

	// Demand ingest outcomes.
	demandEvents    *prom.Counter
	demandLocalHits *prom.Counter
	demandMisses    *prom.Counter

	// Durability instruments.
	walAppendDuration *prom.Histogram
	walAppendErrors   *prom.Counter
	walSnapshots      *prom.Counter
	walSnapshotErrors *prom.Counter
}

// solveBuckets widen the default latency buckets upward: partitioned
// solves on large topologies run for seconds.
var solveBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// newServerMetrics builds the instrument set and the scrape-time gauges
// over the server's live registry state.
func newServerMetrics(s *Server) *serverMetrics {
	reg := prom.NewRegistry()
	m := &serverMetrics{
		registry: reg,
		requests: reg.CounterVec("faircached_requests_total",
			"HTTP requests served, by endpoint.", "endpoint"),
		errors: reg.CounterVec("faircached_request_errors_total",
			"HTTP requests answered with status >= 400, by endpoint.", "endpoint"),
		duration: reg.HistogramVec("faircached_request_duration_seconds",
			"HTTP request latency, by endpoint.", nil, "endpoint"),
		solveDuration: reg.Histogram("faircached_solve_duration_seconds",
			"Latency of underlying engine solves (coalesced callers share one observation; memo hits make none).", solveBuckets),
		memoHits: reg.Counter("faircached_solve_memo_hits_total",
			"Solves that committed a placement from the topology's result memo without running the engine."),
		coalesceFlights: reg.CounterVec("faircached_coalesce_flights_total",
			"Underlying computations started by coalescing endpoints.", "endpoint"),
		coalesceHits: reg.CounterVec("faircached_coalesced_requests_total",
			"Requests served by attaching to an in-progress identical flight.", "endpoint"),
		coalesceDetached: reg.CounterVec("faircached_coalesce_detached_total",
			"Callers that gave up (context done) while their coalesced flight was still running.", "endpoint"),
		coalesceAborted: reg.CounterVec("faircached_coalesce_aborted_total",
			"Coalesced flights cancelled because every attached caller detached.", "endpoint"),
		phaseDuration: reg.HistogramVec("faircached_solve_phase_seconds",
			"Latency of traced solve-pipeline phases (sampled and explain requests only).", nil, "phase"),
		stitchRebids: reg.Counter("faircached_partition_rebid_candidates_total",
			"Boundary-adjacent copies re-evaluated by partition stitch passes."),
		stitchDropped: reg.Counter("faircached_partition_dropped_copies_total",
			"Copies removed as cross-cut redundant by partition stitch passes."),
		adaptPasses: reg.Counter("faircached_adapt_passes_total",
			"Committed demand adaptation passes."),
		adaptActions: reg.CounterVec("faircached_adapt_actions_total",
			"Copies moved by adaptation passes, by action (evicted, placed, replaced).", "action"),
		publications: reg.Counter("faircached_publications_total",
			"Online chunk publications placed."),
		expiredChunks: reg.Counter("faircached_expired_chunks_total",
			"Chunks evicted by TTL expiry ahead of online publications."),
		demandEvents: reg.Counter("faircached_demand_events_total",
			"Demand request events ingested via POST requests batches."),
		demandLocalHits: reg.Counter("faircached_demand_local_hits_total",
			"Ingested demand events served by a cache copy within the hit radius."),
		demandMisses: reg.Counter("faircached_demand_misses_total",
			"Ingested demand events no cache copy served (fetched from the producer)."),
		walAppendDuration: reg.Histogram("faircached_wal_append_duration_seconds",
			"Latency of WAL record appends (includes fsync under the always policy).", nil),
		walAppendErrors: reg.Counter("faircached_wal_append_errors_total",
			"WAL appends that failed; the mutation was not committed."),
		walSnapshots: reg.Counter("faircached_wal_snapshots_total",
			"Full-state WAL snapshots written (each compacts the log)."),
		walSnapshotErrors: reg.Counter("faircached_wal_snapshot_errors_total",
			"Full-state WAL snapshots that failed; compaction is delayed, commits are unaffected."),
	}
	reg.GaugeFunc("faircached_topologies",
		"Registered topologies.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.topos))
		})
	reg.GaugeFunc("faircached_worker_queue_depth",
		"Mutations queued on or running in topology workers.", func() float64 {
			var n int64
			s.mu.RLock()
			for _, tp := range s.topos {
				n += tp.queued.Load()
			}
			s.mu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("faircached_costmodel_cold_builds",
		"Cost-model cold builds summed over live topologies.",
		s.sumSolverStats(func(st solverStatTriple) int { return st.cold }))
	reg.GaugeFunc("faircached_costmodel_warm_solves",
		"Warm-fork solves summed over live topologies.",
		s.sumSolverStats(func(st solverStatTriple) int { return st.warm }))
	reg.GaugeFunc("faircached_costmodel_partitioned_solves",
		"Partitioned solves summed over live topologies.",
		s.sumSolverStats(func(st solverStatTriple) int { return st.partitioned }))
	reg.GaugeFunc("faircached_wal_fsync_lag_seconds",
		"Age of the oldest acknowledged-but-unsynced WAL append (0 when clean or in-memory).",
		func() float64 { return s.journal.syncLag().Seconds() })
	reg.GaugeFunc("faircached_wal_recovery_seconds",
		"Duration of the startup WAL recovery (0 for in-memory servers).",
		func() float64 { return s.walRecovery.Seconds() })
	reg.GaugeFunc("faircached_uptime_seconds",
		"Seconds since the server started.", func() float64 {
			return time.Since(s.start).Seconds()
		})
	return m
}

// solverStatTriple is the subset of faircache.SolverStats the gauges
// aggregate.
type solverStatTriple struct{ cold, warm, partitioned int }

// sumSolverStats returns a scrape callback summing one solver counter
// over the live topology registry.
func (s *Server) sumSolverStats(pick func(solverStatTriple) int) func() float64 {
	return func() float64 {
		total := 0
		s.mu.RLock()
		for _, tp := range s.topos {
			st := tp.solver.Stats()
			total += pick(solverStatTriple{
				cold:        st.ColdBuilds,
				warm:        st.WarmSolves,
				partitioned: st.PartitionedSolves,
			})
		}
		s.mu.RUnlock()
		return float64(total)
	}
}

// statusRecorder captures the response status for error accounting.
// Handlers that never call WriteHeader implicitly answer 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
