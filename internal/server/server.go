// Package server implements faircached, a concurrent placement service
// wrapping the faircache engine. It owns a registry of named topologies.
// A topology's mutations (one-shot solves, online publications with TTL
// expiry, demand batches and adaptation passes) run one at a time under
// the topology's lock, on the goroutines of the requests that send them,
// while read endpoints — placement lookups, fairness reports, storage
// curves — are served concurrently from an atomically swapped immutable
// snapshot of the last committed state.
//
// With Options.DataDir set the service is durable: every committed
// mutation is appended to a write-ahead log (internal/wal) before the
// snapshot swap, periodic full-state snapshots bound replay time, and
// New recovers the registry — same topology ids, same versions, same
// holder sets — from the log on restart.
//
// Endpoints:
//
//	POST   /v1/topologies              register grid/random/clustered/line/ring/links
//	GET    /v1/topologies              list registered topologies
//	GET    /v1/topologies/{id}         snapshot + fairness metrics + storage curve
//	DELETE /v1/topologies/{id}         unregister, after the running mutation
//	POST   /v1/topologies/{id}/solve   one-shot placement (appx/dist/hopc/cont/brtf)
//	POST   /v1/topologies/{id}/publish online chunk arrival(s)
//	POST   /v1/topologies/{id}/requests ingest demand events (lazy-inits the
//	                                   adaptive demand subsystem)
//	POST   /v1/topologies/{id}/adapt   run one demand adaptation pass and
//	                                   commit its placement
//	GET    /v1/topologies/{id}/lookup  which node serves chunk n to requester j
//	GET    /healthz                    liveness
//	GET    /metrics                    Prometheus text-format metrics
//
// Every error is a typed JSON object {"error":{"code","message"}} with a
// matching HTTP status.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// Options configures a Server. The zero value is ready for production
// defaults (in-memory, no durability).
type Options struct {
	// SolveTimeout caps the server-side duration of one solve request
	// (default 30s). A request's own timeoutMs can only shorten it.
	SolveTimeout time.Duration
	// MaxNodes caps registered topology sizes (default 4096).
	MaxNodes int

	// DataDir enables durability: the write-ahead log and full-state
	// snapshots live here and New recovers from them. Empty keeps the
	// service purely in-memory.
	DataDir string
	// Fsync is the WAL sync policy: "always" (default), "interval" (a
	// background flush every 100ms) or "never".
	Fsync string
	// SnapshotEvery writes a full-state snapshot and compacts the log
	// after this many records (default 256; negative disables automatic
	// snapshots).
	SnapshotEvery int
	// MaxSegmentBytes rotates WAL segments at this size (default 4MiB).
	MaxSegmentBytes int64

	// Logger receives the daemon's leveled operational records
	// (registrations, deletions, WAL recovery), tagged with trace ids
	// where one is in scope. Nil discards them.
	Logger *slog.Logger
	// TraceSample records the spans of 1 in every N solve and adapt
	// requests, server and solver layers together, into the span ring
	// served on GET /debug/trace (0 = off, the default; requests with
	// options.explain record regardless).
	TraceSample int
}

// logger returns the configured logger, or a discard logger when nil so
// call sites never guard.
func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.New(discardHandler{})
}

// discardHandler drops every record; the stdlib gains slog.DiscardHandler
// only in go1.24, which this module does not assume.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

func (o Options) withDefaults() Options {
	if o.SolveTimeout <= 0 {
		o.SolveTimeout = 30 * time.Second
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 4096
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	return o
}

// Server is the placement service. It implements http.Handler; wrap it in
// an http.Server to expose it on a socket. Close shuts every topology
// down; call it after http.Server.Shutdown has drained in-flight
// requests.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	start   time.Time
	log     *slog.Logger
	metrics *serverMetrics // Prometheus instruments served on GET /metrics
	journal *journal       // nil in in-memory mode

	// tracer is the daemon's one span ring and sampling decision: a
	// sampled or explain'd request's trace rides its context, so the
	// server layer (memo hits, evaluation, WAL appends, startup recovery)
	// and the solver and adaptation phases record into it together.
	// GET /debug/trace reads it.
	tracer *trace.Tracer
	// walRecovery is the startup recovery duration, written once in New
	// before the server is shared and read by the metrics gauge.
	walRecovery time.Duration

	mu     sync.RWMutex
	topos  map[string]*topology
	nextID int
	closed bool
}

// New returns a ready-to-serve placement service. With Options.DataDir
// set it first recovers the registry from the directory's write-ahead
// log: the topology graphs are rebuilt from their recorded generator
// specs, online state is replayed publication by publication (the
// engine is deterministic, so TTL expiry and holder sets come back
// identical), and the recovered holder sets are verified against the
// logged committed snapshots.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:   opts.withDefaults(),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		topos:  make(map[string]*topology),
		tracer: trace.New(0),
	}
	s.log = s.opts.logger()
	s.tracer.SetSampling(s.opts.TraceSample)
	s.metrics = newServerMetrics(s)
	// Only sampled and explain requests reach the phase histogram.
	s.tracer.Observe(func(r *trace.Record) {
		s.metrics.phaseDuration.WithLabelValues(r.Name).Observe(r.Duration().Seconds())
	})
	if s.opts.DataDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.metrics.registry.ServeHTTP))
	s.mux.HandleFunc("GET /debug/trace", s.instrument("debug_trace", s.handleDebugTrace))
	s.mux.HandleFunc("POST /v1/topologies", s.instrument("register", s.handleRegister))
	s.mux.HandleFunc("GET /v1/topologies", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/topologies/{id}", s.instrument("get", s.handleReport))
	s.mux.HandleFunc("DELETE /v1/topologies/{id}", s.instrument("delete", s.handleDelete))
	s.mux.HandleFunc("POST /v1/topologies/{id}/solve", s.instrument("solve", s.handleSolve))
	s.mux.HandleFunc("POST /v1/topologies/{id}/publish", s.instrument("publish", s.handlePublish))
	s.mux.HandleFunc("POST /v1/topologies/{id}/requests", s.instrument("requests", s.handleRequests))
	s.mux.HandleFunc("POST /v1/topologies/{id}/adapt", s.instrument("adapt", s.handleAdapt))
	s.mux.HandleFunc("GET /v1/topologies/{id}/lookup", s.instrument("lookup", s.handleLookup))
	return s, nil
}

// openJournal opens (and recovers from) the WAL in opts.DataDir. The
// recovery is timed (faircached_wal_recovery_seconds) and recorded as a
// "wal.recover" span in the server's trace ring.
func (s *Server) openJournal() error {
	begin := time.Now()
	rtr := s.tracer.StartTrace("startup", true)
	rsp := rtr.Start("wal.recover")
	policy, err := wal.ParseSyncPolicy(s.opts.Fsync)
	if err != nil {
		return err
	}
	log, recovered, err := wal.Open(wal.Options{
		Dir:             s.opts.DataDir,
		Policy:          policy,
		MaxSegmentBytes: s.opts.MaxSegmentBytes,
		Logger:          s.log,
	})
	if err != nil {
		return err
	}
	shadow, err := foldWAL(recovered)
	if err != nil {
		log.Close()
		return fmt.Errorf("server: WAL recovery: %w", err)
	}
	if err := s.restore(shadow); err != nil {
		log.Close()
		return fmt.Errorf("server: WAL recovery: %w", err)
	}
	s.journal = &journal{m: s.metrics, log: log, shadow: shadow, every: s.opts.SnapshotEvery}
	s.walRecovery = time.Since(begin)
	rsp.SetInt("topologies", int64(len(s.topos)))
	rsp.SetInt("records", int64(len(recovered.Records)))
	rsp.End()
	s.log.Info("wal recovery complete",
		"dir", s.opts.DataDir,
		"topologies", len(s.topos),
		"records", len(recovered.Records),
		"durationMs", float64(s.walRecovery.Microseconds())/1000)
	return nil
}

// restore rebuilds the live registry from recovered WAL state. Replay is
// deterministic, so re-publishing Clock arrivals reproduces the online
// system (storage, expiry clocks, chunk ids) exactly; the recovered
// holder sets are checked against the last logged committed snapshot.
func (s *Server) restore(shadow *walShadow) error {
	st := shadow.state()
	for i := range st.Topologies {
		ts := &st.Topologies[i]
		topo, kind, err := buildTopology(&ts.Spec)
		if err != nil {
			return fmt.Errorf("topology %s: rebuilding %q graph: %w", ts.ID, ts.Kind, err)
		}
		online, err := newOnline(topo, &ts.Spec, ts.Producer, ts.Capacity)
		if err != nil {
			return fmt.Errorf("topology %s: rebuilding online system: %w", ts.ID, err)
		}
		for c := 0; c < ts.Clock; c++ {
			if _, err := online.Publish(); err != nil {
				return fmt.Errorf("topology %s: replaying publication %d/%d: %w", ts.ID, c+1, ts.Clock, err)
			}
		}
		if ts.Snap != nil && ts.Snap.Source == "publish" {
			os := online.Snapshot()
			if os.Clock != ts.Snap.Clock || !reflect.DeepEqual(os.Holders, ts.Snap.Holders) ||
				!reflect.DeepEqual(os.Counts, ts.Snap.Counts) {
				return fmt.Errorf("topology %s: replayed online state diverges from the logged snapshot (clock %d vs %d)",
					ts.ID, os.Clock, ts.Snap.Clock)
			}
		}
		tp := newTopology(ts.ID, kind, topo, ts.Producer, ts.Capacity, online, ts.Snap)
		s.topos[ts.ID] = tp
		s.log.Debug("topology recovered",
			"id", ts.ID, "kind", kind, "nodes", topo.NumNodes(), "version", tp.snap.Load().Version, "clock", ts.Clock)
	}
	s.nextID = shadow.nextID
	return nil
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close unregisters every topology, waits for the mutation holding each
// one's lock, then closes the write-ahead log (when one is open).
// In-flight mutations finish and answer normally; waiting ones fail with
// a "gone" error. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	stopped := make([]*topology, 0, len(s.topos))
	for id, tp := range s.topos {
		delete(s.topos, id)
		stopped = append(stopped, tp)
	}
	s.mu.Unlock()
	for _, tp := range stopped {
		tp.stop()
	}
	_ = s.journal.close()
}

// lookupTopology resolves a topology id under the read lock.
func (s *Server) lookupTopology(id string) (*topology, *Error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tp, ok := s.topos[id]
	if !ok {
		return nil, notFoundf("unknown topology %q", id)
	}
	return tp, nil
}

// ids returns the registered topology ids, sorted.
func (s *Server) ids() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.topos))
	for id := range s.topos {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// instrument wraps a handler with per-endpoint request, error and
// latency accounting in the Prometheus registry. The registry is
// per-instance, so embedded servers and tests never share counters.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.requests.WithLabelValues(name).Inc()
		s.metrics.duration.WithLabelValues(name).Observe(elapsed.Seconds())
		if rec.status >= 400 {
			s.metrics.errors.WithLabelValues(name).Inc()
		}
	}
}
