// Command faircached is the fair-caching placement daemon: it serves the
// internal/server placement service over HTTP/JSON. Topologies are
// registered, solved, published to and queried over the /v1 API;
// liveness and Prometheus metrics live on /healthz and /metrics.
//
// Examples:
//
//	faircached                          # serve on :8080, in-memory
//	faircached -addr 127.0.0.1:9090    # explicit bind address
//	faircached -data-dir /var/lib/fc    # durable: WAL + snapshots; a
//	                                    # restart on the same dir recovers
//	                                    # every topology and placement
//	faircached -data-dir d -fsync never # trade durability for speed
//	faircached -data-dir d -inspect     # print a redacted record listing
//	                                    # of an existing data dir and exit
//	faircached -pprof                   # also serve net/http/pprof
//	                                    # profiles under /debug/pprof/
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests drain (up to -drain-timeout), then every
// topology is shut down and the write-ahead log is closed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		solveTimeout  = flag.Duration("solve-timeout", 30*time.Second, "server-side cap on one solve request")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
		maxNodes      = flag.Int("max-nodes", 4096, "largest registrable topology")
		dataDir       = flag.String("data-dir", "", "durable state directory (WAL + snapshots); empty keeps the service in-memory")
		fsync         = flag.String("fsync", "always", "WAL fsync policy: always, interval or never")
		snapshotEvery = flag.Int("snapshot-every", 256, "WAL records between full-state snapshots (negative disables)")
		inspect       = flag.Bool("inspect", false, "print a redacted record listing of -data-dir and exit")
		pprofOn       = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		logFormat     = flag.String("log-format", "text", "structured log format: text or json")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		traceSample   = flag.Int("trace-sample", 0, "record solve-phase spans for 1 in N solve/adapt requests on GET /debug/trace (0 disables; explain requests always record)")
	)
	flag.Parse()

	logger, err := buildLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faircached:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *inspect {
		if err := runInspect(os.Stdout, *dataDir); err != nil {
			logger.Error("inspect failed", "err", err)
			os.Exit(1)
		}
		return
	}
	opts := server.Options{
		SolveTimeout:  *solveTimeout,
		MaxNodes:      *maxNodes,
		DataDir:       *dataDir,
		Fsync:         *fsync,
		SnapshotEvery: *snapshotEvery,
		Logger:        logger,
		TraceSample:   *traceSample,
	}
	if err := run(*addr, opts, *drainTimeout, *pprofOn); err != nil {
		logger.Error("daemon exited with error", "err", err)
		os.Exit(1)
	}
}

// buildLogger constructs the daemon's slog handler from the -log-format
// and -log-level flags.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, ho)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func run(addr string, opts server.Options, drainTimeout time.Duration, pprofOn bool) error {
	svc, err := server.New(opts)
	if err != nil {
		return err
	}
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	if opts.DataDir != "" {
		log.Info("durable state enabled", "dir", opts.DataDir, "fsync", opts.Fsync)
	}
	// Profiling is opt-in: the pprof handlers expose internals (heap
	// contents, goroutine stacks) that have no place on a default deploy.
	handler := http.Handler(svc)
	if pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", svc)
		handler = mux
		log.Info("pprof profiling enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{Handler: handler}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		svc.Close()
		return err
	}
	log.Info("listening", "addr", ln.Addr().String(), "traceSample", opts.TraceSample)
	// Lifecycle banners stay on stdout as a plain-text contract: wrapper
	// scripts (and the e2e tests) parse the bound address and the clean
	// exit from here, while the structured log stream goes to stderr in
	// whatever -log-format selected.
	fmt.Printf("faircached: listening on %s\n", ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		log.Info("shutting down, draining in-flight requests", "drainTimeout", drainTimeout.String())
	case err := <-serveErr:
		svc.Close()
		return err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Error("drain did not complete", "err", err)
	}
	svc.Close()
	log.Info("shutdown complete")
	fmt.Printf("faircached: shutdown complete\n")
	return nil
}

// runInspect prints one line per WAL record in a data dir — file, offset,
// type, topology id, version, clock and payload size, but never holder
// sets or counts (the listing is redacted) — followed by the registry
// state a recovery would produce.
func runInspect(w io.Writer, dir string) error {
	if dir == "" {
		return fmt.Errorf("-inspect requires -data-dir")
	}
	entries, err := wal.List(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "faircached: %s: %d WAL entries\n", dir, len(entries))
	for _, e := range entries {
		if e.Err != "" {
			fmt.Fprintf(w, "%s @%-6d %-8s  UNDECODABLE: %s\n", e.File, e.Offset, e.Kind, e.Err)
			continue
		}
		fmt.Fprintf(w, "%s @%-6d %-8s  %s  (%d bytes)\n", e.File, e.Offset, e.Kind, describePayload(e.Kind, e.Payload), len(e.Payload))
	}
	st, err := server.LoadWALState(dir)
	if err != nil {
		return fmt.Errorf("replaying state: %w", err)
	}
	fmt.Fprintf(w, "recovered state: nextID=%d topologies=%d\n", st.NextID, len(st.Topologies))
	for _, ts := range st.Topologies {
		version, chunks := 1, 0
		if ts.Snap != nil {
			version, chunks = ts.Snap.Version, ts.Snap.Chunks
		}
		fmt.Fprintf(w, "  %s kind=%s producer=%d capacity=%d version=%d clock=%d chunks=%d\n",
			ts.ID, ts.Kind, ts.Producer, ts.Capacity, version, ts.Clock, chunks)
	}
	return nil
}

// describePayload summarizes one record without leaking its contents.
func describePayload(kind string, payload []byte) string {
	if kind == "snapshot" {
		var st server.WALState
		if err := json.Unmarshal(payload, &st); err != nil {
			return "snapshot (unparseable)"
		}
		return fmt.Sprintf("state snapshot: %d topologies, nextID=%d", len(st.Topologies), st.NextID)
	}
	var rec server.WALRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return "record (unparseable)"
	}
	switch rec.Type {
	case server.WALRegister:
		return fmt.Sprintf("register %s kind=%s producer=%d capacity=%d", rec.ID, rec.Kind, rec.Producer, rec.Capacity)
	case server.WALSolve:
		return fmt.Sprintf("solve    %s version=%d source=%s chunks=%d", rec.ID, rec.Snap.Version, rec.Snap.Source, rec.Snap.Chunks)
	case server.WALPublish:
		return fmt.Sprintf("publish  %s version=%d clock=%d count=%d", rec.ID, rec.Snap.Version, rec.Snap.Clock, rec.Count)
	case server.WALAdapt:
		return fmt.Sprintf("adapt    %s version=%d chunks=%d", rec.ID, rec.Snap.Version, rec.Snap.Chunks)
	case server.WALDelete:
		return fmt.Sprintf("delete   %s", rec.ID)
	default:
		return fmt.Sprintf("unknown type %q", rec.Type)
	}
}
