package main

import (
	"bufio"
	"context"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// buildDaemon compiles the faircached binary into a temp dir once per
// test run. A race-built test binary builds a race-built daemon, so the
// race detector also watches the processes these tests start.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "faircached")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command("go", append(args, ".")...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary on an ephemeral port and returns the
// base URL parsed from its "listening on" banner.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, *bufio.Scanner, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	scanner := bufio.NewScanner(stdout)
	deadline := time.Now().Add(10 * time.Second)
	for scanner.Scan() {
		line := scanner.Text()
		if addr, ok := strings.CutPrefix(line, "faircached: listening on "); ok {
			return cmd, scanner, "http://" + strings.TrimSpace(addr)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	_ = cmd.Process.Kill()
	t.Fatalf("daemon never printed its listen banner (scan err: %v)", scanner.Err())
	return nil, nil, ""
}

// TestEndToEnd starts the daemon and drives it through the typed client:
// /healthz, register a 4x4 grid, solve it over the v1 nested-options
// schema, answer a lookup, scrape /metrics, and shut down gracefully on
// SIGINT.
func TestEndToEnd(t *testing.T) {
	bin := buildDaemon(t)
	cmd, scanner, baseURL := startDaemon(t, bin)
	defer func() { _ = cmd.Process.Kill() }()
	ctx := context.Background()
	cl := client.New(baseURL)

	// Health.
	health, err := cl.Healthz(ctx)
	if err != nil || health.Status != "ok" {
		t.Fatalf("healthz: %+v err %v", health, err)
	}

	// Register a 4x4 grid.
	producer := 5
	reg, err := cl.Register(ctx, &server.RegisterRequest{Kind: "grid", Rows: 4, Cols: 4, Producer: &producer})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if reg.Nodes != 16 || reg.ID == "" {
		t.Fatalf("register response %+v", reg)
	}

	// Solve it: a legacy alias in the nested options must echo the
	// canonical name.
	solve, err := cl.Solve(ctx, reg.ID, &server.SolveRequest{
		Chunks:  3,
		Options: &server.SolveOptions{Algorithm: "approximate"},
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if len(solve.Holders) != 3 || solve.TotalCost <= 0 {
		t.Fatalf("solve response %+v", solve)
	}
	if solve.Algorithm != "Appx" {
		t.Errorf("solve echoed algorithm %q, want canonical Appx", solve.Algorithm)
	}

	// Answer a lookup from the committed placement.
	lk, err := cl.Lookup(ctx, reg.ID, 1, 15)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if lk.ServedBy < 0 || lk.ServedBy >= 16 || lk.Hops < 0 {
		t.Fatalf("lookup response %+v", lk)
	}
	if !lk.FromProducer {
		found := false
		for _, h := range solve.Holders[1] {
			if h == lk.ServedBy {
				found = true
			}
		}
		if !found {
			t.Fatalf("lookup served by %d, not in holders %v", lk.ServedBy, solve.Holders[1])
		}
	}

	// A typed error decodes from the envelope.
	if _, err := cl.Lookup(ctx, reg.ID, 99, 0); !client.IsNotFound(err) {
		t.Errorf("lookup of unknown chunk: err %v, want not_found APIError", err)
	}

	// The Prometheus endpoint serves the counters this test just moved.
	metricsText, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`faircached_requests_total{endpoint="solve"} 1`,
		"faircached_solve_duration_seconds_count 1",
		"# TYPE faircached_request_duration_seconds histogram",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Graceful SIGINT shutdown.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("SIGINT: %v", err)
	}
	sawComplete := false
	for scanner.Scan() {
		if strings.Contains(scanner.Text(), "shutdown complete") {
			sawComplete = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after SIGINT: %v", err)
	}
	if !sawComplete {
		t.Fatal("daemon never reported graceful shutdown")
	}
}

// TestPprofFlag checks the profiling surface is strictly opt-in: with
// -pprof the daemon serves /debug/pprof/, without it the path 404s and
// the regular API still answers.
func TestPprofFlag(t *testing.T) {
	bin := buildDaemon(t)

	cmd, _, baseURL := startDaemon(t, bin, "-pprof")
	resp, err := http.Get(baseURL + "/debug/pprof/")
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatalf("GET /debug/pprof/ with -pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("with -pprof, /debug/pprof/ returned %d, want 200", resp.StatusCode)
	}
	if health, err := client.New(baseURL).Healthz(context.Background()); err != nil || health.Status != "ok" {
		t.Errorf("with -pprof, healthz: %+v err %v (API must still route)", health, err)
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()

	cmd, _, baseURL = startDaemon(t, bin)
	defer func() { _ = cmd.Process.Kill() }()
	resp, err = http.Get(baseURL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/ without -pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("without -pprof, /debug/pprof/ returned %d, want 404", resp.StatusCode)
	}
}

// TestCrashRecovery is the durability end-to-end test: a daemon with
// -data-dir takes a register, a solve and 20+ publications (the last
// stretch from four concurrent writers), dies on SIGKILL mid-stream,
// and a restart on the same dir must answer GET /v1/topologies/{id} and
// /lookup exactly as the write-ahead log says the last fsynced commit
// did. The expected
// state is derived from the WAL through server.LoadWALState — an
// independent decode path, not the server's own recovery code.
func TestCrashRecovery(t *testing.T) {
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	cmd, _, baseURL := startDaemon(t, bin, "-data-dir", dataDir, "-fsync", "always")
	defer func() { _ = cmd.Process.Kill() }()
	ctx := context.Background()
	cl := client.New(baseURL)

	producer := 5
	reg, err := cl.Register(ctx, &server.RegisterRequest{Kind: "grid", Rows: 4, Cols: 4, Producer: &producer})
	if err != nil || reg.ID == "" {
		t.Fatalf("register: %+v err %v", reg, err)
	}

	if _, err := cl.Solve(ctx, reg.ID, &server.SolveRequest{
		Chunks:  3,
		Options: &server.SolveOptions{Algorithm: "appx"},
	}); err != nil {
		t.Fatalf("solve: %v", err)
	}

	// 20 acknowledged publications, then four writers keep the mutation
	// stream hot so SIGKILL lands mid-traffic. Each writer stops at its
	// first error; one before the kill fails the test.
	for i := 0; i < 20; i++ {
		if _, err := cl.Publish(ctx, reg.ID, 1); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	const writers, ackedBeforeKill = 4, 8
	var (
		acked  atomic.Int64
		killed atomic.Bool
		wg     sync.WaitGroup
	)
	hot := make(chan struct{})
	signalHot := sync.OnceFunc(func() { close(hot) })
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer signalHot() // a writer that fails early must not leave the test waiting
			for {
				if _, err := cl.Publish(ctx, reg.ID, 1); err != nil {
					if !killed.Load() {
						t.Errorf("publish before SIGKILL: %v", err)
					}
					return
				}
				if acked.Add(1) == ackedBeforeKill {
					signalHot()
				}
			}
		}()
	}
	<-hot
	killed.Store(true)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = cmd.Wait()
	wg.Wait()

	// What does the log say survived? Every acknowledged response was
	// fsynced first, so this is at least the state the client saw.
	st, err := server.LoadWALState(dataDir)
	if err != nil {
		t.Fatalf("LoadWALState: %v", err)
	}
	var want *server.WALTopology
	for i := range st.Topologies {
		if st.Topologies[i].ID == reg.ID {
			want = &st.Topologies[i]
		}
	}
	if want == nil || want.Snap == nil {
		t.Fatalf("WAL lost topology %s: %+v", reg.ID, st)
	}
	if want.Clock < 20 {
		t.Fatalf("WAL recorded only %d publications, want >= 20", want.Clock)
	}

	cmd2, scanner2, baseURL2 := startDaemon(t, bin, "-data-dir", dataDir, "-fsync", "always")
	defer func() { _ = cmd2.Process.Kill() }()
	cl2 := client.New(baseURL2)

	rep, err := cl2.Report(ctx, reg.ID)
	if err != nil {
		t.Fatalf("recovered report: %v", err)
	}
	if !reflect.DeepEqual(rep.Snapshot, want.Snap) {
		t.Errorf("recovered snapshot diverges from the WAL:\n wal    %+v\n server %+v", want.Snap, rep.Snapshot)
	}

	// Lookups answer from the recovered holder sets.
	for chunk := 0; chunk < 3; chunk++ {
		lk, err := cl2.Lookup(ctx, reg.ID, chunk, 0)
		if err != nil {
			t.Fatalf("recovered lookup chunk %d: %v", chunk, err)
		}
		if lk.Version != want.Snap.Version {
			t.Errorf("lookup chunk %d answered from v%d, want v%d", chunk, lk.Version, want.Snap.Version)
		}
		if !lk.FromProducer {
			holders := want.Snap.Holders[chunk]
			found := false
			for _, h := range holders {
				if h == lk.ServedBy {
					found = true
				}
			}
			if !found {
				t.Errorf("lookup chunk %d served by %d, not in WAL holders %v", chunk, lk.ServedBy, holders)
			}
		}
	}

	// The clock keeps counting where the log left off.
	pub, err := cl2.Publish(ctx, reg.ID, 1)
	if err != nil {
		t.Fatalf("post-recovery publish: %v", err)
	}
	if pub.Clock != want.Snap.Clock+1 || pub.Version != want.Snap.Version+1 {
		t.Errorf("post-recovery publish v%d clock %d, want v%d clock %d",
			pub.Version, pub.Clock, want.Snap.Version+1, want.Snap.Clock+1)
	}

	if err := cmd2.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("SIGINT: %v", err)
	}
	for scanner2.Scan() {
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("recovered daemon exited non-zero: %v", err)
	}
}

// TestInspectMode checks -inspect prints a record listing and the
// folded state without starting a server.
func TestInspectMode(t *testing.T) {
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	cmd, scanner, baseURL := startDaemon(t, bin, "-data-dir", dataDir)
	defer func() { _ = cmd.Process.Kill() }()
	ctx := context.Background()
	cl := client.New(baseURL)

	reg, err := cl.Register(ctx, &server.RegisterRequest{Kind: "grid", Rows: 3, Cols: 3})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := cl.Publish(ctx, reg.ID, 1); err != nil {
		t.Fatalf("publish: %v", err)
	}
	_ = cmd.Process.Signal(os.Interrupt)
	for scanner.Scan() {
	}
	_ = cmd.Wait()

	out, err := exec.Command(bin, "-inspect", "-data-dir", dataDir).CombinedOutput()
	if err != nil {
		t.Fatalf("inspect: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"WAL entries", "register " + reg.ID, "publish  " + reg.ID, "recovered state:", "clock=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("inspect output missing %q:\n%s", want, text)
		}
	}
	// Redacted: the listing must not dump holder sets.
	if strings.Contains(text, "holders") || strings.Contains(text, "Holders") {
		t.Errorf("inspect output leaks holder sets:\n%s", text)
	}

	if out, err := exec.Command(bin, "-inspect").CombinedOutput(); err == nil {
		t.Errorf("-inspect without -data-dir should fail, got:\n%s", out)
	}
}
