package main

import (
	"bufio"
	"context"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
	"repro/internal/server/loadgen"
)

// buildDaemon compiles the faircached binary into a temp dir once per
// test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "faircached")
	cmd := exec.Command("go", "build", "-o", bin, ".")
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

// TestLoadMode runs the self-driving load mode end to end: the daemon
// registers its own grid, drives traffic, prints throughput and exits 0.
func TestLoadMode(t *testing.T) {
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-load", "-load-grid", "4x4", "-load-requests", "60", "-load-workers", "2")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("load mode: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"load mode:", "load done:", "ops/s", "shutdown complete"} {
		if !strings.Contains(text, want) {
			t.Errorf("load-mode output missing %q:\n%s", want, text)
		}
	}
}

// TestSolveBurstLoadMode runs the identical-solve burst end to end and
// asserts the coalescing acceptance bar: the burst's requests collapse
// onto at least 5x fewer underlying solves, so the reported hit rate is
// positive.
func TestSolveBurstLoadMode(t *testing.T) {
	bin := buildDaemon(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-load", "-load-mode", "solve-burst",
		"-load-grid", "10x10", "-load-requests", "200", "-load-workers", "16", "-load-chunks", "20")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("solve-burst mode: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"solve-burst load mode:", "burst done:", "hit rate", "shutdown complete"} {
		if !strings.Contains(text, want) {
			t.Errorf("solve-burst output missing %q:\n%s", want, text)
		}
	}
	m := regexp.MustCompile(`burst done: (\d+) requests in .* — (\d+) underlying solves`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("cannot parse burst summary:\n%s", text)
	}
	requests, _ := strconv.Atoi(m[1])
	solves, _ := strconv.Atoi(m[2])
	if solves == 0 || requests/solves < 5 {
		t.Errorf("burst ran %d underlying solves for %d requests, want >= 5x coalescing:\n%s", solves, requests, text)
	}
}

// TestCrashRecovery is the durability end-to-end test: a daemon with
// -data-dir takes a register, a solve and 20+ publications (the last
// stretch from the concurrent load generator), dies on SIGKILL
// mid-stream, and a restart on the same dir must answer /report and
// /lookup exactly as the write-ahead log says the last fsynced commit
// did. The expected state is derived from the WAL through
// server.LoadWALState — an independent decode path, not the server's
// own recovery code.
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

	// 20 acknowledged publications, then the load generator keeps the
	// mutation stream hot so SIGKILL lands mid-traffic.
	for i := 0; i < 20; i++ {
		if _, err := cl.Publish(ctx, reg.ID, 1); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		// The generator dies with the daemon; any error is expected.
		_, _ = loadgen.Run(context.Background(), loadgen.Config{
			BaseURL: baseURL, TopologyID: reg.ID, Requests: 100000, Workers: 4,
		})
	}()
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = cmd.Wait()
	<-loadDone

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

func TestParseGrid(t *testing.T) {
	rows, cols, err := parseGrid("4x6")
	if err != nil || rows != 4 || cols != 6 {
		t.Fatalf("parseGrid(4x6) = %d,%d,%v", rows, cols, err)
	}
	for _, bad := range []string{"", "4", "x", "ax2", "2xb"} {
		if _, _, err := parseGrid(bad); err == nil {
			t.Errorf("parseGrid(%q) should fail", bad)
		}
	}
}
