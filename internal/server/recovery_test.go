package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	faircache "repro"

	"repro/internal/wal"
)

// durableOpts returns Options pointing at a fresh temp data dir.
func durableOpts(t *testing.T, fsync string) Options {
	t.Helper()
	return Options{DataDir: t.TempDir(), Fsync: fsync}
}

// reportOf fetches the decoded report for one topology.
func reportOf(c *testClient, id string) ReportResponse {
	c.t.Helper()
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+id, nil, &rep, http.StatusOK)
	return rep
}

// getInfo reads the topology's list-row fields from its one read, the
// producer, version and chunk count through its snapshot.
func getInfo(c *testClient, id string) TopologyInfo {
	c.t.Helper()
	rep := reportOf(c, id)
	return TopologyInfo{
		ID: rep.ID, Kind: rep.Kind, Nodes: rep.Nodes, Links: rep.Links,
		Producer: rep.Snapshot.Producer, Version: rep.Snapshot.Version, Chunks: rep.Snapshot.Chunks,
		Demand: rep.Demand,
	}
}

// TestRecoveryRoundTrip drives registrations, solves and publications
// against a durable server, restarts it on the same data dir, and
// demands the recovered registry answer every read endpoint exactly as
// the original did: same ids, versions, clocks, holder sets and lookups.
func TestRecoveryRoundTrip(t *testing.T) {
	opts := durableOpts(t, "always")

	c1, s1 := newTestClient(t, opts)
	reg := c1.registerGrid(4, 4, 5)
	c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 4, Options: &SolveOptions{Algorithm: "appx"}}, nil, http.StatusOK)
	for i := 0; i < 7; i++ {
		c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, nil, http.StatusOK)
	}
	// A second topology with non-default knobs exercises spec replay.
	var reg2 RegisterResponse
	c1.doJSON("POST", "/v1/topologies", RegisterRequest{
		Kind: "ring", Nodes: 9, Capacity: 3, ChunkTTL: 4, FairnessWeight: 0.5,
	}, &reg2, http.StatusCreated)
	c1.doJSON("POST", "/v1/topologies/"+reg2.ID+"/publish", PublishRequest{Count: 6}, nil, http.StatusOK)

	before1, before2 := reportOf(c1, reg.ID), reportOf(c1, reg2.ID)
	// Warm/cold solver counters are runtime state, not journaled — they
	// reset on restart by design, so exclude them from the round trip.
	before1.Solver, before2.Solver = faircache.SolverStats{}, faircache.SolverStats{}
	var beforeLookup LookupResponse
	c1.doJSON("GET", "/v1/topologies/"+reg.ID+"/lookup?chunk=2&node=0", nil, &beforeLookup, http.StatusOK)
	c1.srv.Close()
	s1.Close()

	c2, s2 := newTestClient(t, opts)
	after1, after2 := reportOf(c2, reg.ID), reportOf(c2, reg2.ID)
	if !reflect.DeepEqual(before1, after1) {
		t.Errorf("recovered report for %s diverges:\n before %+v\n after  %+v", reg.ID, before1, after1)
	}
	if !reflect.DeepEqual(before2, after2) {
		t.Errorf("recovered report for %s diverges:\n before %+v\n after  %+v", reg2.ID, before2, after2)
	}
	var afterLookup LookupResponse
	c2.doJSON("GET", "/v1/topologies/"+reg.ID+"/lookup?chunk=2&node=0", nil, &afterLookup, http.StatusOK)
	if !reflect.DeepEqual(beforeLookup, afterLookup) {
		t.Errorf("recovered lookup diverges: before %+v after %+v", beforeLookup, afterLookup)
	}

	// New mutations continue the version/clock sequences seamlessly.
	var pub PublishResponse
	c2.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, &pub, http.StatusOK)
	if pub.Version != before1.Snapshot.Version+1 {
		t.Errorf("post-recovery publish version = %d, want %d", pub.Version, before1.Snapshot.Version+1)
	}
	if pub.Clock != before1.Snapshot.Clock+1 {
		t.Errorf("post-recovery publish clock = %d, want %d", pub.Clock, before1.Snapshot.Clock+1)
	}
	// The id counter must not reuse recovered ids.
	reg3 := c2.registerGrid(2, 2, 0)
	if reg3.ID == reg.ID || reg3.ID == reg2.ID {
		t.Errorf("post-recovery registration reused id %s", reg3.ID)
	}
	_ = s2
}

// TestRecoveryReplaysDeletes restarts after a delete and expects the
// deleted topology to stay gone while its sibling survives.
func TestRecoveryReplaysDeletes(t *testing.T) {
	opts := durableOpts(t, "always")
	c1, s1 := newTestClient(t, opts)
	doomed := c1.registerGrid(3, 3, 4)
	kept := c1.registerGrid(2, 3, 0)
	c1.doJSON("POST", "/v1/topologies/"+doomed.ID+"/publish", nil, nil, http.StatusOK)
	c1.doJSON("DELETE", "/v1/topologies/"+doomed.ID, nil, nil, http.StatusOK)
	c1.srv.Close()
	s1.Close()

	c2, _ := newTestClient(t, opts)
	c2.wantError("GET", "/v1/topologies/"+doomed.ID, nil, http.StatusNotFound, CodeNotFound)
	c2.doJSON("GET", "/v1/topologies/"+kept.ID, nil, nil, http.StatusOK)
	if reg := c2.registerGrid(2, 2, 0); reg.ID == doomed.ID || reg.ID == kept.ID {
		t.Errorf("post-recovery registration reused id %s", reg.ID)
	}
}

// TestRecoveryTornFinalRecord simulates a crash mid-append: the final
// WAL record loses its tail, recovery truncates it instead of failing,
// and the server comes back at the previous committed state with the
// log open for business.
func TestRecoveryTornFinalRecord(t *testing.T) {
	opts := durableOpts(t, "always")
	opts.SnapshotEvery = -1 // keep every record in segments

	c1, s1 := newTestClient(t, opts)
	reg := c1.registerGrid(4, 4, 5)
	var prev, last PublishResponse
	for i := 0; i < 5; i++ {
		prev = last
		c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, &last, http.StatusOK)
	}
	c1.srv.Close()
	s1.Close()

	// Tear bytes off the end of the newest segment, truncating the
	// final publish record mid-frame.
	segs, err := filepath.Glob(filepath.Join(opts.DataDir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", opts.DataDir, err)
	}
	newest := segs[len(segs)-1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	c2, _ := newTestClient(t, opts)
	rep := reportOf(c2, reg.ID)
	if rep.Snapshot.Version != prev.Version || rep.Snapshot.Clock != prev.Clock {
		t.Fatalf("recovered at v%d clock %d, want the pre-torn commit v%d clock %d",
			rep.Snapshot.Version, rep.Snapshot.Clock, prev.Version, prev.Clock)
	}
	// The truncated log accepts appends again and the deterministic
	// engine re-derives the publication the torn record had recorded.
	var redo PublishResponse
	c2.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, &redo, http.StatusOK)
	if redo.Version != last.Version || redo.Clock != last.Clock {
		t.Errorf("replayed publish got v%d clock %d, want v%d clock %d", redo.Version, redo.Clock, last.Version, last.Clock)
	}
	if !reflect.DeepEqual(redo.Holders, last.Holders) {
		t.Errorf("replayed publish holders diverge: %v vs %v", redo.Holders, last.Holders)
	}
}

// TestRecoveryWithSnapshotsAndCompaction forces frequent snapshots and
// tiny segments, checks the log actually compacts, and verifies the
// snapshot+tail recovery path (not just pure record replay).
func TestRecoveryWithSnapshotsAndCompaction(t *testing.T) {
	opts := durableOpts(t, "never")
	opts.SnapshotEvery = 5
	opts.MaxSegmentBytes = 2048

	c1, s1 := newTestClient(t, opts)
	reg := c1.registerGrid(4, 4, 5)
	for i := 0; i < 23; i++ {
		c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, nil, http.StatusOK)
	}
	before := reportOf(c1, reg.ID)
	samples := c1.scrape()
	if got := samples["faircached_wal_snapshots_total"]; got != 4 {
		t.Errorf("snapshots counter = %v after 24 records at SnapshotEvery=5, want 4", got)
	}
	for _, name := range []string{"faircached_wal_snapshot_errors_total", "faircached_wal_append_errors_total"} {
		if got, ok := samples[name]; !ok || got != 0 {
			t.Errorf("%s = %v (present %v), want 0", name, got, ok)
		}
	}
	c1.srv.Close()
	s1.Close()

	snaps, _ := filepath.Glob(filepath.Join(opts.DataDir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot written despite SnapshotEvery=5 and 24 records")
	}
	segs, _ := filepath.Glob(filepath.Join(opts.DataDir, "seg-*.wal"))
	if len(segs) > 3 {
		t.Errorf("compaction left %d segments: %v", len(segs), segs)
	}

	c2, _ := newTestClient(t, opts)
	after := reportOf(c2, reg.ID)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("snapshot+tail recovery diverges:\n before %+v\n after  %+v", before, after)
	}
}

// TestEmptyDataDirStaysInMemory double-checks the default mode writes
// nothing anywhere: no journal, no files, mutations still commit.
func TestEmptyDataDirStaysInMemory(t *testing.T) {
	c, s := newTestClient(t, Options{})
	if s.journal != nil {
		t.Fatal("in-memory server grew a journal")
	}
	reg := c.registerGrid(3, 3, 4)
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, nil, http.StatusOK)
	if rep := reportOf(c, reg.ID); rep.Snapshot.Clock != 1 {
		t.Fatalf("publish did not commit: %+v", rep.Snapshot)
	}
}

// TestExpvarIsolationBetweenServers asserts two Servers in one process
// keep independent metric registries, so driving one leaves the other's
// /metrics scrape untouched.
func TestExpvarIsolationBetweenServers(t *testing.T) {
	busy, busySrv := newTestClient(t, Options{})
	idle, idleSrv := newTestClient(t, Options{})
	reg := busy.registerGrid(3, 3, 4)
	for i := 0; i < 5; i++ {
		busy.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, nil, http.StatusOK)
	}

	counters := func(c *testClient) map[string]float64 {
		s := c.scrape()
		return map[string]float64{
			"registrations": s[`faircached_requests_total{endpoint="register"}`],
			"publications":  s["faircached_publications_total"],
			"solves":        s["faircached_solve_duration_seconds_count"],
			"errors":        familySum(s, "faircached_request_errors_total"),
			"lookups":       s[`faircached_requests_total{endpoint="lookup"}`],
		}
	}
	busyVars, idleVars := counters(busy), counters(idle)
	if busyVars["registrations"] != 1 || busyVars["publications"] != 5 {
		t.Errorf("busy server counters wrong: %v", busyVars)
	}
	for key, v := range idleVars {
		if v != 0 {
			t.Errorf("idle server leaked counter %s=%v from its sibling", key, v)
		}
	}
	if busySrv.metrics.registry == idleSrv.metrics.registry {
		t.Error("two Servers share one metrics registry")
	}
}

// TestGetTopologyByID covers the new GET /v1/topologies/{id} endpoint.
func TestGetTopologyByID(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(3, 4, 2)
	info := getInfo(c, reg.ID)
	want := TopologyInfo{ID: reg.ID, Kind: "grid", Nodes: 12, Links: reg.Links, Producer: 2, Version: 1, Chunks: 0}
	if info != want {
		t.Errorf("GET %s = %+v, want %+v", reg.ID, info, want)
	}
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", PublishRequest{Count: 2}, nil, http.StatusOK)
	info = getInfo(c, reg.ID)
	if info.Version != 2 || info.Chunks != 2 {
		t.Errorf("after one publish batch of two: %+v, want version 2 chunks 2", info)
	}
	c.wantError("GET", "/v1/topologies/nope", nil, http.StatusNotFound, CodeNotFound)
}

// TestNoWorkerGoroutineLeaks registers and deletes topologies in cycles
// and closes servers, then demands the process goroutine count settle
// back to its baseline: every topology worker must exit on DELETE and
// on Server.Close.
func TestNoWorkerGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	for cycle := 0; cycle < 3; cycle++ {
		s, err := New(Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ids := make([]string, 0, 4)
		for i := 0; i < 4; i++ {
			w := httptest.NewRecorder()
			body := strings.NewReader(`{"kind":"grid","rows":3,"cols":3}`)
			s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/topologies", body))
			if w.Code != http.StatusCreated {
				t.Fatalf("register: status %d: %s", w.Code, w.Body)
			}
			ids = append(ids, fmt.Sprintf("t%d", s.nextID))
		}
		// Delete half explicitly; Close must reap the rest.
		for _, id := range ids[:2] {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("DELETE", "/v1/topologies/"+id, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("delete %s: status %d: %s", id, w.Code, w.Body)
			}
		}
		s.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegisterStartsNoGoroutine registers 50 topologies and checks the
// process goroutine count stays put: a topology's mutations run on the
// goroutines of the requests that send them.
func TestRegisterStartsNoGoroutine(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/topologies", strings.NewReader(`{"kind":"grid","rows":3,"cols":3}`)))
		if w.Code != http.StatusCreated {
			t.Fatalf("register: status %d: %s", w.Code, w.Body)
		}
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("50 registrations took the goroutine count from %d to %d", before, after)
	}
}

// TestDeleteWaitsForRunningMutation deletes a topology of a durable
// server while a mutation holds its lock and another waits for it. The
// running one finishes and answers its own result, DELETE answers only
// after it, and its WAL record precedes the delete record; the waiting
// one answers 410 gone and never runs.
func TestDeleteWaitsForRunningMutation(t *testing.T) {
	opts := durableOpts(t, "always")
	c, s := newTestClient(t, opts)
	reg := c.registerGrid(3, 3, 4)
	tp, _ := s.lookupTopology(reg.ID)

	gate := make(chan struct{})
	started := make(chan struct{})
	applied := make(chan struct{})
	type result struct {
		v   any
		err error
	}
	parked := make(chan result, 1)
	go func() {
		v, err := tp.do(context.Background(), func(ctx context.Context) (any, error) {
			close(started)
			<-gate
			defer close(applied)
			snap := &Snapshot{Source: "solve:Appx", Holders: map[int][]int{}, Counts: make([]int, 9)}
			return snap, s.commit(ctx, tp, WALSolve, 0, snap)
		})
		parked <- result{v, err}
	}()
	<-started

	queued := make(chan error, 1)
	go func() {
		queued <- c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/publish", "", nil, nil, http.StatusGone)
	}()
	waitQueued(t, s, reg.ID, 2)
	deleted := make(chan error, 1)
	go func() {
		deleted <- c.sendJSON("DELETE", "/v1/topologies/"+reg.ID, "", nil, nil, http.StatusOK)
	}()
	// The waiting publish is refused once DELETE has closed quit.
	if err := <-queued; err != nil {
		t.Errorf("publish queued behind the running mutation: %v", err)
	}
	select {
	case err := <-deleted:
		t.Fatalf("DELETE answered (%v) while a mutation held the lock", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	select {
	case <-applied:
	default:
		t.Error("DELETE answered before the running mutation finished")
	}
	res := <-parked
	if snap, ok := res.v.(*Snapshot); res.err != nil || !ok || snap.Version != 2 {
		t.Errorf("running mutation answered %v, %v; want its own v2 snapshot", res.v, res.err)
	}

	rec, err := wal.Scan(opts.DataDir)
	if err != nil {
		t.Fatalf("wal.Scan: %v", err)
	}
	var types []string
	for _, payload := range rec.Records {
		var r WALRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatalf("decoding a WAL record: %v", err)
		}
		types = append(types, r.Type)
	}
	if want := []string{WALRegister, WALSolve, WALDelete}; !reflect.DeepEqual(types, want) {
		t.Errorf("WAL records %v, want %v", types, want)
	}
}

// errAfter is a request context whose n-th and later Err calls report
// context.Canceled while Done never closes, so a cancellation lands at a
// chosen context check inside the engine rather than at a select.
type errAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRecoveryAfterCancelledPublish restarts a durable daemon after a
// publish whose request was cancelled inside its placement. A started
// batch commits whatever happens to its request; otherwise the
// cancelled publication's clock tick and TTL evictions would stand with
// no WAL record, and recovery, which replays the logged clock's
// publications, would diverge from the logged snapshot and refuse to
// start.
func TestRecoveryAfterCancelledPublish(t *testing.T) {
	opts := durableOpts(t, "always")
	c1, s1 := newTestClient(t, opts)
	var reg RegisterResponse
	c1.doJSON("POST", "/v1/topologies", RegisterRequest{Kind: "grid", Rows: 6, Cols: 6, ChunkTTL: 4}, &reg, http.StatusCreated)
	path := "/v1/topologies/" + reg.ID + "/publish"
	for i := 0; i < 3; i++ {
		c1.doJSON("POST", path, nil, nil, http.StatusOK)
	}
	// The worker's queue check and PublishCtx's entry check are the first
	// two Err calls; the fifth falls inside the placement's cost refresh.
	ctx := &errAfter{Context: context.Background(), n: 5}
	rec := httptest.NewRecorder()
	s1.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil).WithContext(ctx))
	if rec.Code != http.StatusOK && rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled publish: status %d, %s; want 200 or 499", rec.Code, rec.Body)
	}
	for i := 0; i < 3; i++ {
		c1.doJSON("POST", path, nil, nil, http.StatusOK)
	}
	before := reportOf(c1, reg.ID)
	before.Solver = faircache.SolverStats{}
	c1.srv.Close()
	s1.Close()

	c2, _ := newTestClient(t, opts)
	after := reportOf(c2, reg.ID)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("recovered report diverges:\n before %+v\n after  %+v", before, after)
	}
}
