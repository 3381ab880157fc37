package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// perRequestFields are the solve response fields a memo hit fills per
// request rather than from the stored result.
var perRequestFields = []string{"version", "elapsedMs", "traceId", "coalesced"}

// solveRaw posts one solve and returns the raw response body.
func (c *testClient) solveRaw(id string, req SolveRequest) []byte {
	c.t.Helper()
	resp, raw := c.do("POST", "/v1/topologies/"+id+"/solve", req)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("solve %+v: status %d, %s", req, resp.StatusCode, raw)
	}
	return raw
}

// withoutPerRequest re-encodes a solve response body without the
// per-request fields, keeping every other field's bytes as they came.
func withoutPerRequest(t *testing.T, raw []byte) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	for _, f := range perRequestFields {
		delete(fields, f)
	}
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func versionOf(t *testing.T, raw []byte) int {
	t.Helper()
	var out SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return out.Version
}

// engineRuns is the number of engine solves the server has run, on any
// topology: the observations of the solve duration histogram, which
// every engine run of every algorithm makes and a memo hit does not.
func engineRuns(c *testClient) float64 {
	return c.scrape()["faircached_solve_duration_seconds_count"]
}

// TestMemoRepeatMatchesColdSolve solves each request on one server and
// repeats it there, and solves it once on a fresh server. The repeat must
// be a memo hit (the engine does not run), commit exactly the next
// version, and equal the fresh server's cold solve byte for byte outside
// the per-request fields.
func TestMemoRepeatMatchesColdSolve(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		producer   int
		req        SolveRequest
	}{
		{"appx", 5, 5, 12, SolveRequest{Chunks: 4, Options: &SolveOptions{Algorithm: "appx"}}},
		{"appx-improve", 6, 6, 14, SolveRequest{Chunks: 4, Options: &SolveOptions{Algorithm: "appx", ImproveSteiner: true}}},
		{"appx-partitioned", 6, 6, 14, SolveRequest{Chunks: 4, Options: &SolveOptions{Algorithm: "appx", Partition: &PartitionSpec{Regions: 4}}}},
		{"appx-partitioned-improve", 6, 6, 14, SolveRequest{Chunks: 4, Options: &SolveOptions{Algorithm: "appx", ImproveSteiner: true, Partition: &PartitionSpec{Regions: 2}}}},
		{"hopc", 4, 4, 5, SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "hopc"}}},
		{"cont", 4, 4, 5, SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "cont", Capacities: []int{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1}}}},
		{"dist", 4, 4, 5, SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "dist"}}},
		{"brtf", 3, 3, 4, SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "brtf", SearchBudget: 200}}},
	}
	warm, _ := newTestClient(t, Options{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := warm.registerGrid(tc.rows, tc.cols, tc.producer)
			first := warm.solveRaw(reg.ID, tc.req)
			hitsBefore := warm.scrape()["faircached_solve_memo_hits_total"]
			runs := engineRuns(warm)
			repeat := warm.solveRaw(reg.ID, tc.req)
			if got := engineRuns(warm); got != runs {
				t.Errorf("repeat ran the engine: %v runs, %v before it", got, runs)
			}
			if hits := warm.scrape()["faircached_solve_memo_hits_total"]; hits != hitsBefore+1 {
				t.Errorf("memo hits %v -> %v, want one more", hitsBefore, hits)
			}
			if v, prev := versionOf(t, repeat), versionOf(t, first); v != prev+1 {
				t.Errorf("repeat committed version %d after %d, want exactly one higher", v, prev)
			}

			cold, _ := newTestClient(t, Options{})
			creg := cold.registerGrid(tc.rows, tc.cols, tc.producer)
			fresh := cold.solveRaw(creg.ID, tc.req)
			if got, want := withoutPerRequest(t, repeat), withoutPerRequest(t, fresh); got != want {
				t.Errorf("repeat differs from a cold solve on a fresh server:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestMemoHitAfterPublishCommitsSolve checks that a memo hit commits the
// solve's holders over whatever the topology holds now: after a publish
// replaced the solve's placement, the repeat's snapshot lists the
// solve's holders again and carries the publish clock forward.
func TestMemoHitAfterPublishCommitsSolve(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	req := SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "appx"}}
	var first, repeat SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", req, &first, http.StatusOK)
	var pub PublishResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", PublishRequest{Count: 2}, &pub, http.StatusOK)
	want := map[int][]int{}
	for chunk, nodes := range first.Holders {
		if len(nodes) > 0 {
			want[chunk] = nodes
		}
	}
	if reflect.DeepEqual(pub.Holders, want) {
		t.Fatalf("the publish committed the solve's holders %v; the test needs it to replace them", want)
	}
	runs := engineRuns(c)
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", req, &repeat, http.StatusOK)
	if got := engineRuns(c); got != runs {
		t.Fatalf("repeat after the publish ran the engine (%v runs, %v before)", got, runs)
	}

	snap := reportOf(c, reg.ID).Snapshot
	if !reflect.DeepEqual(snap.Holders, want) || !slices.Equal(snap.Counts, first.Counts) {
		t.Errorf("snapshot after the hit holds %v counts %v, want the solve's %v counts %v",
			snap.Holders, snap.Counts, want, first.Counts)
	}
	if snap.Version != pub.Version+1 || repeat.Version != snap.Version {
		t.Errorf("hit committed version %d (response %d) after the publish's %d, want one higher",
			snap.Version, repeat.Version, pub.Version)
	}
	if snap.Source != "solve:Appx" || snap.Chunks != 3 || snap.Solves != 2 || snap.Publications != 2 || snap.Clock != pub.Clock {
		t.Errorf("snapshot after the hit = %+v, want source solve:Appx, 3 chunks, 2 solves, 2 publications, clock %d",
			snap, pub.Clock)
	}
	var lk LookupResponse
	c.doJSON("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=0&node=0", reg.ID), nil, &lk, http.StatusOK)
	if !slices.Equal(lk.Holders, want[0]) {
		t.Errorf("lookup after the hit sees holders %v, want %v", lk.Holders, want[0])
	}
}

// TestMemoExplainRunsEngine checks explain requests neither read nor
// write the memo: each runs the engine and returns its trace, and a plain
// request after them still runs the engine once before its repeat hits.
func TestMemoExplainRunsEngine(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	plain := SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "appx"}}
	explain := SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "appx", Explain: true}}
	steps := []struct {
		req       SolveRequest
		wantRuns  float64
		wantTrace bool
	}{
		{explain, 1, true},
		{explain, 2, true},
		{plain, 3, false},
		{explain, 4, true},
		{plain, 4, false},
	}
	for i, st := range steps {
		var out SolveResponse
		c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", st.req, &out, http.StatusOK)
		if runs := engineRuns(c); runs != st.wantRuns {
			t.Errorf("step %d (explain %v): %v engine runs, want %v", i, st.req.Options.Explain, runs, st.wantRuns)
		}
		if got := out.Trace != nil && out.Trace.Spans > 0; got != st.wantTrace {
			t.Errorf("step %d (explain %v): trace %+v, want one: %v", i, st.req.Options.Explain, out.Trace, st.wantTrace)
		}
	}
	if hits := c.scrape()["faircached_solve_memo_hits_total"]; hits != 1 {
		t.Errorf("memo hits = %v, want 1", hits)
	}
}

// TestMemoBudget checks the memo's bound on holder and count ints: the
// oldest entries leave first, an entry that fills the budget exactly is
// kept, and one over the budget is never stored and evicts nothing.
func TestMemoBudget(t *testing.T) {
	entry := func(holders [][]int, counts int) *SolveResponse {
		return &SolveResponse{Holders: holders, Counts: make([]int, counts)}
	}
	m := newSolveMemo(10)
	a := entry([][]int{{1, 2}}, 2)        // 4 ints
	b := entry([][]int{{1}, nil, {3}}, 2) // 4 ints
	c := entry([][]int{{4, 5, 6}}, 1)     // 4 ints
	m.put("a", a)
	m.put("b", b)
	m.put("c", c)
	if m.get("a") != nil || m.get("b") != b || m.get("c") != c || m.ints != 8 {
		t.Fatalf("after a, b, c: a %v b %v c %v ints %d; want a evicted first and 8 ints", m.get("a"), m.get("b"), m.get("c"), m.ints)
	}
	m.put("big", entry([][]int{{1, 2, 3, 4, 5, 6}}, 5)) // 11 ints
	if m.get("big") != nil || m.get("b") != b || m.get("c") != c || m.ints != 8 {
		t.Fatalf("an entry over the budget was stored or evicted others: ints %d, keys %v", m.ints, m.order)
	}
	full := entry([][]int{{1, 2, 3, 4, 5}}, 5) // 10 ints
	m.put("full", full)
	if m.get("b") != nil || m.get("c") != nil || m.get("full") != full || m.ints != 10 || !slices.Equal(m.order, []string{"full"}) {
		t.Fatalf("after an entry of the whole budget: ints %d, keys %v; want only it", m.ints, m.order)
	}
}

// TestMemoRecoveryAfterHits restarts a durable daemon after memo hits
// and checks the recovered snapshot is the one the hits committed, that
// the recovered topology's memo starts empty, and that its first solve
// of the request commits the same placement.
func TestMemoRecoveryAfterHits(t *testing.T) {
	opts := durableOpts(t, "always")
	c1, s1 := newTestClient(t, opts)
	reg := c1.registerGrid(4, 4, 5)
	a := SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "appx"}}
	b := SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "hopc"}}
	var hit SolveResponse
	c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", a, nil, http.StatusOK)
	c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, nil, http.StatusOK)
	c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", a, nil, http.StatusOK)
	c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", b, nil, http.StatusOK)
	c1.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", a, &hit, http.StatusOK)
	if hits := c1.scrape()["faircached_solve_memo_hits_total"]; hits != 2 {
		t.Fatalf("memo hits before the restart = %v, want 2", hits)
	}
	before := reportOf(c1, reg.ID)
	c1.srv.Close()
	s1.Close()

	c2, s2 := newTestClient(t, opts)
	after := reportOf(c2, reg.ID)
	if !reflect.DeepEqual(before.Snapshot, after.Snapshot) {
		t.Fatalf("recovered snapshot diverges:\n before %+v\n after  %+v", before.Snapshot, after.Snapshot)
	}
	tp, terr := s2.lookupTopology(reg.ID)
	if terr != nil {
		t.Fatal(terr)
	}
	if len(tp.memo.entries) != 0 {
		t.Errorf("recovered topology's memo holds %d entries, want none", len(tp.memo.entries))
	}
	var again SolveResponse
	c2.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", a, &again, http.StatusOK)
	if runs := engineRuns(c2); runs != 1 {
		t.Errorf("first solve after recovery: %v engine runs, want 1", runs)
	}
	if again.Version != hit.Version+1 || !reflect.DeepEqual(again.Holders, hit.Holders) {
		t.Errorf("solve after recovery: version %d holders %v, want %d and %v", again.Version, again.Holders, hit.Version+1, hit.Holders)
	}
}

// TestMemoHitSampledSpans checks a sampled memo hit records its
// solve.memo and wal.append spans under its own trace id, and no engine
// or evaluation span.
func TestMemoHitSampledSpans(t *testing.T) {
	c, _ := newTestClient(t, Options{DataDir: t.TempDir(), TraceSample: 1})
	reg := c.registerGrid(4, 4, 5)
	req := SolveRequest{Chunks: 3}
	ids := []string{fmt.Sprintf("%032x", 1), fmt.Sprintf("%032x", 2)}
	for _, id := range ids {
		c.doTraced("POST", "/v1/topologies/"+reg.ID+"/solve", "00-"+id+"-00f067aa0ba902b7-01", req, nil, http.StatusOK)
	}
	var dump TraceDump
	c.doJSON("GET", "/debug/trace", nil, &dump, http.StatusOK)
	names := map[string]map[string]bool{}
	for _, sp := range dump.Spans {
		if names[sp.TraceID] == nil {
			names[sp.TraceID] = map[string]bool{}
		}
		names[sp.TraceID][sp.Name] = true
	}
	miss, hit := names[ids[0]], names[ids[1]]
	if !miss["solve"] || !miss["metrics.evaluate"] || !miss["wal.append"] || miss["solve.memo"] {
		t.Errorf("first solve recorded %v, want the engine, evaluation and WAL spans and no solve.memo", miss)
	}
	if !hit["solve.memo"] || !hit["wal.append"] || hit["solve"] || hit["metrics.evaluate"] {
		t.Errorf("repeat recorded %v, want solve.memo and wal.append and no engine or evaluation span", hit)
	}
}

// TestMemoConcurrentMix runs identical solves, distinct solves and
// publishes on one topology from several goroutines (run it with -race
// -count=10). Every solve of one request answers the same placement, and
// the final snapshot counts exactly one commit per non-coalesced solve
// and per publish.
func TestMemoConcurrentMix(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	const workers, rounds = 4, 6
	var (
		mu      sync.Mutex
		placed  = map[int][][]int{} // chunk count -> holders
		commits int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (w+i)%3 == 2 {
					if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/publish", "", nil, nil, http.StatusOK); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					commits++
					mu.Unlock()
					continue
				}
				chunks := 3 // the identical solve
				if (w+i)%3 == 1 {
					chunks = 1 + (w*rounds+i)%4 // distinct solves, some repeating
				}
				var out SolveResponse
				req := SolveRequest{Chunks: chunks, Options: &SolveOptions{Algorithm: "appx"}}
				if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/solve", "", req, &out, http.StatusOK); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if !out.Coalesced {
					commits++
				}
				if prev, ok := placed[chunks]; ok && !reflect.DeepEqual(prev, out.Holders) {
					t.Errorf("%d-chunk solve answered %v, earlier %v", chunks, out.Holders, prev)
				}
				placed[chunks] = out.Holders
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	snap := reportOf(c, reg.ID).Snapshot
	if snap.Version != 1+commits || snap.Solves+snap.Publications != commits {
		t.Errorf("snapshot version %d with %d solves and %d publications, want %d commits",
			snap.Version, snap.Solves, snap.Publications, commits)
	}
	// Every request has run once by now, so a repeat is a hit.
	runs := engineRuns(c)
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "appx"}}, nil, http.StatusOK)
	if got := engineRuns(c); got != runs {
		t.Errorf("repeat after the mix ran the engine: %v runs, %v before", got, runs)
	}
}
