package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentLookupPublishStress interleaves >= 100 lookup requests
// with >= 10 online publications on one topology and verifies that every
// lookup observed a consistent snapshot: each answer names a node that
// actually cached the chunk in the committed state of the exact version
// the lookup reports (or the producer, which serves any known chunk).
// Readers start once the first publication has committed, so every
// chunk they ask for is known and none may 404. Run with -race to also
// exercise the memory model.
func TestConcurrentLookupPublishStress(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	producer := 5
	var reg RegisterResponse
	c.doJSON("POST", "/v1/topologies", RegisterRequest{
		Kind: "grid", Rows: 4, Cols: 4, Producer: &producer, Capacity: 3,
	}, &reg, http.StatusCreated)

	const (
		publications = 12
		readers      = 4
		lookupsEach  = 30
	)

	// committed[version] = holders map of that committed snapshot.
	committed := map[int]map[int][]int{
		1: {}, // the register commit holds nothing
	}
	var committedMu sync.Mutex
	var published atomic.Int64

	// firstCommit closes once the first publication has committed, or
	// when the publisher exits early, so a failed publisher cannot leave
	// the readers waiting.
	firstCommit := make(chan struct{})
	signalFirst := sync.OnceFunc(func() { close(firstCommit) })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single publisher
		defer wg.Done()
		defer signalFirst()
		for i := 0; i < publications; i++ {
			var pub PublishResponse
			if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/publish", "", nil, &pub, http.StatusOK); err != nil {
				t.Error(err)
				return
			}
			committedMu.Lock()
			committed[pub.Version] = pub.Holders
			committedMu.Unlock()
			published.Store(int64(pub.Published))
			signalFirst()
		}
	}()

	type observation struct {
		lk  LookupResponse
		raw string
	}
	results := make(chan observation, readers*lookupsEach)
	var lookups atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-firstCommit
			for i := 0; i < lookupsEach; i++ {
				known := int(published.Load())
				chunk := 0
				if known > 0 {
					chunk = (r*lookupsEach + i) % known
				}
				node := (r*7 + i*3) % 16
				resp, raw, err := c.send("GET",
					fmt.Sprintf("/v1/topologies/%s/lookup?chunk=%d&node=%d", reg.ID, chunk, node), "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("lookup status %d: %s", resp.StatusCode, raw)
					continue
				}
				var lk LookupResponse
				if err := json.Unmarshal(raw, &lk); err != nil {
					t.Errorf("lookup unmarshal: %v", err)
					continue
				}
				lookups.Add(1)
				results <- observation{lk, string(raw)}
			}
		}(r)
	}
	wg.Wait()
	close(results)

	if got := lookups.Load(); got < 100 {
		t.Fatalf("only %d successful lookups, want >= 100", got)
	}

	for obs := range results {
		lk := obs.lk
		if lk.FromProducer {
			if lk.ServedBy != producer {
				t.Fatalf("fromProducer lookup served by %d, want %d: %s", lk.ServedBy, producer, obs.raw)
			}
			continue
		}
		holders, ok := committed[lk.Version]
		if !ok {
			t.Fatalf("lookup observed version %d that was never committed: %s", lk.Version, obs.raw)
		}
		found := false
		for _, h := range holders[lk.Chunk] {
			if h == lk.ServedBy {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("lookup v%d chunk %d served by %d, but committed holders are %v: %s",
				lk.Version, lk.Chunk, lk.ServedBy, holders[lk.Chunk], obs.raw)
		}
	}
}

// TestConcurrentMixedWorkload hammers one topology with concurrent
// solves, publishes, lookups and reports to shake out data races in the
// registry / worker / snapshot machinery (meaningful under -race). While
// the traffic runs, the test goroutine keeps scraping /metrics; the
// metrics_counters_never_fall subtest then checks that the request,
// publication and lookup counters never fell between two samples and
// rose by the end.
func TestConcurrentMixedWorkload(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 9)
	counters := func() []float64 {
		s := c.scrape()
		return []float64{
			familySum(s, "faircached_requests_total"),
			s["faircached_publications_total"],
			s[`faircached_requests_total{endpoint="lookup"}`],
		}
	}
	samples := [][]float64{counters()}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var err error
				switch (w + i) % 3 {
				case 0:
					_, _, err = c.send("POST", "/v1/topologies/"+reg.ID+"/solve", "",
						SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "hopc"}})
				case 1:
					_, _, err = c.send("POST", "/v1/topologies/"+reg.ID+"/publish", "", nil)
				default:
					if _, _, err = c.send("GET", "/v1/topologies/"+reg.ID, "", nil); err == nil {
						_, _, err = c.send("GET", "/v1/topologies/"+reg.ID+"/lookup?chunk=0&node=3", "", nil)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// The last sample is taken after every worker has finished.
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		samples = append(samples, counters())
	}
	t.Run("metrics_counters_never_fall", func(t *testing.T) {
		for k, name := range []string{"requests", "publications", "lookups"} {
			for i := 1; i < len(samples); i++ {
				if samples[i][k] < samples[i-1][k] {
					t.Errorf("counter %s fell between samples %d and %d: %v -> %v",
						name, i-1, i, samples[i-1][k], samples[i][k])
				}
			}
			if first, last := samples[0][k], samples[len(samples)-1][k]; last <= first {
				t.Errorf("counter %s did not rise across the run: %v -> %v", name, first, last)
			}
		}
	})

	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Version < 2 {
		t.Fatalf("no mutations committed: %+v", rep.Snapshot)
	}
}
