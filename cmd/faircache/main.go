// Command faircache runs one fair-caching placement on a grid or random
// topology and prints the placement, fairness metrics and contention cost.
//
// Examples:
//
//	faircache -alg appx -grid 6x6 -producer 9 -chunks 5
//	faircache -alg dist -random 100 -seed 7 -chunks 5 -hops 2
//	faircache -alg brtf -grid 4x4 -chunks 2 -budget 20000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	faircache "repro"
)

func main() {
	var (
		algName  = flag.String("alg", "appx", "algorithm: appx, dist, hopc, cont, brtf")
		grid     = flag.String("grid", "6x6", "grid topology ROWSxCOLS")
		randomN  = flag.Int("random", 0, "random geometric topology with N nodes (overrides -grid)")
		seed     = flag.Int64("seed", 1, "random topology seed")
		producer = flag.Int("producer", -1, "producer node (-1: node 9 on grids, central node on random)")
		chunks   = flag.Int("chunks", 5, "number of distinct data chunks")
		capacity = flag.Int("capacity", 5, "per-node cache capacity in chunks")
		hops     = flag.Int("hops", 2, "hop limit for the distributed protocol")
		lambda   = flag.Float64("lambda", 0, "baseline per-cache cost (0 = calibrated)")
		budget   = flag.Int("budget", 0, "exact-solver search budget (0 = exhaustive)")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
	)
	flag.Parse()

	// Ctrl-C cancels the context and the engine aborts mid-solve instead
	// of running a doomed placement to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, *algName, *grid, *randomN, *seed, *producer, *chunks, *capacity, *hops, *lambda, *budget, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "faircache:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, algName, grid string, randomN int, seed int64, producer, chunks, capacity, hops int, lambda float64, budget int, asJSON bool) error {
	topo, err := buildTopology(grid, randomN, seed)
	if err != nil {
		return err
	}
	if producer < 0 {
		if randomN > 0 {
			producer = topo.CentralNode()
		} else if topo.NumNodes() > 9 {
			producer = 9
		} else {
			producer = topo.NumNodes() / 2
		}
	}
	alg, err := faircache.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		return err
	}
	res, err := solver.Solve(ctx, faircache.Request{
		Producer:  producer,
		Chunks:    chunks,
		Algorithm: alg,
		Options: &faircache.Options{
			Capacity:     capacity,
			HopLimit:     hops,
			Lambda:       lambda,
			SearchBudget: budget,
		},
	})
	if err != nil {
		return err
	}
	if asJSON {
		return reportJSON(res, topo)
	}
	return report(res, topo)
}

// jsonReport is the machine-readable result schema of the -json flag.
type jsonReport struct {
	Algorithm        string         `json:"algorithm"`
	Nodes            int            `json:"nodes"`
	Links            int            `json:"links"`
	Producer         int            `json:"producer"`
	Chunks           int            `json:"chunks"`
	Capacity         int            `json:"capacity"`
	Holders          [][]int        `json:"holders"`
	Counts           []int          `json:"counts"`
	Copies           int            `json:"copies"`
	DistinctCaches   int            `json:"distinctCaches"`
	Gini             float64        `json:"gini"`
	Fairness75       float64        `json:"fairness75"`
	Access           float64        `json:"accessCost"`
	Dissemination    float64        `json:"disseminationCost"`
	Total            float64        `json:"totalCost"`
	AccessDelayMicro int64          `json:"accessDelayMicros"`
	ProvenOptimal    bool           `json:"provenOptimal,omitempty"`
	Messages         map[string]int `json:"messages,omitempty"`
}

func reportJSON(res *faircache.Result, topo *faircache.Topology) error {
	cost, err := res.ContentionCost()
	if err != nil {
		return err
	}
	pf, err := res.PercentileFairness(75)
	if err != nil {
		return err
	}
	out := jsonReport{
		Algorithm:        string(res.Algorithm),
		Nodes:            topo.NumNodes(),
		Links:            topo.NumLinks(),
		Producer:         res.Producer,
		Chunks:           res.Chunks,
		Capacity:         res.Capacity,
		Holders:          res.Holders,
		Counts:           res.Counts,
		Copies:           res.TotalCopies(),
		DistinctCaches:   res.DistinctCacheNodes(),
		Gini:             res.Gini(),
		Fairness75:       pf,
		Access:           cost.Access,
		Dissemination:    cost.Dissemination,
		Total:            cost.Total(),
		AccessDelayMicro: int64(cost.AccessDelay / time.Microsecond),
		ProvenOptimal:    res.ProvenOptimal,
		Messages:         res.Messages,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func buildTopology(grid string, randomN int, seed int64) (*faircache.Topology, error) {
	if randomN > 0 {
		return faircache.Random(randomN, seed)
	}
	parts := strings.SplitN(strings.ToLower(grid), "x", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad grid spec %q, want ROWSxCOLS", grid)
	}
	rows, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad grid rows %q", parts[0])
	}
	cols, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad grid cols %q", parts[1])
	}
	return faircache.Grid(rows, cols)
}

func report(res *faircache.Result, topo *faircache.Topology) error {
	fmt.Printf("algorithm   %s\n", res.Algorithm)
	fmt.Printf("network     %d nodes, %d links\n", topo.NumNodes(), topo.NumLinks())
	fmt.Printf("producer    node %d\n", res.Producer)
	fmt.Printf("chunks      %d (capacity %d per node)\n", res.Chunks, res.Capacity)
	if res.Algorithm == faircache.AlgorithmOptimal {
		fmt.Printf("optimal     proven=%v\n", res.ProvenOptimal)
	}
	fmt.Println()
	for n, holders := range res.Holders {
		fmt.Printf("chunk %d cached on %v\n", n, holders)
	}
	fmt.Println()
	fmt.Printf("copies      %d on %d distinct nodes\n", res.TotalCopies(), res.DistinctCacheNodes())
	fmt.Printf("gini        %.3f\n", res.Gini())
	if pf, err := res.PercentileFairness(75); err == nil {
		fmt.Printf("75-pct fair %.1f%% of nodes hold 75%% of data (ideal 75%%)\n", 100*pf)
	}
	cost, err := res.ContentionCost()
	if err != nil {
		return err
	}
	fmt.Printf("contention  access %.0f + dissemination %.0f = %.0f\n", cost.Access, cost.Dissemination, cost.Total())
	if res.Messages != nil {
		kinds := make([]string, 0, len(res.Messages))
		total := 0
		for k, v := range res.Messages {
			kinds = append(kinds, k)
			total += v
		}
		sort.Strings(kinds)
		fmt.Printf("messages    %d total:", total)
		for _, k := range kinds {
			fmt.Printf(" %s=%d", k, res.Messages[k])
		}
		fmt.Println()
	}
	return nil
}
