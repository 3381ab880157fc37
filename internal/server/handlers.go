package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	faircache "repro"

	"repro/internal/demand"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// maxBodyBytes bounds every request body read by the service.
const maxBodyBytes = 1 << 20

// decodeJSON reads a request body and strictly decodes it into v.
func decodeJSON(r *http.Request, v any) *Error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	return decodeStrict(body, v)
}

// readBody reads a request body of at most maxBodyBytes into one buffer
// sized from Content-Length (io.ReadAll's 512 bytes when it is unknown),
// returning a typed bad_request error when the body is longer or the
// read fails.
func readBody(r *http.Request) ([]byte, *Error) {
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, maxBodyBytes)
	}
	// One spare byte lets the read that reports EOF land without growing.
	body := make([]byte, 0, size+1)
	rd := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	for {
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, badRequestf("invalid JSON body: %v", err)
		}
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
	}
}

// decodeStrict decodes body into v, returning a typed bad_request error
// on malformed input, unknown fields or trailing data.
func decodeStrict(body []byte, v any) *Error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("invalid JSON body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequestf("trailing data after JSON body")
	}
	return nil
}

// RegisterRequest is the body of POST /v1/topologies.
type RegisterRequest struct {
	// Kind selects the generator: grid, random, clustered, line, ring or
	// links.
	Kind string `json:"kind"`
	// Rows and Cols size a grid.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Nodes sizes random, line, ring and links topologies.
	Nodes int `json:"nodes,omitempty"`
	// Seed seeds random and clustered generation.
	Seed int64 `json:"seed,omitempty"`
	// Clusters and Size shape a clustered (crowd) topology.
	Clusters int `json:"clusters,omitempty"`
	Size     int `json:"size,omitempty"`
	// Links is the explicit edge list for kind "links".
	Links [][2]int `json:"links,omitempty"`
	// Producer is the producer node; omitted selects the central node.
	Producer *int `json:"producer,omitempty"`
	// Capacity is the per-node cache capacity (default 5).
	Capacity int `json:"capacity,omitempty"`
	// ChunkTTL is the online chunk lifetime with faircache.Options
	// semantics: 0 default, >0 publications, <0 never expire.
	ChunkTTL int `json:"chunkTTL,omitempty"`
	// FairnessWeight scales the Fairness Degree Cost of online
	// placements (0 = paper default).
	FairnessWeight float64 `json:"fairnessWeight,omitempty"`
}

// RegisterResponse is the body of a successful registration.
type RegisterResponse struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	Producer int    `json:"producer"`
	Capacity int    `json:"capacity"`
	Version  int    `json:"version"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := checkSpecSize(&req, s.opts.MaxNodes); err != nil {
		s.writeError(w, err)
		return
	}
	topo, kind, err := buildTopology(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	producer := topo.CentralNode()
	if req.Producer != nil {
		producer = *req.Producer
	}
	if producer < 0 || producer >= topo.NumNodes() {
		s.writeError(w, badRequestf("producer %d out of range [0,%d)", producer, topo.NumNodes()))
		return
	}
	capacity := req.Capacity
	if capacity == 0 {
		capacity = 5
	}
	if capacity < 0 {
		s.writeError(w, badRequestf("negative capacity %d", capacity))
		return
	}
	online, oerr := newOnline(topo, &req, producer, capacity)
	if oerr != nil {
		s.writeError(w, oerr)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.writeError(w, &Error{Status: http.StatusServiceUnavailable, Code: CodeShutdown, Message: "server is shutting down"})
		return
	}
	s.nextID++
	id := fmt.Sprintf("t%d", s.nextID)
	s.mu.Unlock()

	// Log the registration before the topology becomes visible: its
	// generator spec and resolved producer/capacity are everything a
	// restart needs to rebuild the graph deterministically.
	if jerr := s.journal.append(r.Context(), &WALRecord{
		Type: WALRegister, ID: id, Kind: kind, Spec: &req,
		Producer: producer, Capacity: capacity,
	}, nil); jerr != nil {
		s.writeError(w, jerr)
		return
	}

	tp := newTopology(id, kind, topo, producer, capacity, online, nil)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Undo the durable registration so a restart does not resurrect
		// a topology the client was told failed.
		_ = s.journal.append(r.Context(), &WALRecord{Type: WALDelete, ID: id}, nil)
		s.writeError(w, &Error{Status: http.StatusServiceUnavailable, Code: CodeShutdown, Message: "server is shutting down"})
		return
	}
	s.topos[id] = tp
	s.mu.Unlock()

	s.log.Info("topology registered",
		"id", id, "kind", kind, "nodes", topo.NumNodes(), "links", topo.NumLinks(),
		"producer", producer, "capacity", capacity)
	snap := tp.snap.Load()
	writeJSON(w, http.StatusCreated, RegisterResponse{
		ID:       id,
		Kind:     kind,
		Nodes:    topo.NumNodes(),
		Links:    topo.NumLinks(),
		Producer: producer,
		Capacity: capacity,
		Version:  snap.Version,
	})
}

// newOnline builds the online system a registration asks for: the
// spec's chunk lifetime and fairness weight at the resolved capacity.
func newOnline(topo *faircache.Topology, spec *RegisterRequest, producer, capacity int) (*faircache.OnlineSystem, error) {
	return faircache.NewOnline(topo, producer, &faircache.Options{
		Capacity:       capacity,
		ChunkTTL:       spec.ChunkTTL,
		FairnessWeight: spec.FairnessWeight,
	})
}

// checkSpecSize refuses a spec that asks for more than limit nodes
// before buildTopology allocates any of them. A grid has rows·cols
// nodes, a clustered topology clusters·size, every other kind nodes, and
// each generator builds exactly that count. Comparing b against limit/a
// keeps the product from overflowing. Recovery does not call it, so
// lowering the limit never drops a topology the log already holds.
func checkSpecSize(req *RegisterRequest, limit int) *Error {
	kind := strings.ToLower(strings.TrimSpace(req.Kind))
	a, b := req.Nodes, 1
	switch kind {
	case "grid":
		a, b = req.Rows, req.Cols
	case "clustered":
		a, b = req.Clusters, req.Size
	}
	if a > limit || (a > 0 && b > limit/a) {
		return badRequestf("%s topology asks for more than the limit of %d nodes", kind, limit)
	}
	return nil
}

func buildTopology(req *RegisterRequest) (*faircache.Topology, string, error) {
	kind := strings.ToLower(strings.TrimSpace(req.Kind))
	switch kind {
	case "grid":
		t, err := faircache.Grid(req.Rows, req.Cols)
		return t, kind, err
	case "random":
		t, err := faircache.Random(req.Nodes, req.Seed)
		return t, kind, err
	case "clustered":
		t, err := faircache.Clustered(req.Clusters, req.Size, req.Seed)
		return t, kind, err
	case "line":
		t, err := faircache.Line(req.Nodes)
		return t, kind, err
	case "ring":
		t, err := faircache.Ring(req.Nodes)
		return t, kind, err
	case "links":
		t, err := faircache.FromLinks(req.Nodes, req.Links)
		return t, kind, err
	default:
		return nil, "", badRequestf("unknown topology kind %q (want grid, random, clustered, line, ring or links)", req.Kind)
	}
}

// TopologyInfo is one row of GET /v1/topologies.
type TopologyInfo struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	Producer int    `json:"producer"`
	Version  int    `json:"version"`
	Chunks   int    `json:"chunks"`
	// Demand is the demand subsystem's cumulative state, nil until the
	// first requests batch.
	Demand *DemandInfo `json:"demand,omitempty"`
}

// info builds the topology's list row from its committed snapshot.
func (tp *topology) info() TopologyInfo {
	snap := tp.snap.Load()
	return TopologyInfo{
		ID:       tp.id,
		Kind:     tp.kind,
		Nodes:    tp.topo.NumNodes(),
		Links:    tp.topo.NumLinks(),
		Producer: tp.producer,
		Version:  snap.Version,
		Chunks:   snap.Chunks,
		Demand:   tp.demand.Load(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	infos := []TopologyInfo{}
	for _, id := range s.ids() {
		tp, err := s.lookupTopology(id)
		if err != nil {
			continue // deleted between ids() and here
		}
		infos = append(infos, tp.info())
	}
	writeJSON(w, http.StatusOK, struct {
		Topologies []TopologyInfo `json:"topologies"`
	}{infos})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	tp, ok := s.topos[id]
	if ok {
		delete(s.topos, id)
	}
	s.mu.Unlock()
	if !ok {
		s.writeError(w, notFoundf("unknown topology %q", id))
		return
	}
	// stop waits for the mutation holding the lock, so its WAL record
	// lands ahead of the delete record.
	tp.stop()
	if jerr := s.journal.append(r.Context(), &WALRecord{Type: WALDelete, ID: id}, nil); jerr != nil {
		s.writeError(w, jerr)
		return
	}
	s.log.Info("topology deleted", "id", id)
	writeJSON(w, http.StatusOK, struct {
		ID      string `json:"id"`
		Deleted bool   `json:"deleted"`
	}{id, true})
}

// PartitionSpec routes a solve through the geographic sharding path
// (appx only): Regions is the region count (0 solves globally), Halo the
// boundary re-bid radius (0 = default, negative = keep every region's
// copies).
type PartitionSpec struct {
	Regions int `json:"regions,omitempty"`
	Halo    int `json:"halo,omitempty"`
}

// SolveOptions is the JSON projection of faircache.Options accepted by
// solve requests. As of v1's consolidated schema it is the canonical
// home of every per-solve knob, including the algorithm selection. The
// engine's worker pool is not one: every solve sizes it from the
// daemon's GOMAXPROCS, and a body that names "workers" answers
// bad_request like any unknown field.
type SolveOptions struct {
	// Algorithm is Appx, Dist, Hopc, Cont or Brtf (the paper's five);
	// legacy aliases such as "approximate" parse, and responses echo the
	// canonical name. Empty selects Appx.
	Algorithm      string  `json:"algorithm,omitempty"`
	Capacity       int     `json:"capacity,omitempty"`
	Capacities     []int   `json:"capacities,omitempty"`
	AlphaStep      float64 `json:"alphaStep,omitempty"`
	GammaStep      float64 `json:"gammaStep,omitempty"`
	SpanQuorum     int     `json:"spanQuorum,omitempty"`
	FairnessWeight float64 `json:"fairnessWeight,omitempty"`
	HopLimit       int     `json:"hopLimit,omitempty"`
	Lambda         float64 `json:"lambda,omitempty"`
	SearchBudget   int     `json:"searchBudget,omitempty"`
	SearchWidth    int     `json:"searchWidth,omitempty"`
	GreedyConFL    bool    `json:"greedyConFL,omitempty"`
	// ImproveSteiner runs the key-path tree search inside a partitioned
	// solve's regions, where the trees price the stitch's per-copy charge
	// (see faircache.Options.ImproveSteiner). A global solve accepts it
	// and places and reports exactly as without it.
	ImproveSteiner bool `json:"improveSteiner,omitempty"`
	// Partition routes the solve through the geographic sharding path.
	Partition *PartitionSpec `json:"partition,omitempty"`
	// Explain records the solve's phase spans regardless of the server's
	// sampling knob and returns the per-phase breakdown in the response's
	// trace field. It is part of the solve key, and an explain request
	// always runs the engine: the memo keeps no per-request trace.
	Explain bool `json:"explain,omitempty"`
}

func (o *SolveOptions) toOptions(capacity int) *faircache.Options {
	out := &faircache.Options{Capacity: capacity}
	if o == nil {
		return out
	}
	if o.Capacity > 0 {
		out.Capacity = o.Capacity
	}
	out.Capacities = o.Capacities
	out.AlphaStep = o.AlphaStep
	out.GammaStep = o.GammaStep
	out.SpanQuorum = o.SpanQuorum
	out.FairnessWeight = o.FairnessWeight
	out.HopLimit = o.HopLimit
	out.Lambda = o.Lambda
	out.SearchBudget = o.SearchBudget
	out.SearchWidth = o.SearchWidth
	out.GreedyConFL = o.GreedyConFL
	out.ImproveSteiner = o.ImproveSteiner
	out.Explain = o.Explain
	if o.Partition != nil && o.Partition.Regions != 0 {
		out.Partition = &faircache.PartitionOptions{
			Regions: o.Partition.Regions,
			Halo:    o.Partition.Halo,
		}
	}
	return out
}

// SolveRequest is the body of POST /v1/topologies/{id}/solve. Every
// per-solve knob lives under Options; unknown fields answer bad_request.
type SolveRequest struct {
	// Chunks is the number of distinct chunks to place (default 5).
	Chunks int `json:"chunks,omitempty"`
	// TimeoutMs shortens the server's solve timeout for this request.
	// It bounds this request's own wait and solve, not the placement, so
	// it is not part of the solve key.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Options tunes the algorithm; zero values mean paper defaults.
	Options *SolveOptions `json:"options,omitempty"`
}

// normalize resolves the request's algorithm to its canonical name and
// returns a normalized copy of its options whose JSON encoding is a
// canonical solve identity.
func (req *SolveRequest) normalize() (faircache.Algorithm, *SolveOptions, *Error) {
	opts := &SolveOptions{}
	if req.Options != nil {
		o := *req.Options
		opts = &o
	}
	alg, err := faircache.ParseAlgorithm(opts.Algorithm)
	if err != nil {
		return "", nil, badRequestf("%v", err)
	}
	opts.Algorithm = alg.String()
	return alg, opts, nil
}

// SolveResponse reports a committed one-shot placement. Algorithm
// always echoes the canonical name ("Appx", ...), whatever alias the
// request used.
type SolveResponse struct {
	Version           int            `json:"version"`
	Algorithm         string         `json:"algorithm"`
	Chunks            int            `json:"chunks"`
	Holders           [][]int        `json:"holders"`
	Counts            []int          `json:"counts"`
	Copies            int            `json:"copies"`
	DistinctCaches    int            `json:"distinctCaches"`
	Gini              float64        `json:"gini"`
	AccessCost        float64        `json:"accessCost"`
	DisseminationCost float64        `json:"disseminationCost"`
	TotalCost         float64        `json:"totalCost"`
	ElapsedMs         float64        `json:"elapsedMs"`
	ProvenOptimal     bool           `json:"provenOptimal,omitempty"`
	Messages          map[string]int `json:"messages,omitempty"`
	// Partition reports the decomposition of a sharded solve (nil for
	// global solves).
	Partition *faircache.PartitionReport `json:"partition,omitempty"`
	// TraceID is the request's trace id.
	TraceID string `json:"traceId,omitempty"`
	// Trace is the per-phase explain breakdown, present only when the
	// request set options.explain.
	Trace *faircache.ExplainReport `json:"trace,omitempty"`
}

// solveKey is the canonical identity of a solve: a request is served
// from the topology's memo iff an earlier one placed the same chunk count
// with byte-identical normalized options. TimeoutMs is deliberately
// excluded — it bounds a request's wait, not the placement.
func solveKey(chunks int, opts *SolveOptions) string {
	payload, err := json.Marshal(opts)
	if err != nil {
		// Options are plain scalars and slices; Marshal cannot fail. Keep
		// a defensive key that no other request ever shares rather than
		// serving a memo entry wrongly.
		return fmt.Sprintf("nomarshal:%d", noMarshalKeys.Add(1))
	}
	return fmt.Sprintf("%d:%s", chunks, payload)
}

// noMarshalKeys numbers solveKey's defensive keys.
var noMarshalKeys atomic.Uint64

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	tp, terr := s.lookupTopology(r.PathValue("id"))
	if terr != nil {
		s.writeError(w, terr)
		return
	}
	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Chunks == 0 {
		req.Chunks = 5
	}
	if req.Chunks < 1 {
		s.writeError(w, badRequestf("chunks must be >= 1, got %d", req.Chunks))
		return
	}
	// The engines allocate per (chunk, node) before their first context
	// check, so the count is capped by the same cell budget as a demand
	// subsystem's init.chunks.
	if n := tp.topo.NumNodes(); req.Chunks > demand.MaxCells/n {
		s.writeError(w, badRequestf("%d chunks on %d nodes exceeds the limit of %d (chunk, node) cells", req.Chunks, n, demand.MaxCells))
		return
	}
	alg, opts, aerr := req.normalize()
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	timeout := s.opts.SolveTimeout
	if req.TimeoutMs > 0 && time.Duration(req.TimeoutMs)*time.Millisecond < timeout {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	ctx = s.startTrace(ctx, r, opts.Explain)
	resp, err := s.runSolve(ctx, tp, alg, req.Chunks, opts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// runSolve runs one solve under the topology's lock and commits the
// placement. A request the topology's memo holds commits the stored
// placement without running the engine; explain requests always run it.
func (s *Server) runSolve(ctx context.Context, tp *topology, alg faircache.Algorithm, chunks int, opts *SolveOptions) (*SolveResponse, error) {
	key := solveKey(chunks, opts)
	v, err := tp.do(ctx, func(cctx context.Context) (any, error) {
		start := time.Now()
		var (
			resp *SolveResponse
			err  error
		)
		if stored := tp.memo.get(key); stored != nil && !opts.Explain {
			sp := trace.FromContext(cctx).Start("solve.memo")
			resp, err = s.commitSolve(cctx, tp, stored)
			sp.End()
			if err != nil {
				return nil, err
			}
			s.metrics.memoHits.Inc()
		} else if resp, err = s.solveFresh(cctx, tp, alg, chunks, opts, key); err != nil {
			return nil, err
		}
		resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
		resp.TraceID = traceIDFrom(cctx)
		return resp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*SolveResponse), nil
}

// solveFresh runs the engine and the evaluation for one solve, stores
// the result in the topology's memo unless the request is an explain,
// and commits it. Under the topology's lock.
func (s *Server) solveFresh(ctx context.Context, tp *topology, alg faircache.Algorithm, chunks int, opts *SolveOptions, key string) (*SolveResponse, error) {
	start := time.Now()
	res, err := tp.solver.Solve(ctx, faircache.Request{
		Producer:  tp.producer,
		Chunks:    chunks,
		Algorithm: alg,
		Options:   opts.toOptions(tp.capacity),
	})
	s.metrics.solveDuration.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	// A solve that finished right at the deadline must not commit:
	// the client has already been answered with a timeout.
	if ctx.Err() != nil {
		return nil, timeoutf("solve finished after the request deadline; result discarded")
	}
	esp := trace.FromContext(ctx).Start("metrics.evaluate")
	cost, err := res.ContentionCost()
	esp.End()
	if err != nil {
		return nil, err
	}
	stored := &SolveResponse{
		Algorithm:         res.Algorithm.String(),
		Chunks:            chunks,
		Holders:           res.Holders,
		Counts:            res.Counts,
		Copies:            res.TotalCopies(),
		DistinctCaches:    res.DistinctCacheNodes(),
		Gini:              res.Gini(),
		AccessCost:        cost.Access,
		DisseminationCost: cost.Dissemination,
		TotalCost:         cost.Total(),
		ProvenOptimal:     res.ProvenOptimal,
		Messages:          res.Messages,
		Partition:         res.Partition,
	}
	if !opts.Explain {
		tp.memo.put(key, stored)
	}
	resp, err := s.commitSolve(ctx, tp, stored)
	if err != nil {
		return nil, err
	}
	if res.Partition != nil {
		s.metrics.stitchRebids.Add(float64(res.Partition.RebidCandidates))
		s.metrics.stitchDropped.Add(float64(res.Partition.DroppedCopies))
	}
	resp.Trace = res.Trace
	return resp, nil
}

// commitSolve commits the placement stored describes as the topology's
// next version, for a fresh solve and a memo hit alike, and returns a
// copy of stored carrying that version. The snapshot shares stored's
// holder and count slices: neither is ever modified. Under the
// topology's lock.
func (s *Server) commitSolve(ctx context.Context, tp *topology, stored *SolveResponse) (*SolveResponse, error) {
	snap := &Snapshot{
		Source:  "solve:" + stored.Algorithm,
		Chunks:  stored.Chunks,
		Holders: holderMap(stored.Holders),
		Counts:  stored.Counts,
	}
	if err := s.commit(ctx, tp, WALSolve, 0, snap); err != nil {
		return nil, err
	}
	resp := *stored
	resp.Version = snap.Version
	return &resp, nil
}

// holderMap keys each chunk of placement that holds a copy to its
// holders. Like publish commits, solve and adapt snapshots list only such
// chunks; a lookup of any other known chunk falls through to the
// producer.
func holderMap(placement [][]int) map[int][]int {
	holders := make(map[int][]int, len(placement))
	for chunk, nodes := range placement {
		if len(nodes) > 0 {
			holders[chunk] = nodes
		}
	}
	return holders
}

// PublishRequest is the body of POST /v1/topologies/{id}/publish. An
// empty body publishes one chunk. Once a batch takes the topology's
// lock, it runs to its commit whatever happens to the request: a
// caller whose deadline passes mid-batch gets 504, and one who
// disconnects 499, while the batch still commits, and the next report
// shows it.
type PublishRequest struct {
	// Count is the number of chunks to publish in one serialized batch
	// (default 1).
	Count int `json:"count,omitempty"`
}

// PublicationInfo reports one online arrival.
type PublicationInfo struct {
	Chunk      int   `json:"chunk"`
	Time       int   `json:"time"`
	CacheNodes []int `json:"cacheNodes"`
	Expired    []int `json:"expired,omitempty"`
}

// PublishResponse reports the committed state after the batch. Holders is
// the complete live-chunk map of the new snapshot, so clients can verify
// lookups against exactly this committed state.
type PublishResponse struct {
	Version      int               `json:"version"`
	Clock        int               `json:"clock"`
	Published    int               `json:"published"`
	Publications []PublicationInfo `json:"publications"`
	Holders      map[int][]int     `json:"holders"`
	Counts       []int             `json:"counts"`
	Gini         float64           `json:"gini"`
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	tp, terr := s.lookupTopology(r.PathValue("id"))
	if terr != nil {
		s.writeError(w, terr)
		return
	}
	req := PublishRequest{Count: 1}
	if r.ContentLength != 0 {
		if err := decodeJSON(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		if req.Count == 0 {
			req.Count = 1
		}
	}
	if req.Count < 1 || req.Count > maxPublishBatch {
		s.writeError(w, badRequestf("count must be in [1,%d], got %d", maxPublishBatch, req.Count))
		return
	}

	v, err := tp.do(r.Context(), func(cctx context.Context) (any, error) {
		// A publication cancelled inside its placement would keep its
		// clock tick and TTL evictions with no WAL record: the live
		// system would run ahead of its log, and a restart, which
		// restores the logged clock and live window, would expire and
		// place later chunks differently. So a started batch ignores
		// cancellation: it is at most maxPublishBatch single-chunk
		// placements, and a request whose context ended before it took
		// the lock never starts.
		cctx = context.WithoutCancel(cctx)
		pubs := make([]PublicationInfo, 0, req.Count)
		for i := 0; i < req.Count; i++ {
			pub, err := tp.online.PublishCtx(cctx)
			if err != nil {
				return nil, err
			}
			s.metrics.publications.Inc()
			s.metrics.expiredChunks.Add(float64(len(pub.Expired)))
			pubs = append(pubs, PublicationInfo{
				Chunk:      pub.Chunk,
				Time:       pub.Time,
				CacheNodes: pub.CacheNodes,
				Expired:    pub.Expired,
			})
		}
		os := tp.online.Snapshot()
		// The record's Clock is the online system's absolute publication
		// count and its Holders the live copies: all a restart restores
		// the online system from, with TTL expiry on the same ticks.
		snap := &Snapshot{
			Source:  "publish",
			Chunks:  os.Published,
			Holders: os.Holders,
			Counts:  os.Counts,
			Clock:   os.Clock,
		}
		if err := s.commit(cctx, tp, WALPublish, len(pubs), snap); err != nil {
			return nil, err
		}
		return &PublishResponse{
			Version:      snap.Version,
			Clock:        snap.Clock,
			Published:    snap.Chunks,
			Publications: pubs,
			Holders:      snap.Holders,
			Counts:       snap.Counts,
			Gini:         metrics.Gini(snap.Counts),
		}, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// LookupResponse answers "which node serves chunk n to requester j"
// against one committed snapshot.
type LookupResponse struct {
	Version      int   `json:"version"`
	Chunk        int   `json:"chunk"`
	Node         int   `json:"node"`
	ServedBy     int   `json:"servedBy"`
	Hops         int   `json:"hops"`
	FromProducer bool  `json:"fromProducer"`
	Holders      []int `json:"holders"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	tp, terr := s.lookupTopology(r.PathValue("id"))
	if terr != nil {
		s.writeError(w, terr)
		return
	}
	chunk, err := queryInt(r, "chunk")
	if err != nil {
		s.writeError(w, err)
		return
	}
	node, err := queryInt(r, "node")
	if err != nil {
		s.writeError(w, err)
		return
	}
	if node < 0 || node >= tp.topo.NumNodes() {
		s.writeError(w, badRequestf("node %d out of range [0,%d)", node, tp.topo.NumNodes()))
		return
	}
	snap := tp.snap.Load()
	if chunk < 0 || chunk >= snap.Chunks {
		s.writeError(w, notFoundf("chunk %d unknown: snapshot v%d knows chunks [0,%d)", chunk, snap.Version, snap.Chunks))
		return
	}
	dist, derr := tp.topo.HopDistances(node)
	if derr != nil {
		s.writeError(w, derr)
		return
	}
	holders := snap.Holders[chunk]
	served, hops, fromProducer := nearestServer(dist, holders, snap.Producer)
	writeJSON(w, http.StatusOK, LookupResponse{
		Version:      snap.Version,
		Chunk:        chunk,
		Node:         node,
		ServedBy:     served,
		Hops:         hops,
		FromProducer: fromProducer,
		Holders:      holders,
	})
}

// nearestServer picks the minimum-hop server for a requester with hop
// distances dist: the nearest holder, or the producer when it is
// strictly closer (ties favor offloading the producer; among holders the
// lowest node id wins so answers are deterministic).
func nearestServer(dist, holders []int, producer int) (served, hops int, fromProducer bool) {
	served, hops, fromProducer = producer, dist[producer], true
	for _, h := range holders {
		if dist[h] < hops || (dist[h] == hops && fromProducer) {
			served, hops, fromProducer = h, dist[h], false
		}
	}
	return served, hops, fromProducer
}

func queryInt(r *http.Request, key string) (int, *Error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, badRequestf("missing required query parameter %q", key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequestf("query parameter %q: %v", key, err)
	}
	return v, nil
}

// ReportResponse is the body of GET /v1/topologies/{id}: the full
// committed snapshot plus the paper's fairness metrics.
type ReportResponse struct {
	ID             string    `json:"id"`
	Kind           string    `json:"kind"`
	Nodes          int       `json:"nodes"`
	Links          int       `json:"links"`
	Capacity       int       `json:"capacity"`
	Snapshot       *Snapshot `json:"snapshot"`
	LiveChunks     int       `json:"liveChunks"`
	Copies         int       `json:"copies"`
	DistinctCaches int       `json:"distinctCaches"`
	Gini           float64   `json:"gini"`
	Fairness75     float64   `json:"fairness75"`
	StorageCurve   []float64 `json:"storageCurve"`
	// Solver exposes the warm/cold cost-model counters: after the first
	// solve on a topology every later one should be warm.
	Solver faircache.SolverStats `json:"solver"`
	// Demand is the demand subsystem's cumulative state, nil until the
	// first requests batch.
	Demand *DemandInfo `json:"demand,omitempty"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	tp, terr := s.lookupTopology(r.PathValue("id"))
	if terr != nil {
		s.writeError(w, terr)
		return
	}
	writeJSON(w, http.StatusOK, buildReport(tp))
}

// buildReport computes the full report from the current committed
// snapshot, which is immutable, so concurrent reports need no lock.
func buildReport(tp *topology) *ReportResponse {
	snap := tp.snap.Load()
	copies, distinct := 0, 0
	for _, c := range snap.Counts {
		copies += c
		if c > 0 {
			distinct++
		}
	}
	fairness75 := 0.0
	if pf, err := metrics.PercentileFairness(snap.Counts, 75); err == nil {
		fairness75 = pf
	}
	return &ReportResponse{
		ID:             tp.id,
		Kind:           tp.kind,
		Nodes:          tp.topo.NumNodes(),
		Links:          tp.topo.NumLinks(),
		Capacity:       tp.capacity,
		Snapshot:       snap,
		LiveChunks:     len(snap.Holders),
		Copies:         copies,
		DistinctCaches: distinct,
		Gini:           metrics.Gini(snap.Counts),
		Fairness75:     fairness75,
		StorageCurve:   metrics.StorageCurve(snap.Counts),
		Solver:         tp.solver.Stats(),
		Demand:         tp.demand.Load(),
	}
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status     string `json:"status"`
	Topologies int    `json:"topologies"`
	UptimeMs   int64  `json:"uptimeMs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.topos)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:     "ok",
		Topologies: n,
		UptimeMs:   time.Since(s.start).Milliseconds(),
	})
}
