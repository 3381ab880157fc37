package server

import (
	"context"
	"net/http"

	faircache "repro"

	"repro/internal/demand"
	"repro/internal/metrics"
)

// maxRequestBatch caps the event count of one requests batch; larger
// streams are reported in consecutive calls.
const maxRequestBatch = 8192

// maxPublishBatch caps the count of one publish request.
const maxPublishBatch = 64

// DemandInit configures a topology's demand subsystem on first use. It
// may only accompany the first requests batch; later batches must omit
// it. The subsystem is in-memory only: a restart drops it, and the next
// requests batch re-initializes from a fresh static seed.
type DemandInit struct {
	// Chunks is the chunk-id space (default: the committed snapshot's
	// chunk count; required when no solve or publish has committed).
	Chunks int `json:"chunks,omitempty"`
	// Capacity is the subsystem's per-node capacity (default: the
	// topology's registered capacity).
	Capacity int `json:"capacity,omitempty"`
	// Eviction names the replacement strategy: cost (default), lru, lfu.
	Eviction string `json:"eviction,omitempty"`
	// HitRadius, TopDelta and CopyBudget tune serving and adaptation with
	// faircache.AdaptiveOptions semantics.
	HitRadius  int `json:"hitRadius,omitempty"`
	TopDelta   int `json:"topDelta,omitempty"`
	CopyBudget int `json:"copyBudget,omitempty"`
}

// DemandInfo reports a topology's demand subsystem state; nil in
// TopologyInfo and ReportResponse means no request has been reported
// yet.
type DemandInfo struct {
	Chunks   int `json:"chunks"`
	Capacity int `json:"capacity"`
	faircache.AdaptiveStats
}

// RequestsRequest is the body of POST /v1/topologies/{id}/requests.
type RequestsRequest struct {
	// Events is the request batch, at most maxRequestBatch entries.
	Events []faircache.RequestEvent `json:"events"`
	// Init configures the demand subsystem when this is the first batch.
	Init *DemandInit `json:"init,omitempty"`
}

// RequestsResponse reports one ingested batch.
type RequestsResponse struct {
	// Batch is this call's hit/miss accounting; Demand the cumulative
	// subsystem state.
	Batch  faircache.BatchResult `json:"batch"`
	Demand *DemandInfo           `json:"demand"`
}

// newAdaptive builds a demand subsystem for the topology and returns it
// with its per-node capacity; the caller keeps it only once the batch
// that built it is accepted. Under the topology's lock.
func (tp *topology) newAdaptive(ctx context.Context, init *DemandInit) (*faircache.AdaptiveSystem, int, error) {
	cfg := DemandInit{}
	if init != nil {
		cfg = *init
	}
	if cfg.Chunks == 0 {
		cfg.Chunks = tp.snap.Load().Chunks
	}
	if cfg.Chunks < 1 {
		return nil, 0, badRequestf("no chunks known: solve or publish first, or set init.chunks")
	}
	if n := tp.topo.NumNodes(); cfg.Chunks > demand.MaxCells/n {
		return nil, 0, badRequestf("%d chunks on %d nodes exceeds the demand subsystem's %d (chunk, node) cells", cfg.Chunks, n, demand.MaxCells)
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = tp.capacity
	}
	adaptive, err := tp.solver.NewAdaptive(ctx, tp.producer, cfg.Chunks, &faircache.AdaptiveOptions{
		Capacity:   cfg.Capacity,
		Eviction:   cfg.Eviction,
		HitRadius:  cfg.HitRadius,
		TopDelta:   cfg.TopDelta,
		CopyBudget: cfg.CopyBudget,
	})
	return adaptive, cfg.Capacity, err
}

// demandInfo snapshots the subsystem's cumulative state for readers.
// Under the topology's lock; the result is stored atomically for the
// list and get handlers.
func (tp *topology) demandInfo() *DemandInfo {
	info := &DemandInfo{
		Chunks:        tp.adaptive.Chunks(),
		Capacity:      tp.demandCapacity,
		AdaptiveStats: tp.adaptive.Stats(),
	}
	tp.demand.Store(info)
	return info
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	tp, terr := s.lookupTopology(r.PathValue("id"))
	if terr != nil {
		s.writeError(w, terr)
		return
	}
	req, rerr := readRequests(r)
	if rerr != nil {
		s.writeError(w, rerr)
		return
	}
	if len(req.Events) == 0 {
		s.writeError(w, badRequestf("empty events batch"))
		return
	}
	if len(req.Events) > maxRequestBatch {
		s.writeError(w, badRequestf("batch has %d events, limit is %d", len(req.Events), maxRequestBatch))
		return
	}
	v, err := tp.do(r.Context(), func(cctx context.Context) (any, error) {
		adaptive, capacity := tp.adaptive, tp.demandCapacity
		if adaptive == nil {
			var err error
			if adaptive, capacity, err = tp.newAdaptive(cctx, req.Init); err != nil {
				return nil, err
			}
		} else if req.Init != nil {
			return nil, badRequestf("demand subsystem already initialized; omit init")
		}
		// Report refuses a bad batch before serving any event, and a
		// subsystem this batch built is kept only if the batch is accepted.
		batch, err := adaptive.Report(req.Events)
		if err != nil {
			return nil, err
		}
		tp.adaptive, tp.demandCapacity = adaptive, capacity
		s.metrics.demandEvents.Add(float64(batch.Requests))
		s.metrics.demandLocalHits.Add(float64(batch.LocalHits))
		s.metrics.demandMisses.Add(float64(batch.Requests - batch.CacheHits))
		return &RequestsResponse{Batch: batch, Demand: tp.demandInfo()}, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// AdaptRequest is the (optional) body of POST /v1/topologies/{id}/adapt.
// An empty body runs a plain pass.
type AdaptRequest struct {
	// Explain records the pass's phase spans and returns the breakdown
	// in adaptation.trace.
	Explain bool `json:"explain,omitempty"`
}

// AdaptResponse reports one committed adaptation pass.
type AdaptResponse struct {
	Version    int                         `json:"version"`
	Adaptation *faircache.AdaptationResult `json:"adaptation"`
	Holders    map[int][]int               `json:"holders"`
	Counts     []int                       `json:"counts"`
	Gini       float64                     `json:"gini"`
	Demand     *DemandInfo                 `json:"demand"`
	// TraceID identifies the pass's trace (from the caller's traceparent
	// header, or generated).
	TraceID string `json:"traceId,omitempty"`
}

func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	tp, terr := s.lookupTopology(r.PathValue("id"))
	if terr != nil {
		s.writeError(w, terr)
		return
	}
	var req AdaptRequest
	if r.ContentLength != 0 {
		if err := decodeJSON(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
	}
	ctx := s.startTrace(r.Context(), r, req.Explain)
	v, err := tp.do(ctx, func(cctx context.Context) (any, error) {
		if tp.adaptive == nil {
			return nil, badRequestf("no demand state: report requests before adapting")
		}
		res, err := tp.adaptive.AdaptWith(cctx, &faircache.AdaptRunOptions{Explain: req.Explain})
		if err != nil {
			return nil, err
		}
		snap := &Snapshot{
			Source:  "adapt",
			Chunks:  tp.adaptive.Chunks(),
			Holders: holderMap(tp.adaptive.Placement()),
			Counts:  tp.adaptive.Counts(),
		}
		// The demand stream that produced the placement is deliberately
		// not logged (it is ephemeral observation state).
		if err := s.commit(cctx, tp, WALAdapt, 0, snap); err != nil {
			return nil, err
		}
		s.metrics.adaptPasses.Inc()
		s.metrics.adaptActions.WithLabelValues("evicted").Add(float64(res.Evicted))
		s.metrics.adaptActions.WithLabelValues("placed").Add(float64(res.Placed))
		s.metrics.adaptActions.WithLabelValues("replaced").Add(float64(len(res.Replaced)))
		return &AdaptResponse{
			Version:    snap.Version,
			Adaptation: res,
			Holders:    snap.Holders,
			Counts:     snap.Counts,
			Gini:       metrics.Gini(snap.Counts),
			Demand:     tp.demandInfo(),
			TraceID:    traceIDFrom(cctx),
		}, nil
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}
