package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	faircache "repro"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wal"
)

// traceServe re-runs the schedule against a daemon restarted on a fresh
// copy of the history with the span-recording wrapper, then replays each
// request's layers: BFS for lookups, the fairness metrics for reports,
// and for publishes the online placement, its snapshot and a WAL append
// with the daemon's fsync policy. Replayed publications must match the
// daemon's byte for byte.
func traceServe(ctx context.Context, cfg config, rep *report, in *serveInputs, history, id string, untraced *servePass) error {
	tr := newTracer()
	sd, err := setupServe(ctx, history, filepath.Join(cfg.dir, "traced"), id, tr.rec)
	if err != nil {
		return err
	}
	tr.rec.add("wal.recover", "", -1, 0, int64(sd.recover))
	before, err := sd.scrape(ctx)
	if err != nil {
		sd.close()
		return err
	}
	tr.startGC()
	pass, err := sd.openLoop(ctx, in)
	tr.stopGC()
	if err != nil {
		sd.close()
		return err
	}
	after, err := sd.scrape(ctx)
	sd.close()
	if err != nil {
		return err
	}
	pass.check(rep, in, sd.initial)
	if c := after["faircached_wal_append_duration_seconds_count"] - before["faircached_wal_append_duration_seconds_count"]; c > 0 {
		tr.derived["wal.daemon_append_ms"] = 1e3 * (after["faircached_wal_append_duration_seconds_sum"] - before["faircached_wal_append_duration_seconds_sum"]) / c
	}

	if err := replayServe(ctx, tr, rep, cfg, in, sd, pass); err != nil {
		return err
	}
	untracedSum := make(map[string]summary)
	tracedSum := make(map[string]summary)
	for k := range pass.lat {
		untracedSum[k] = untraced.lat[k].summarize()
		tracedSum[k] = pass.lat[k].summarize()
		rep.logf("%s latency untraced: %s", k, untracedSum[k])
		rep.logf("%s latency traced:   %s", k, tracedSum[k])
	}
	return tr.finish(rep, untracedSum, tracedSum, filepath.Join(cfg.spansDir, fmt.Sprintf("serve-seed%d.jsonl", cfg.seed)))
}

func replayServe(ctx context.Context, tr *tracer, rep *report, cfg config, in *serveInputs, sd *serveDaemon, pass *servePass) error {
	rec := tr.rec
	topo, err := buildTopology(serveTopo)
	if err != nil {
		return err
	}
	online, err := faircache.NewOnline(topo, in.producer, &faircache.Options{Capacity: serveTopo.Capacity, ChunkTTL: serveTopo.ChunkTTL})
	if err != nil {
		return err
	}
	for c := 0; c < serveHistory; c++ {
		if _, err := online.Publish(); err != nil {
			return fmt.Errorf("replaying history: %w", err)
		}
	}
	walDir, err := cfg.subdir("replay-wal")
	if err != nil {
		return err
	}
	log, _, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()

	// Publications replay in commit order.
	pubs := make([]int, 0, len(pass.publish))
	for i := range pass.publish {
		pubs = append(pubs, i)
	}
	sort.Slice(pubs, func(a, b int) bool { return pass.publish[pubs[a]].Version < pass.publish[pubs[b]].Version })
	publications := 0
	for _, i := range pubs {
		resp := pass.publish[i]
		req := fmt.Sprintf("publish-%d", i)
		root := rec.start("replay", req, -1)
		body, _ := json.Marshal(&server.PublishRequest{Count: 1})
		sp := rec.start("server.decode", req, root)
		var dec server.PublishRequest
		err := json.Unmarshal(body, &dec)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("online.publish", req, root)
		pub, err := online.PublishCtx(ctx)
		rec.end(sp)
		if err != nil {
			return err
		}
		tr.count("online.expired", float64(len(pub.Expired)))
		sp = rec.start("online.snapshot", req, root)
		snap := online.Snapshot()
		rec.end(sp)
		publications++
		a, _ := json.Marshal(snap.Holders)
		b, _ := json.Marshal(resp.Holders)
		if string(a) != string(b) || pub.Chunk != resp.Publications[0].Chunk {
			rep.fail("publish", "request %d: replayed publication %d differs from the daemon's", i, pub.Chunk)
		}
		payload, err := json.Marshal(&server.WALRecord{Type: server.WALPublish, ID: sd.id, Count: 1, Snap: &server.Snapshot{
			Version: resp.Version, Source: "publish", Producer: in.producer, Chunks: snap.Published,
			Holders: snap.Holders, Counts: snap.Counts, Clock: snap.Clock, Publications: serveHistory + publications,
		}})
		if err != nil {
			return err
		}
		tr.count("wal.record_bytes", float64(len(payload)))
		sp = rec.start("wal.append", req, root)
		err = log.Append(payload)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("server.encode", req, root)
		_, err = json.Marshal(resp)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return err
		}
	}
	for i, resp := range pass.lookups {
		req := fmt.Sprintf("lookup-%d", i)
		root := rec.start("replay", req, -1)
		sp := rec.start("graph.hop_distances", req, root)
		_, err := topo.HopDistances(resp.Node)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("server.encode", req, root)
		_, err = json.Marshal(resp)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return err
		}
	}
	for i, resp := range pass.reports {
		req := fmt.Sprintf("report-%d", i)
		counts := resp.Snapshot.Counts
		root := rec.start("replay", req, -1)
		sp := rec.start("metrics.report", req, root)
		metrics.Gini(counts)
		_, err := metrics.PercentileFairness(counts, 75)
		metrics.StorageCurve(counts)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("server.encode", req, root)
		_, err = json.Marshal(resp)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return err
		}
	}
	// A full-state snapshot of the daemon's final WAL state, as the
	// journal writes one every 256 records.
	st, err := server.LoadWALState(sd.dir)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	for k := 0; k < 5; k++ {
		sp := rec.start("wal.snapshot", "", -1)
		err = log.WriteSnapshot(payload)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	rep.logf("replay: %d publications, %d lookups, %d reports; publications compared byte for byte", len(pubs), len(pass.lookups), len(pass.reports))
	return nil
}
