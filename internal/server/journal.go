package server

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// WAL record types. Every mutation the service commits is appended to
// the write-ahead log as one JSON-encoded WALRecord *before* the
// in-memory snapshot swap, so a restart can rebuild an identical
// registry.
const (
	WALRegister = "register" // a topology was registered
	WALSolve    = "solve"    // a one-shot solve committed
	WALPublish  = "publish"  // a batch of online publications committed
	WALAdapt    = "adapt"    // a demand adaptation pass committed
	WALDelete   = "delete"   // a topology was unregistered
)

// WALRecord is the JSON payload of one WAL record. Register records
// carry the full generator spec so the graph is rebuilt
// deterministically; solve and publish records carry the complete
// committed snapshot (absolute state, not a delta), so recovery never
// depends on whether earlier records were themselves recorded.
type WALRecord struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	// Register only: the generator spec plus the resolved producer and
	// capacity.
	Kind     string           `json:"kind,omitempty"`
	Spec     *RegisterRequest `json:"spec,omitempty"`
	Producer int              `json:"producer,omitempty"`
	Capacity int              `json:"capacity,omitempty"`
	// Solve, publish and adapt: the full snapshot as committed
	// (including Version, Source, Clock — a publish snapshot is what a
	// restart restores the online system from).
	Snap *Snapshot `json:"snap,omitempty"`
	// Publish only: publications in this batch.
	Count int `json:"count,omitempty"`
}

// WALTopology is one topology's durable state inside a WAL snapshot.
type WALTopology struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Spec     RegisterRequest `json:"spec"`
	Producer int             `json:"producer"`
	Capacity int             `json:"capacity"`
	// Clock is the online system's publication count, the clock
	// recovery restores the online system to.
	Clock int `json:"clock"`
	// Snap is the last committed snapshot, nil when only the
	// registration has committed.
	Snap *Snapshot `json:"snap,omitempty"`
	// Online is the online system's last committed snapshot, the last
	// publish snapshot, kept only while a later solve or adapt has
	// replaced it as Snap. Nil when Snap is that snapshot or nothing has
	// published.
	Online *Snapshot `json:"online,omitempty"`
}

// onlineSnap returns the logged snapshot that holds the online system's
// state: Online when set, else Snap when a publish committed it. It is
// nil when nothing has published, and when a WAL snapshot written before
// Online existed ends a topology on a solve or adapt after a publish.
func (ts *WALTopology) onlineSnap() *Snapshot {
	if ts.Online == nil && ts.Snap != nil && ts.Snap.Source == "publish" {
		return ts.Snap
	}
	return ts.Online
}

// WALState is the payload of a WAL full-state snapshot: the whole
// registry, enough to rebuild every topology without older records.
type WALState struct {
	NextID     int           `json:"nextID"`
	Topologies []WALTopology `json:"topologies"`
}

// walShadow is the journal's in-memory mirror of WALState. It is
// updated on every append (under the journal lock), which makes writing
// a snapshot a pure serialization — no cross-lock scan of the live
// registry, and byte-identical to what replaying the log would yield.
type walShadow struct {
	nextID int
	topos  map[string]*WALTopology
}

func newWalShadow() *walShadow {
	return &walShadow{topos: make(map[string]*WALTopology)}
}

func shadowFromState(st *WALState) *walShadow {
	sh := newWalShadow()
	sh.nextID = st.NextID
	for i := range st.Topologies {
		ts := st.Topologies[i]
		sh.topos[ts.ID] = &ts
	}
	return sh
}

// apply advances the shadow state machine by one record. Recovery and
// live appends run the same transitions, so both agree byte for byte.
func (sh *walShadow) apply(rec *WALRecord) error {
	switch rec.Type {
	case WALRegister:
		if rec.Spec == nil {
			return fmt.Errorf("register record %s has no spec", rec.ID)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "t")); err == nil && n > sh.nextID {
			sh.nextID = n
		}
		sh.topos[rec.ID] = &WALTopology{
			ID:       rec.ID,
			Kind:     rec.Kind,
			Spec:     *rec.Spec,
			Producer: rec.Producer,
			Capacity: rec.Capacity,
		}
	case WALSolve, WALPublish, WALAdapt:
		ts, ok := sh.topos[rec.ID]
		if !ok {
			return fmt.Errorf("%s record for unknown topology %s", rec.Type, rec.ID)
		}
		if rec.Snap == nil {
			return fmt.Errorf("%s record for %s has no snapshot", rec.Type, rec.ID)
		}
		// A publish snapshot is the online system's state; a solve or
		// adapt that replaces it as Snap keeps it as Online.
		if rec.Type == WALPublish {
			ts.Clock = rec.Snap.Clock
			ts.Online = nil
		} else {
			ts.Online = ts.onlineSnap()
		}
		ts.Snap = rec.Snap
	case WALDelete:
		delete(sh.topos, rec.ID)
	default:
		return fmt.Errorf("unknown WAL record type %q", rec.Type)
	}
	return nil
}

// state serializes the shadow into a WALState with deterministic
// (id-sorted) topology order.
func (sh *walShadow) state() *WALState {
	st := &WALState{NextID: sh.nextID}
	ids := make([]string, 0, len(sh.topos))
	for id := range sh.topos {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		st.Topologies = append(st.Topologies, *sh.topos[id])
	}
	return st
}

// foldWAL replays a recovered snapshot plus tail records into the final
// shadow state.
func foldWAL(rec *wal.Recovery) (*walShadow, error) {
	sh := newWalShadow()
	if rec.Snapshot != nil {
		var st WALState
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
			return nil, fmt.Errorf("decoding WAL snapshot: %w", err)
		}
		sh = shadowFromState(&st)
	}
	for i, payload := range rec.Records {
		var r WALRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return nil, fmt.Errorf("decoding WAL record %d: %w", i, err)
		}
		if err := sh.apply(&r); err != nil {
			return nil, fmt.Errorf("replaying WAL record %d: %w", i, err)
		}
	}
	return sh, nil
}

// LoadWALState reads a data directory without opening it for writing
// and returns the registry state a recovery of it would produce. The
// daemon's -inspect mode and the crash-recovery tests use it as an
// independent decode path.
func LoadWALState(dir string) (*WALState, error) {
	rec, err := wal.Scan(dir)
	if err != nil {
		return nil, err
	}
	sh, err := foldWAL(rec)
	if err != nil {
		return nil, err
	}
	return sh.state(), nil
}

// journal couples the WAL with its shadow state and the snapshot
// cadence. A nil *journal is valid and means "in-memory mode": append
// runs the commit callback and nothing else, byte-for-byte today's
// behavior.
type journal struct {
	m *serverMetrics // the owning server's instruments

	mu        sync.Mutex
	log       *wal.Log
	shadow    *walShadow
	sinceSnap int
	every     int // records per snapshot; <= 0 disables auto-snapshots
}

// append logs one record and then runs commit while still holding the
// journal lock, so the WAL write strictly precedes the snapshot swap
// and record order matches commit order across all topologies. When the
// snapshot cadence is reached it also writes a full-state snapshot and
// compacts. On a WAL write error the commit does NOT run: the mutation
// is aborted rather than committed un-durably. When ctx carries a live
// trace (a sampled or explain'd request), the append — lock wait, disk
// write, fsync — is recorded as a "wal.append" span.
func (j *journal) append(ctx context.Context, rec *WALRecord, commit func()) error {
	if j == nil {
		if commit != nil {
			commit()
		}
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding WAL record: %w", err)
	}
	sp := trace.FromContext(ctx).Start("wal.append")
	sp.SetInt("bytes", int64(len(payload)))
	defer sp.End()
	j.mu.Lock()
	defer j.mu.Unlock()
	start := time.Now()
	err = j.log.Append(payload)
	j.m.walAppendDuration.Observe(time.Since(start).Seconds())
	if err != nil {
		j.m.walAppendErrors.Inc()
		return err
	}
	if err := j.shadow.apply(rec); err != nil {
		return err
	}
	if commit != nil {
		commit()
	}
	j.sinceSnap++
	if j.every > 0 && j.sinceSnap >= j.every {
		// The mutation is already durable and committed; a failed
		// snapshot only delays compaction, so it is not a client error.
		if err := j.snapshotLocked(); err != nil {
			j.m.walSnapshotErrors.Inc()
		}
	}
	return nil
}

func (j *journal) snapshotLocked() error {
	payload, err := json.Marshal(j.shadow.state())
	if err != nil {
		return err
	}
	if err := j.log.WriteSnapshot(payload); err != nil {
		return err
	}
	j.sinceSnap = 0
	j.m.walSnapshots.Inc()
	return nil
}

// syncLag reports how long the oldest acknowledged-but-unsynced WAL
// append has waited for an fsync; 0 for a clean log or in-memory mode.
func (j *journal) syncLag() time.Duration {
	if j == nil {
		return 0
	}
	return j.log.SyncLag()
}

// close flushes and closes the WAL. Safe on a nil journal.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
