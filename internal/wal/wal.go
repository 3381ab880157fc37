// Package wal is an append-only write-ahead log with CRC32-framed
// records, monotonic segment files, a configurable fsync policy and
// snapshot-plus-compaction. It is the durability substrate for the
// faircached placement service: every committed mutation is appended as
// one record, periodic full-state snapshots bound replay time, and
// recovery tolerates a torn final record (a crash mid-append) by
// truncating it instead of failing.
//
// On-disk layout (one directory per log):
//
//	seg-00000001.wal   framed records, appended in commit order
//	seg-00000002.wal   segments rotate at MaxSegmentBytes; seqs only grow
//	snap-00000002.snap one framed record holding a full-state snapshot;
//	                   written atomically (tmp + rename), it supersedes
//	                   every segment with seq <= its own
//
// Recovery replays the newest valid snapshot plus every record in
// segments newer than it. Any undecodable suffix of the final segment is
// treated as a torn tail and truncated; an undecodable record anywhere
// else fails recovery with an error wrapping ErrCorrupt.
package wal

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every append: a record is durable before
	// the mutation it logs is acknowledged.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs dirty segments from a background ticker every
	// syncInterval: bounded data loss, near in-memory append speed.
	SyncInterval
	// SyncNever leaves flushing to the operating system (plus one fsync
	// on rotation, snapshot and close).
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always", "interval" and
// "never" onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// syncInterval is the SyncInterval flusher's period.
const syncInterval = 100 * time.Millisecond

// Options configures a Log. Dir is required; zero values elsewhere mean
// SyncAlways, 4MiB segments and a silent logger.
type Options struct {
	Dir             string
	Policy          SyncPolicy
	MaxSegmentBytes int64
	// Logger receives leveled operational records (recovery outcome,
	// torn-tail truncation, segment rotation, snapshot compaction). nil
	// keeps the log silent — the library never writes to a default sink.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	return o
}

// logger returns the configured logger or a discard-all fallback.
func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.New(discardHandler{})
}

// discardHandler drops every record; the stdlib gains slog.DiscardHandler
// only in go 1.24, so carry a two-line equivalent.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Recovery is what Open (or the read-only Scan) reconstructed from a log
// directory: the newest valid snapshot payload, every record payload
// appended after it in order, and how many bytes of a torn final record
// were dropped.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload, nil if none exists.
	Snapshot []byte
	// SnapshotSeq is the segment seq the snapshot superseded (0 = none).
	SnapshotSeq uint64
	// Records are the payloads of segments newer than the snapshot, in
	// append order.
	Records [][]byte
	// TruncatedBytes counts bytes of the final segment dropped as a torn
	// tail (0 when the log ends cleanly).
	TruncatedBytes int64
	// Segments is the number of segment files replayed.
	Segments int
}

// Log is an open write-ahead log. Append, Sync, WriteSnapshot and Close
// are safe for concurrent use.
type Log struct {
	opts Options
	log  *slog.Logger

	mu         sync.Mutex
	f          *os.File // active segment
	seq        uint64   // active segment's sequence number
	size       int64
	dirty      bool      // bytes written since the last fsync
	dirtySince time.Time // when the oldest unsynced append landed
	closed     bool

	done chan struct{} // stops the SyncInterval flusher
	wg   sync.WaitGroup
}

func segName(seq uint64) string  { return fmt.Sprintf("seg-%08d.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// scanResult is the full read-only picture of a log directory.
type scanResult struct {
	rec        Recovery
	staleSegs  []uint64 // segments superseded by the snapshot
	staleSnaps []uint64 // snapshots older than the chosen one
	lastSeq    uint64   // seq of the final replayed segment (0 = none)
	lastValid  int64    // valid byte count of that segment
	lastTorn   bool     // final segment ends in an undecodable tail
}

// scanDir reads a log directory without modifying it.
func scanDir(dir string) (*scanResult, error) {
	res := &scanResult{}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "seg-%d.wal", &seq); n == 1 && err == nil {
			segs = append(segs, seq)
		} else if n, err := fmt.Sscanf(e.Name(), "snap-%d.snap", &seq); n == 1 && err == nil {
			snaps = append(snaps, seq)
		}
	}
	slices.Sort(segs)
	slices.Sort(snaps)

	// Newest snapshot that decodes cleanly wins; older ones are stale.
	for i := len(snaps) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, snapName(snaps[i])))
		if err != nil {
			continue
		}
		payload, _, derr := DecodeRecord(data)
		if derr != nil {
			continue
		}
		res.rec.Snapshot = payload
		res.rec.SnapshotSeq = snaps[i]
		res.staleSnaps = snaps[:i]
		break
	}

	var replay []uint64
	for _, seq := range segs {
		if seq <= res.rec.SnapshotSeq {
			res.staleSegs = append(res.staleSegs, seq)
		} else {
			replay = append(replay, seq)
		}
	}
	for i, seq := range replay {
		if want := replay[0] + uint64(i); seq != want {
			return nil, fmt.Errorf("wal: segment gap: have %s, want %s", segName(seq), segName(want))
		}
	}
	if len(replay) > 0 && res.rec.Snapshot != nil && replay[0] != res.rec.SnapshotSeq+1 {
		return nil, fmt.Errorf("wal: segment gap after snapshot %d: first segment is %d", res.rec.SnapshotSeq, replay[0])
	}

	for i, seq := range replay {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		last := i == len(replay)-1
		off := 0
		for {
			payload, n, derr := DecodeRecord(data[off:])
			if derr == io.EOF {
				break
			}
			if derr != nil {
				if !last {
					return nil, fmt.Errorf("wal: %s at offset %d: %w", segName(seq), off, derr)
				}
				// Torn tail: a crash mid-append left an incomplete (or
				// garbage) final record. Recovery keeps the clean prefix.
				res.rec.TruncatedBytes = int64(len(data) - off)
				res.lastTorn = true
				break
			}
			res.rec.Records = append(res.rec.Records, payload)
			off += n
		}
		if last {
			res.lastSeq = seq
			res.lastValid = int64(off)
		}
	}
	res.rec.Segments = len(replay)
	return res, nil
}

// Scan reads a log directory without opening it for writing and without
// modifying anything — no truncation, no compaction. Tools (inspection,
// tests) use it to see exactly what Open would recover.
func Scan(dir string) (*Recovery, error) {
	res, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	return &res.rec, nil
}

// Open recovers a log directory (creating it if needed) and opens it for
// appending. A torn final record is truncated away; segments and
// snapshots superseded by the newest snapshot are deleted (finishing any
// compaction a crash interrupted).
func Open(opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	res, err := scanDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	logger := opts.logger()
	if res.lastTorn {
		if err := os.Truncate(filepath.Join(opts.Dir, segName(res.lastSeq)), res.lastValid); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		logger.Warn("wal truncated torn tail",
			"segment", segName(res.lastSeq),
			"droppedBytes", res.rec.TruncatedBytes)
	}
	for _, seq := range res.staleSegs {
		_ = os.Remove(filepath.Join(opts.Dir, segName(seq)))
	}
	for _, seq := range res.staleSnaps {
		_ = os.Remove(filepath.Join(opts.Dir, snapName(seq)))
	}
	logger.Info("wal recovered",
		"dir", opts.Dir,
		"segments", res.rec.Segments,
		"records", len(res.rec.Records),
		"snapshot", res.rec.Snapshot != nil)

	l := &Log{opts: opts, log: logger}
	if res.lastSeq > 0 {
		f, err := os.OpenFile(filepath.Join(opts.Dir, segName(res.lastSeq)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.seq, l.size = f, res.lastSeq, res.lastValid
	} else {
		if err := l.createSegment(res.rec.SnapshotSeq + 1); err != nil {
			return nil, nil, err
		}
	}
	if opts.Policy == SyncInterval {
		l.done = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, &res.rec, nil
}

// createSegment opens a fresh segment file and makes it the active one.
// Caller holds l.mu (or the log is not yet shared).
func (l *Log) createSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.seq, l.size, l.dirty = f, seq, 0, false
	return l.syncDir()
}

// syncDir fsyncs the log directory so file creations, renames and
// removals are themselves durable.
func (l *Log) syncDir() error {
	d, err := os.Open(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Append writes one record. Durability on return depends on the sync
// policy: guaranteed for SyncAlways, bounded by syncInterval for
// SyncInterval, up to the OS for SyncNever.
func (l *Log) Append(payload []byte) error {
	frame, err := EncodeRecord(payload)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.size > 0 && l.size+int64(len(frame)) > l.opts.MaxSegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size += int64(len(frame))
	if !l.dirty {
		l.dirty = true
		l.dirtySince = time.Now()
	}
	if l.opts.Policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// SyncLag reports how long the oldest unsynced append has been waiting
// for an fsync — 0 when every record is on stable storage. It is the
// upper bound on acknowledged-but-volatile history under the interval
// and never policies.
func (l *Log) SyncLag() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty {
		return 0
	}
	return time.Since(l.dirtySince)
}

// Sync forces dirty appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.dirty = false
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sealed := l.seq
	if err := l.createSegment(l.seq + 1); err != nil {
		return err
	}
	l.log.Debug("wal rotated segment", "sealed", segName(sealed), "active", segName(l.seq))
	return nil
}

// WriteSnapshot atomically persists a full-state snapshot (tmp file,
// fsync, rename, directory fsync), rotates to a fresh segment, then
// compacts: every segment the snapshot supersedes and every older
// snapshot is deleted. After WriteSnapshot returns, recovery replays the
// snapshot plus only the records appended after this call.
func (l *Log) WriteSnapshot(payload []byte) error {
	frame, err := EncodeRecord(payload)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	oldSeq := l.seq
	final := filepath.Join(l.opts.Dir, snapName(oldSeq))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, frame); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	// The snapshot is durable; everything at or before oldSeq is now
	// redundant. Rotate first so the active segment outlives compaction.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	for seq := oldSeq; seq >= 1; seq-- {
		p := filepath.Join(l.opts.Dir, segName(seq))
		if err := os.Remove(p); err != nil {
			break // older segments were already compacted away
		}
	}
	for seq := oldSeq - 1; seq >= 1; seq-- {
		if err := os.Remove(filepath.Join(l.opts.Dir, snapName(seq))); err != nil {
			break
		}
	}
	l.log.Info("wal snapshot written", "snapshot", snapName(oldSeq), "bytes", len(frame), "compactedThrough", segName(oldSeq))
	return l.syncDir()
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes and closes the log. Safe to call more than once; the
// log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.done != nil {
		close(l.done)
		l.wg.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Entry is one item of a read-only directory listing: a snapshot record,
// a segment record, or a decoding problem (Err non-empty; listing of
// that file stops there).
type Entry struct {
	File    string
	Seq     uint64
	Kind    string // "snapshot" or "record"
	Offset  int64
	Payload []byte
	Err     string
}

// List walks every snapshot and segment file in seq order and returns
// one Entry per record, read-only. Unlike Scan it reports stale files
// too — it is the raw material for an inspection listing.
func List(dir string) ([]Entry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	type file struct {
		seq  uint64
		snap bool
		name string
	}
	var files []file
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "seg-%d.wal", &seq); n == 1 && err == nil {
			files = append(files, file{seq, false, e.Name()})
		} else if n, err := fmt.Sscanf(e.Name(), "snap-%d.snap", &seq); n == 1 && err == nil {
			files = append(files, file{seq, true, e.Name()})
		}
	}
	slices.SortFunc(files, func(a, b file) int {
		if a.seq != b.seq {
			return cmp.Compare(a.seq, b.seq)
		}
		// Snapshot precedes the segment it starts; replay depends on it.
		switch {
		case a.snap == b.snap:
			return 0
		case a.snap:
			return -1
		default:
			return 1
		}
	})
	var out []Entry
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		kind := "record"
		if f.snap {
			kind = "snapshot"
		}
		off := 0
		for {
			payload, n, derr := DecodeRecord(data[off:])
			if derr == io.EOF {
				break
			}
			if derr != nil {
				out = append(out, Entry{File: f.name, Seq: f.seq, Kind: kind, Offset: int64(off), Err: derr.Error()})
				break
			}
			out = append(out, Entry{File: f.name, Seq: f.seq, Kind: kind, Offset: int64(off), Payload: payload})
			off += n
		}
	}
	return out, nil
}
