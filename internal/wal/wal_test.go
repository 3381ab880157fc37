package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	opts.Dir = dir
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func payloads(rec *Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	for _, p := range []string{"", "a", "hello world", string(bytes.Repeat([]byte{0xff}, 4096))} {
		frame, err := EncodeRecord([]byte(p))
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, n, err := DecodeRecord(frame)
		if err != nil || n != len(frame) || string(got) != p {
			t.Fatalf("roundtrip %q: got %q n=%d err=%v", p, got, n, err)
		}
	}
	if _, _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty buffer should return io.EOF")
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTest(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendAll(t, l, "one", "two", "three")
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, rec = openTest(t, dir, Options{})
	want := []string{"one", "two", "three"}
	if got := payloads(rec); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", rec.TruncatedBytes)
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	appendAll(t, l, "keep-1", "keep-2", "torn-victim")
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Chop bytes off the final record, simulating a crash mid-append.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	l, rec := openTest(t, dir, Options{})
	if got := payloads(rec); len(got) != 2 || got[0] != "keep-1" || got[1] != "keep-2" {
		t.Fatalf("replayed %v, want the two intact records", got)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The log must keep working after truncation: append, reopen, replay.
	appendAll(t, l, "after-torn")
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, rec = openTest(t, dir, Options{})
	if got := payloads(rec); len(got) != 3 || got[2] != "after-torn" {
		t.Fatalf("replay after torn-tail repair: %v", got)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatal("repaired log still reports truncation")
	}
}

func TestCorruptionMidSegmentFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{MaxSegmentBytes: 64})
	// Small segments force rotation: corruption lands in a non-final
	// segment, which recovery must refuse to skip silently.
	appendAll(t, l, "aaaaaaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbbbbbb", "cccccccccccccccccccccccc")
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+2] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestSegmentsRotateMonotonically(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{MaxSegmentBytes: 64})
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("record-%02d-padding-padding", i))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(names) < 3 {
		t.Fatalf("expected >= 3 rotated segments, got %v", names)
	}
	for i, name := range names {
		if want := filepath.Join(dir, segName(uint64(i+1))); name != want {
			t.Fatalf("segment %d is %s, want %s", i, name, want)
		}
	}
	_, rec := openTest(t, dir, Options{})
	if len(rec.Records) != 10 || rec.Segments < 3 {
		t.Fatalf("replayed %d records over %d segments", len(rec.Records), rec.Segments)
	}
}

func TestSnapshotCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{MaxSegmentBytes: 64})
	for i := 0; i < 6; i++ {
		appendAll(t, l, fmt.Sprintf("pre-snapshot-record-%02d", i))
	}
	if err := l.WriteSnapshot([]byte("STATE-AT-6")); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	appendAll(t, l, "tail-1", "tail-2")
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Pre-snapshot segments must be gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("compaction left segments %v, want exactly the post-snapshot one", segs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v, want 1", snaps)
	}

	_, rec := openTest(t, dir, Options{})
	if string(rec.Snapshot) != "STATE-AT-6" {
		t.Fatalf("snapshot payload %q", rec.Snapshot)
	}
	if got := payloads(rec); len(got) != 2 || got[0] != "tail-1" || got[1] != "tail-2" {
		t.Fatalf("tail records %v, want [tail-1 tail-2]", got)
	}
}

func TestSecondSnapshotSupersedesFirst(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	appendAll(t, l, "a")
	if err := l.WriteSnapshot([]byte("S1")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "b")
	if err := l.WriteSnapshot([]byte("S2")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "c")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openTest(t, dir, Options{})
	if string(rec.Snapshot) != "S2" {
		t.Fatalf("snapshot %q, want S2", rec.Snapshot)
	}
	if got := payloads(rec); len(got) != 1 || got[0] != "c" {
		t.Fatalf("records %v, want [c]", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openTest(t, dir, Options{Policy: policy})
			appendAll(t, l, "p1", "p2")
			if policy == SyncInterval {
				time.Sleep(syncInterval * 3 / 2) // let the flusher run
			}
			if err := l.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			_, rec := openTest(t, dir, Options{})
			if got := payloads(rec); len(got) != 2 {
				t.Fatalf("replayed %v", got)
			}
		})
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy should reject unknown spellings")
	}
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseSyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, p, err)
		}
	}
}

func TestScanIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	appendAll(t, l, "x", "y")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(dir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(rec.Records) != 1 || rec.TruncatedBytes == 0 {
		t.Fatalf("scan of torn log: %d records, %d truncated", len(rec.Records), rec.TruncatedBytes)
	}
	after, _ := os.ReadFile(seg)
	if len(after) != len(data)-2 {
		t.Fatal("Scan modified the segment file")
	}
}

func TestListEnumeratesRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	appendAll(t, l, "r1")
	if err := l.WriteSnapshot([]byte("SNAP")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "r2", "r3")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := List(dir)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var kinds []string
	for _, e := range entries {
		kinds = append(kinds, e.Kind+":"+string(e.Payload))
	}
	want := []string{"snapshot:SNAP", "record:r2", "record:r3"}
	if len(kinds) != len(want) {
		t.Fatalf("entries %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

// TestRecoverTruncatedAtEveryOffset cuts a copy of a log at every byte
// offset of its segments, read as one stream, the way a crash can leave
// it: the segments after the offset are gone and the one holding it ends
// there. At a segment boundary the cut is taken both without and with an
// empty next segment file (a crash right after rotation created it). One
// log spans several segments; the other is a snapshot followed by
// segments. Open must recover exactly the records written wholly before
// the offset, Scan must agree with it, and the log must take an append
// that a reopen returns after that prefix.
func TestRecoverTruncatedAtEveryOffset(t *testing.T) {
	for _, withSnapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", withSnapshot), func(t *testing.T) {
			src := t.TempDir()
			l, _ := openTest(t, src, Options{MaxSegmentBytes: 128, Policy: SyncNever})
			var snapshot string
			if withSnapshot {
				appendAll(t, l, "superseded-1", "superseded-2")
				snapshot = "state-after-2"
				if err := l.WriteSnapshot([]byte(snapshot)); err != nil {
					t.Fatal(err)
				}
			}
			var written []string
			var ends []int // ends[k]: stream offset where record k's frame ends
			stream := 0
			for k := 0; k < 25; k++ {
				p := fmt.Sprintf("record-%02d-%s", k, strings.Repeat("x", 3*(k%5)))
				appendAll(t, l, p)
				written = append(written, p)
				stream += headerSize + len(p)
				ends = append(ends, stream)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			type segment struct {
				seq  uint64
				data []byte
			}
			var segs []segment
			var snapFiles []string
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries { // sorted by name, so by seq
				var seq uint64
				if n, _ := fmt.Sscanf(e.Name(), "seg-%d.wal", &seq); n == 1 {
					data, err := os.ReadFile(filepath.Join(src, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					segs = append(segs, segment{seq, data})
				} else {
					snapFiles = append(snapFiles, e.Name())
				}
			}
			// A cut at a segment boundary may also leave the next file.
			boundary := map[int]bool{}
			total := 0
			for _, sg := range segs {
				boundary[total] = true
				total += len(sg.data)
			}
			boundary[total] = true
			wantSnaps := 0
			if withSnapshot {
				wantSnaps = 1
			}
			if len(segs) < 4 || total != stream || len(snapFiles) != wantSnaps {
				t.Fatalf("built %d segments of %d bytes (want %d) and other files %v", len(segs), total, stream, snapFiles)
			}

			dir := filepath.Join(t.TempDir(), "cut")
			for off := 0; off <= total; off++ {
				variants := []bool{false}
				if boundary[off] {
					variants = append(variants, true)
				}
				for _, emptyNext := range variants {
					if err := os.RemoveAll(dir); err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					for _, name := range snapFiles {
						data, err := os.ReadFile(filepath.Join(src, name))
						if err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					// Keep every segment that starts before off, the one
					// holding off only up to it.
					start, next := 0, segs[0].seq
					for _, sg := range segs {
						if start >= off {
							break
						}
						keep := min(len(sg.data), off-start)
						if err := os.WriteFile(filepath.Join(dir, segName(sg.seq)), sg.data[:keep], 0o644); err != nil {
							t.Fatal(err)
						}
						start += len(sg.data)
						next = sg.seq + 1
					}
					if emptyNext {
						if err := os.WriteFile(filepath.Join(dir, segName(next)), nil, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					where := fmt.Sprintf("offset %d/%d, empty next segment %v", off, total, emptyNext)

					var want []string
					for k, end := range ends {
						if end <= off {
							want = append(want, written[k])
						}
					}
					check := func(what string, rec *Recovery, want []string) {
						t.Helper()
						if got := payloads(rec); !slices.Equal(got, want) {
							t.Fatalf("%s: %s recovered %q, want %q", where, what, got, want)
						}
						if string(rec.Snapshot) != snapshot {
							t.Fatalf("%s: %s recovered snapshot %q, want %q", where, what, rec.Snapshot, snapshot)
						}
					}
					scanned, err := Scan(dir)
					if err != nil {
						t.Fatalf("%s: Scan: %v", where, err)
					}
					check("Scan", scanned, want)
					l, rec, err := Open(Options{Dir: dir, MaxSegmentBytes: 128, Policy: SyncNever})
					if err != nil {
						t.Fatalf("%s: Open: %v", where, err)
					}
					check("Open", rec, want)
					if err := l.Append([]byte("appended")); err != nil {
						t.Fatalf("%s: Append: %v", where, err)
					}
					if err := l.Close(); err != nil {
						t.Fatalf("%s: Close: %v", where, err)
					}
					l, rec, err = Open(Options{Dir: dir})
					if err != nil {
						t.Fatalf("%s: reopen: %v", where, err)
					}
					check("reopen", rec, append(want, "appended"))
					if err := l.Close(); err != nil {
						t.Fatalf("%s: Close after reopen: %v", where, err)
					}
				}
			}
		})
	}
}
