package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

func k(s string) keyspace.Key { return keyspace.NewKey(s) }

func e(kind, value string) overlay.Entry { return overlay.Entry{Kind: kind, Value: value} }

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestCrashRestartRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if _, err := s.Put(k("a"), e("index", "one")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("a"), e("index", "two")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("b"), e("data", "msd")); err != nil {
		t.Fatal(err)
	}
	if added, err := s.Put(k("a"), e("index", "one")); err != nil || added {
		t.Fatalf("duplicate put: added=%v err=%v", added, err)
	}
	if removed, err := s.Remove(k("a"), e("index", "two")); err != nil || !removed {
		t.Fatalf("remove: removed=%v err=%v", removed, err)
	}
	if err := s.Replace(k("c"), []overlay.Entry{e("data", "x"), e("data", "y")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace(k("b"), nil, nil); err != nil { // delete
		t.Fatal(err)
	}
	// Simulate a crash: do NOT Close — reopen from disk as-is.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Get(k("a")); len(got) != 1 || got[0] != e("index", "one") {
		t.Fatalf("key a after restart: %v", got)
	}
	if got := r.Get(k("b")); got != nil {
		t.Fatalf("deleted key b resurrected: %v", got)
	}
	if got := r.Get(k("c")); len(got) != 2 {
		t.Fatalf("key c after restart: %v", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len after restart = %d, want 2", r.Len())
	}
	st := r.RecoveryStats()
	if st.ReplayedRecords != 6 || st.TornRecords != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if _, err := s.Put(k("a"), e("index", "keep")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("b"), e("index", "torn")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop bytes off the end of the WAL.
	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	if got := r.Get(k("a")); len(got) != 1 {
		t.Fatalf("surviving record lost: %v", got)
	}
	if got := r.Get(k("b")); got != nil {
		t.Fatalf("torn record partially applied: %v", got)
	}
	st := r.RecoveryStats()
	if st.TornRecords != 1 || st.ReplayedRecords != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	// The torn tail must be gone from disk: a write-then-reopen cycle
	// replays cleanly with no further torn records.
	if _, err := r.Put(k("c"), e("index", "after")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if st := r2.RecoveryStats(); st.TornRecords != 0 || st.ReplayedRecords != 2 {
		t.Fatalf("post-truncation recovery stats: %+v", st)
	}
}

func TestCorruptChecksumStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if _, err := s.Put(k("a"), e("index", "ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("b"), e("index", "corrupt")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a payload bit in the last record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Get(k("a")); len(got) != 1 {
		t.Fatalf("record before corruption lost: %v", got)
	}
	if got := r.Get(k("b")); got != nil {
		t.Fatalf("checksum-corrupt record applied: %v", got)
	}
	if st := r.RecoveryStats(); st.TornRecords != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
}

func TestSnapshotCompactionAndSeqSkip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: -1})
	for i := 0; i < 10; i++ {
		if _, err := s.Put(k("key"+string(rune('a'+i))), e("index", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("post"), e("index", "after-snap")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	if r.Len() != 11 {
		t.Fatalf("Len after compacted restart = %d, want 11", r.Len())
	}
	st := r.RecoveryStats()
	if st.SnapshotKeys != 10 || st.ReplayedRecords != 1 || st.SkippedRecords != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window: snapshot renamed into place but WAL not yet
	// rotated. Fake it by snapshotting and then restoring the
	// pre-snapshot WAL — its records' sequences are covered by the
	// snapshot and must be skipped, not double-applied.
	s2 := mustOpen(t, dir, Options{SnapshotEvery: -1})
	oldWAL, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if r2.Len() != 11 {
		t.Fatalf("Len after crash-window restart = %d, want 11", r2.Len())
	}
	st = r2.RecoveryStats()
	if st.SkippedRecords != 1 || st.ReplayedRecords != 0 {
		t.Fatalf("crash-window recovery stats: %+v", st)
	}
}

// TestAutoCompaction: the write that brings the WAL to SnapshotEvery
// records starts a compaction, which runs in the background; the test
// waits for each one, so they fire at records 4 and 8.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: 4})
	for i := 0; i < 10; i++ {
		if err := s.Replace(k("x"), []overlay.Entry{e("index", string(rune('0'+i)))}, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.waitCompaction(); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	walRecords := s.walRecords
	s.mu.Unlock()
	if walRecords != 2 || s.c.snapWrites.Value() != 2 {
		t.Fatalf("WAL not compacted: %d records after %d snapshots, want 2 after 2", walRecords, s.c.snapWrites.Value())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Get(k("x")); len(got) != 1 || got[0] != e("index", "9") {
		t.Fatalf("latest value lost across compaction: %v", got)
	}
}

func TestAppendErrorRefusesWrite(t *testing.T) {
	dir := t.TempDir()
	fail := errors.New("disk full")
	arm := false
	s := mustOpen(t, dir, Options{Faults: Faults{AppendErr: func() error {
		if arm {
			return fail
		}
		return nil
	}}})
	if _, err := s.Put(k("a"), e("index", "ok")); err != nil {
		t.Fatal(err)
	}
	arm = true
	if _, err := s.Put(k("b"), e("index", "lost")); !errors.Is(err, fail) {
		t.Fatalf("Put under append fault: err=%v", err)
	}
	if got := s.Get(k("b")); got != nil {
		t.Fatalf("refused write visible in memory: %v", got)
	}
	if removed, err := s.Remove(k("a"), e("index", "ok")); err == nil || removed {
		t.Fatalf("Remove under append fault: removed=%v err=%v", removed, err)
	}
	if got := s.Get(k("a")); len(got) != 1 {
		t.Fatalf("failed remove mutated memory: %v", got)
	}
	arm = false
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Get(k("a")); len(got) != 1 {
		t.Fatalf("acked write lost: %v", got)
	}
	if got := r.Get(k("b")); got != nil {
		t.Fatalf("unacked write recovered into memory: %v", got)
	}
}

// cutWriter is a WAL file whose next failWrites writes stop half-way
// through the frame and report an error — a disk filling up — and whose
// Truncate and ReadAt can be made to fail too.
type cutWriter struct {
	*os.File
	failWrites   int
	failTruncate bool
	failReadAt   bool
}

var errDiskFull = errors.New("disk full")

func (w *cutWriter) Write(b []byte) (int, error) {
	if w.failWrites == 0 {
		return w.File.Write(b)
	}
	w.failWrites--
	n, _ := w.File.Write(b[:len(b)/2])
	return n, errDiskFull
}

func (w *cutWriter) Truncate(size int64) error {
	if w.failTruncate {
		return errors.New("truncate: I/O error")
	}
	return w.File.Truncate(size)
}

func (w *cutWriter) ReadAt(b []byte, off int64) (int, error) {
	if w.failReadAt {
		return 0, errors.New("read: I/O error")
	}
	return w.File.ReadAt(b, off)
}

// TestFailedWALWriteIsRolledBack: a write that fails mid-frame must not
// leave the half frame in the log — replay stops at a torn frame, so
// every put acked after it would be dropped at the next open. When the
// half frame cannot be cut off, nothing more may be acked.
func TestFailedWALWriteIsRolledBack(t *testing.T) {
	put := func(t *testing.T, s *Store, name string) error {
		t.Helper()
		added, err := s.Put(k(name), e("index", name))
		if err == nil && !added {
			t.Fatalf("put %s: acked but not added", name)
		}
		return err
	}
	t.Run("later acks survive reopen", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		if err := put(t, s, "before"); err != nil {
			t.Fatal(err)
		}
		s.wal = &cutWriter{File: s.wal.(*os.File), failWrites: 1}
		if err := put(t, s, "cut"); !errors.Is(err, errDiskFull) {
			t.Fatalf("put over a failing write: err=%v", err)
		}
		if got := s.Get(k("cut")); got != nil {
			t.Fatalf("refused put visible in memory: %v", got)
		}
		acked := []string{"before", "after-1", "after-2", "cut"} // the refused put, retried, is acked too
		for _, name := range acked[1:] {
			if err := put(t, s, name); err != nil {
				t.Fatalf("put %s after the failed write: %v", name, err)
			}
		}
		if removed, err := s.Remove(k("after-1"), e("index", "after-1")); err != nil || !removed {
			t.Fatalf("remove after the failed write: removed=%v err=%v", removed, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{})
		defer r.Close()
		if st := r.RecoveryStats(); st.TornRecords != 0 || st.ReplayedRecords != 5 {
			t.Fatalf("recovery stats: %+v, want 5 replayed and nothing torn", st)
		}
		for _, name := range acked {
			want := 1
			if name == "after-1" {
				want = 0
			}
			if got := r.Get(k(name)); len(got) != want {
				t.Fatalf("key %s after reopen: %v, want %d entries", name, got, want)
			}
		}
	})
	t.Run("no ack after a failed rollback", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		if err := put(t, s, "before"); err != nil {
			t.Fatal(err)
		}
		s.wal = &cutWriter{File: s.wal.(*os.File), failWrites: 1, failTruncate: true}
		if err := put(t, s, "cut"); !errors.Is(err, errDiskFull) {
			t.Fatalf("put over a failing write: err=%v", err)
		}
		for _, name := range []string{"after", "cut"} {
			if err := put(t, s, name); err == nil {
				t.Fatalf("put %s acked behind a torn frame", name)
			}
			if got := s.Get(k(name)); got != nil {
				t.Fatalf("refused put %s visible in memory: %v", name, got)
			}
		}
		if _, err := s.Remove(k("before"), e("index", "before")); err == nil {
			t.Fatal("remove acked behind a torn frame")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{})
		defer r.Close()
		if st := r.RecoveryStats(); st.TornRecords != 1 || st.ReplayedRecords != 1 {
			t.Fatalf("recovery stats: %+v, want the one acked put and the torn frame", st)
		}
		if got := r.Get(k("before")); len(got) != 1 {
			t.Fatalf("acked put lost: %v", got)
		}
	})
	// A rotation builds the new log beside the old one and renames it in
	// last: one that fails on the way leaves the old log whole, in use,
	// and no wal.tmp behind.
	t.Run("a failed rotation leaves the old log whole", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{SnapshotEvery: -1})
		if err := put(t, s, "before"); err != nil {
			t.Fatal(err)
		}
		s.wal = &cutWriter{File: s.wal.(*os.File), failReadAt: true}
		if err := s.Snapshot(); err == nil {
			t.Fatal("Snapshot over a failing rotation reported success")
		}
		if _, err := os.Stat(filepath.Join(dir, walTmpFile)); !os.IsNotExist(err) {
			t.Fatalf("failed rotation left %s behind: %v", walTmpFile, err)
		}
		if err := put(t, s, "after"); err != nil {
			t.Fatalf("put after a failed rotation: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{})
		defer r.Close()
		// The snapshot went in before the rotation failed: the old log's
		// first record is covered by it, the second is replayed.
		if st := r.RecoveryStats(); st.SkippedRecords != 1 || st.ReplayedRecords != 1 || st.TornRecords != 0 {
			t.Fatalf("recovery stats: %+v, want 1 skipped, 1 replayed", st)
		}
		for _, name := range []string{"before", "after"} {
			if got := r.Get(k(name)); len(got) != 1 {
				t.Fatalf("acked put %s lost: %v", name, got)
			}
		}
	})
}

func TestFsyncErrorInjection(t *testing.T) {
	dir := t.TempDir()
	fail := errors.New("fsync: I/O error")
	arm := false
	s := mustOpen(t, dir, Options{FsyncEvery: 1, Faults: Faults{SyncErr: func() error {
		if arm {
			return fail
		}
		return nil
	}}})
	if _, err := s.Put(k("a"), e("index", "ok")); err != nil {
		t.Fatal(err)
	}
	arm = true
	if _, err := s.Put(k("b"), e("index", "maybe")); !errors.Is(err, fail) {
		t.Fatalf("Put under fsync fault: err=%v", err)
	}
	if err := s.Sync(); !errors.Is(err, fail) {
		t.Fatalf("Sync under fault: err=%v", err)
	}
	arm = false
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The write was refused, but it DID reach the WAL before the fsync
	// failed — at-least-once: it may reappear after recovery, and must
	// do so consistently rather than corrupting the log.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if st := r.RecoveryStats(); st.TornRecords != 0 {
		t.Fatalf("fsync fault tore the log: %+v", st)
	}
	if got := r.Get(k("a")); len(got) != 1 {
		t.Fatalf("acked write lost: %v", got)
	}
}

func TestCorruptWALHeaderResetsToSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: -1})
	if _, err := s.Put(k("a"), e("index", "snapped")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-rotation: the WAL header is garbage.
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Get(k("a")); len(got) != 1 {
		t.Fatalf("snapshot state lost: %v", got)
	}
	st := r.RecoveryStats()
	if st.TornRecords != 1 || st.SnapshotKeys != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	// The reset WAL must accept appends and replay them.
	if _, err := r.Put(k("b"), e("index", "post-reset")); err != nil {
		t.Fatal(err)
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: -1})
	if _, err := s.Put(k("a"), e("index", "one")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("a"), e("data", "msd")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("b"), e("index", "two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.HasSnapshot || sum.SnapshotKeys != 1 {
		t.Fatalf("snapshot summary: %+v", sum)
	}
	if sum.WALRecords != 1 || sum.TornTail || sum.LastSeq != 3 {
		t.Fatalf("wal summary: %+v", sum)
	}
	if len(sum.Keys) != 2 || sum.TotalEntries != 3 {
		t.Fatalf("key summary: %+v", sum.Keys)
	}
	for _, ks := range sum.Keys {
		if ks.Key == k("a") && (ks.Entries != 2 || ks.Kinds["index"] != 1 || ks.Kinds["data"] != 1) {
			t.Fatalf("key a summary: %+v", ks)
		}
	}

	// Inspect must observe a torn tail without repairing it.
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	sum2, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sum2.TornTail || sum2.WALRecords != 0 {
		t.Fatalf("torn-tail summary: %+v", sum2)
	}
	after, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data)-2 {
		t.Fatalf("Inspect modified the WAL: %d -> %d bytes", len(data)-2, len(after))
	}
}

func TestInstrumentExportsSeries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if _, err := s.Put(k("a"), e("index", "v")); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wire_wal_appends_total 1",
		"wire_recovery_runs_total 1",
		"wire_wal_records 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}
