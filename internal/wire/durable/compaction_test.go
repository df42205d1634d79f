package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// TestCompactionDoesNotStallWrites: a compaction's file work runs off the
// store's lock, so a write to the same store waits neither for the
// snapshot's fsync nor for the close of the log the rotation retired
// (each held here for 100 ms; on ext4 that close frees the old log's
// blocks).
func TestCompactionDoesNotStallWrites(t *testing.T) {
	for _, stage := range []string{"snapshot fsync", "retired log close"} {
		t.Run(stage, func(t *testing.T) {
			entered := make(chan struct{})
			var armed atomic.Bool
			stall := func() {
				if armed.CompareAndSwap(true, false) {
					close(entered)
					time.Sleep(100 * time.Millisecond)
				}
			}
			opts := Options{SnapshotEvery: 8}
			if stage == "snapshot fsync" {
				opts.Faults.SyncErr = func() error { stall(); return nil }
			}
			s := mustOpen(t, t.TempDir(), opts)
			defer s.Close()
			s.createLog = func(path string) (logFile, error) {
				f, err := os.Create(path)
				if err != nil {
					return nil, err
				}
				return &slowClose{File: f, stall: stall}, nil
			}
			if stage == "retired log close" {
				// The log open now came from Open; after one rotation it
				// is a slowClose, which the next rotation retires.
				if err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			armed.Store(true)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 8; i++ { // the 8th write starts the compaction
					if _, err := s.Put(k(fmt.Sprint("key-", i)), e("index", "v")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatalf("no compaction reached the %s", stage)
			}
			start := time.Now()
			if _, err := s.Put(k("during"), e("index", "v")); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 10*time.Millisecond {
				t.Fatalf("a write during the %s took %v", stage, d)
			}
			<-done
		})
	}
}

// slowClose is a log file whose Close first calls stall.
type slowClose struct {
	*os.File
	stall func()
}

func (f *slowClose) Close() error {
	f.stall()
	return f.File.Close()
}

// copyDir copies a data directory while its store runs, the way a crash
// would leave it: wal.log first, then every other file (a temp file may
// vanish mid-copy).
func copyDir(src, dst string) error {
	names, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	cp := func(name string) error {
		data, err := os.ReadFile(filepath.Join(src, name))
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, name), data, 0o644)
	}
	if err := cp(walFile); err != nil {
		return err
	}
	for _, n := range names {
		if n.Name() != walFile {
			if err := cp(n.Name()); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestCrashCopyDuringCompactions copies the directory again and again
// while a writer drives compactions, and reopens each copy: every write
// acked before its copy began must be there, whichever step of a
// compaction the copy caught.
func TestCrashCopyDuringCompactions(t *testing.T) {
	const writes, keys = 3000, 64
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: 16})
	entry := func(i int) (keyspace.Key, overlay.Entry) {
		return k(fmt.Sprint("key-", i%keys)), e("index", fmt.Sprint(i))
	}
	var acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			if _, err := s.Put(entry(i)); err != nil {
				t.Error(err)
				return
			}
			acked.Store(int64(i + 1))
		}
	}()
	copies := 0
	for running := true; running; copies++ {
		select {
		case <-done:
			running = false
		default:
		}
		n := int(acked.Load())
		cp := filepath.Join(t.TempDir(), "copy")
		if err := copyDir(dir, cp); err != nil {
			t.Fatal(err)
		}
		r, err := Open(cp, Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("copy %d: %v", copies, err)
		}
		for i := 0; i < n; i++ {
			key, want := entry(i)
			if !slices.Contains(r.Get(key), want) {
				t.Fatalf("copy %d, taken after %d acks: write %d lost", copies, n, i)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d copies, %d snapshots", copies, s.c.snapWrites.Value())
}

// syncCounter is a log file that counts its fsyncs.
type syncCounter struct {
	*os.File
	syncs atomic.Int32
}

func (f *syncCounter) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestRotationKeepsSyncedRecordsDurable: a record written after the
// snapshot's sequence and made durable by Sync while the compaction ran
// is fsynced in the new log before it is renamed in. Without such a
// record the rotation fsyncs nothing.
func TestRotationKeepsSyncedRecordsDurable(t *testing.T) {
	for _, synced := range []bool{false, true} {
		t.Run(fmt.Sprintf("synced=%v", synced), func(t *testing.T) {
			dir := t.TempDir()
			entered, gate := make(chan struct{}), make(chan struct{})
			var hold atomic.Bool
			s := mustOpen(t, dir, Options{SnapshotEvery: -1, Faults: Faults{SyncErr: func() error {
				if hold.CompareAndSwap(true, false) {
					close(entered)
					<-gate
				}
				return nil
			}}})
			var newLog *syncCounter
			s.createLog = func(path string) (logFile, error) {
				f, err := os.Create(path)
				if err != nil {
					return nil, err
				}
				newLog = &syncCounter{File: f}
				return newLog, nil
			}
			if _, err := s.Put(k("a"), e("index", "covered")); err != nil {
				t.Fatal(err)
			}
			hold.Store(true)
			errc := make(chan error, 1)
			go func() { errc <- s.Snapshot() }()
			<-entered // the snapshot is encoded and in its fsync
			if _, err := s.Put(k("b"), e("index", "after")); err != nil {
				t.Fatal(err)
			}
			if synced {
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			close(gate)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			switch got := newLog.syncs.Load(); {
			case synced && got == 0:
				t.Fatal("a record made durable before the rotation was not fsynced in the new log")
			case !synced && got != 0:
				t.Fatalf("the rotation fsynced the new log %d times with no durable record in it", got)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, dir, Options{})
			defer r.Close()
			if st := r.RecoveryStats(); st.SnapshotKeys != 1 || st.ReplayedRecords != 1 {
				t.Fatalf("recovery stats: %+v, want 1 snapshot key and 1 replayed record", st)
			}
		})
	}
}

// TestCloseAndSnapshotRaceCompaction runs Close and Snapshot against a
// writer whose writes keep compactions in flight. Close waits for the one
// in flight, so it returns with no compaction running and no temp file
// left; every acked write survives the reopen.
func TestCloseAndSnapshotRaceCompaction(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{SnapshotEvery: 4})
		var acked []int
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := s.Put(k(fmt.Sprint("key-", i)), e("index", "v"))
				if errors.Is(err, os.ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				acked = append(acked, i)
			}
		}()
		go func() {
			defer wg.Done()
			for {
				err := s.Snapshot()
				if errors.Is(err, os.ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(trial%5) * time.Millisecond)
			if err := s.Close(); err != nil {
				t.Error(err)
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.compaction != nil {
				t.Errorf("trial %d: Close returned with a compaction in flight", trial)
			}
		}()
		wg.Wait()
		for _, name := range []string{snapTmpFile, walTmpFile} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Fatalf("trial %d: %s present after Close: %v", trial, name, err)
			}
		}
		r := mustOpen(t, dir, Options{})
		for _, i := range acked {
			if got := r.Get(k(fmt.Sprint("key-", i))); len(got) != 1 {
				t.Fatalf("trial %d: acked write %d lost", trial, i)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRemovesStrayTempFiles: a crash mid-compaction leaves
// snapshot.tmp or wal.tmp behind. Inspect reports them and leaves them;
// Open removes them and recovers as if they were not there.
func TestOpenRemovesStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: -1})
	if _, err := s.Put(k("a"), e("index", "snapped")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(k("b"), e("index", "logged")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	temps := []string{"snapshot.tmp", "wal.tmp"}
	for _, name := range temps {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a compaction"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sum.TempFiles, temps) {
		t.Fatalf("Inspect reported temp files %v, want %v", sum.TempFiles, temps)
	}
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("Inspect removed %s: %v", name, err)
		}
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("Open left %s behind: %v", name, err)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("Len after reopen = %d, want 2", r.Len())
	}
	if sum, err := Inspect(dir); err != nil || len(sum.TempFiles) != 0 {
		t.Fatalf("Inspect after Open: temp files %v, err %v", sum.TempFiles, err)
	}
}

// BenchmarkPutAcrossCompaction puts new entries under 1,000 keys into one
// store at the default SnapshotEvery, so every 1,024th put is the one
// that compacts. It reports the median and 99th-percentile put and the
// mean time of the puts that compacted (stall-ns/compaction). The store
// grows by one entry per put: compare rows at one -benchtime.
func BenchmarkPutAcrossCompaction(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]keyspace.Key, 1000)
	for i := range keys {
		keys[i] = k(fmt.Sprint("key-", i))
	}
	entries := make([]overlay.Entry, b.N)
	for i := range entries {
		entries[i] = e("index", fmt.Sprintf("doc-%07d", i))
	}
	took := make([]time.Duration, b.N)
	var stall time.Duration
	compactions := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := s.Put(keys[i%len(keys)], entries[i]); err != nil {
			b.Fatal(err)
		}
		took[i] = time.Since(start)
		if (i+1)%defaultSnapshotEvery == 0 {
			stall += took[i]
			compactions++
		}
	}
	b.StopTimer()
	slices.Sort(took)
	b.ReportMetric(float64(took[len(took)/2]), "p50-ns/put")
	b.ReportMetric(float64(took[len(took)*99/100]), "p99-ns/put")
	if compactions > 0 {
		b.ReportMetric(float64(stall)/float64(compactions), "stall-ns/compaction")
	}
}
