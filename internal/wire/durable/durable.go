// Package durable is the disk-backed wire.Store: an append-only,
// checksummed write-ahead log compacted by periodic snapshots. It turns
// a wire node's crash-stop into crash-recovery — reopen the same
// directory, restart the node on the same address (the ring ID is
// derived from it) and rejoin; the anti-entropy repair loop reconciles
// whatever the node missed while it was down.
//
// Durability contract: every mutation is framed into the WAL before it
// touches the in-memory map, and a failed append refuses the write (the
// node then refuses the ack). By default the WAL is NOT fsynced per
// write — an acked write survives a process crash but the last few may
// be lost to a kernel crash or power cut; set Options.FsyncEvery to 1
// for full fsync-per-append at the obvious throughput cost. Because an
// append whose error was reported may still have reached the disk,
// replay is at-least-once: records are idempotent (dedup on put,
// replace semantics otherwise), so double-apply is harmless.
//
// Compaction: every SnapshotEvery records the store encodes its state
// under its lock, then writes, fsyncs and renames the snapshot and
// rotates the WAL onto it on a goroutine, so writes go on while the
// files are written. At any instant wal.log is either the old log, whose
// records the snapshot covers are skipped at replay, or the new one
// based at the snapshot's sequence, renamed in only after the snapshot
// is in place and the directory synced.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
)

const (
	walFile     = "wal.log"
	snapFile    = "snapshot.db"
	snapTmpFile = "snapshot.tmp"
	walTmpFile  = "wal.tmp"

	defaultSnapshotEvery = 1024

	// maxKeptScratch is the largest frame buffer a store keeps for its
	// next append. Smaller than a wire connection's: a node has a store
	// per stripe, and a rare large record (a repair's shipped set) must
	// not stay resident in each.
	maxKeptScratch = 4 << 10
)

// tempFiles are the files a compaction writes before renaming them in.
var tempFiles = []string{snapTmpFile, walTmpFile}

// snapBufs holds snapshot encode buffers between compactions. A buffer
// kept per store would pin a snapshot's size in every stripe; a pooled
// one is shared by the few compactions in flight at once.
var snapBufs = sync.Pool{New: func() any { return new([]byte) }}

// Faults injects storage-level failures, mirroring what wire's
// FaultTransport does for the network. Both hooks may be called with
// the store's lock held, or from a compaction's goroutine, and must not
// call back into the store.
type Faults struct {
	// AppendErr, when non-nil, is consulted before every WAL append; a
	// non-nil result fails the append before anything is written.
	AppendErr func() error
	// SyncErr, when non-nil, is consulted before every fsync (WAL and
	// snapshot alike); a non-nil result fails the flush.
	SyncErr func() error
}

// Options tunes a durable store. The zero value is a sensible default.
type Options struct {
	// SnapshotEvery compacts the WAL into a fresh snapshot once it holds
	// this many records (default 1024; negative disables automatic
	// compaction — Snapshot can still be called explicitly). The write
	// that reaches the bound encodes the snapshot; the file work runs in
	// the background, one compaction per store at a time.
	SnapshotEvery int
	// FsyncEvery fsyncs the WAL every N appends. 0 (the default) never
	// fsyncs on the write path: appends reach the kernel immediately and
	// the OS flushes them, so acked writes survive a process crash but
	// not necessarily a power cut. 1 gives fsync-per-append.
	FsyncEvery int
	// Faults injects storage failures for tests and soak harnesses.
	Faults Faults
}

// Store implements wire.Store on top of a data directory holding a WAL
// (wal.log) and its compacting snapshot (snapshot.db). The wire node
// serializes access through its store wrapper (one reader-writer lock,
// or per-stripe locks when opened via OpenSharded); Store nonetheless
// carries its own lock so telemetry snapshots and offline inspection
// stay safe. All state lives in one wire.MemStore: the log in front of
// it only decides what reaches it, and in which order.
type Store struct {
	mu         sync.Mutex
	dir        string
	opts       Options
	mem        *wire.MemStore
	wal        logFile
	walEnd     int64 // offset just past the last complete record: where the next append lands
	syncedEnd  int64 // offset the last successful WAL fsync covered
	broken     error // sticky: a failed append left bytes in the WAL that nothing may follow
	seq        uint64
	walRecords int
	sinceSync  int
	scratch    []byte // the last append's frame buffer, reused while small
	compaction *compaction
	dirDirty   bool // wal.log was renamed in and the directory not fsynced since
	closed     bool
	recovery   wire.RecoveryStats
	c          counters
	// createLog creates the rotation's new log (wal.tmp); a test wraps
	// the file to watch what the rotation does to it.
	createLog func(path string) (logFile, error)
}

// logFile is what the store asks of its open WAL: an *os.File, or a test's
// stand-in that fails where a disk would.
type logFile interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// compaction is one snapshot-and-rotation in flight: the snapshot
// encoded under the lock, and where in the old log the records it
// covers end.
type compaction struct {
	seq     uint64  // the last sequence the snapshot covers
	from    int64   // the old log's offset just past record seq
	records int     // the old log's record count at seq
	snap    *[]byte // the encoded snapshot file (from snapBufs)
	done    chan struct{}
	err     error // set before done is closed
}

var (
	_ wire.RecoverableStore  = (*Store)(nil)
	_ wire.InstrumentedStore = (*Store)(nil)
)

// counters holds the store's telemetry instruments (attached to a
// registry by Instrument; counted regardless).
type counters struct {
	walAppends      *telemetry.Counter
	walAppendErrs   *telemetry.Counter
	walBytes        *telemetry.Counter
	walFsyncs       *telemetry.Counter
	walFsyncErrs    *telemetry.Counter
	snapWrites      *telemetry.Counter
	snapWriteErrs   *telemetry.Counter
	recoveryRuns    *telemetry.Counter
	recoveryReplays *telemetry.Counter
	recoveryTorn    *telemetry.Counter
}

func newCounters() counters {
	return counters{
		walAppends: telemetry.NewCounter("wire_wal_appends_total",
			"WAL records appended."),
		walAppendErrs: telemetry.NewCounter("wire_wal_append_errors_total",
			"WAL appends that failed (the write was refused, no ack)."),
		walBytes: telemetry.NewCounter("wire_wal_bytes_total",
			"Bytes appended to the WAL, framing included."),
		walFsyncs: telemetry.NewCounter("wire_wal_fsyncs_total",
			"Explicit WAL fsyncs issued."),
		walFsyncErrs: telemetry.NewCounter("wire_wal_fsync_errors_total",
			"WAL fsyncs that failed."),
		snapWrites: telemetry.NewCounter("wire_snapshot_writes_total",
			"Compacting snapshots written and renamed into place."),
		snapWriteErrs: telemetry.NewCounter("wire_snapshot_write_errors_total",
			"Snapshot attempts abandoned by a write, sync or rename error."),
		recoveryRuns: telemetry.NewCounter("wire_recovery_runs_total",
			"Store opens that replayed persistent state."),
		recoveryReplays: telemetry.NewCounter("wire_recovery_replayed_records_total",
			"WAL records applied during recovery replays."),
		recoveryTorn: telemetry.NewCounter("wire_recovery_torn_records_total",
			"Torn or corrupt WAL tails truncated during recovery."),
	}
}

// Open loads (or creates) the durable store rooted at dir, replaying
// snapshot plus WAL. A torn WAL tail — the expected shape of a crash
// mid-append — is truncated back to the last complete record and
// reported in RecoveryStats, not treated as an error.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	// A crash mid-compaction leaves its temp files; replay reads neither.
	// One that cannot be removed is truncated by the next compaction.
	for _, name := range tempFiles {
		_ = os.Remove(filepath.Join(dir, name))
	}
	r, err := replay(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, mem: r.mem, seq: r.LastSeq, walRecords: r.WALRecords, c: newCounters(),
		createLog: func(path string) (logFile, error) { return os.Create(path) }}
	s.recovery = wire.RecoveryStats{
		SnapshotKeys:    int64(r.SnapshotKeys),
		ReplayedRecords: int64(r.WALRecords - r.SkippedRecords),
		SkippedRecords:  int64(r.SkippedRecords),
		LastSeq:         r.LastSeq,
	}
	if r.TornTail {
		s.recovery.TornRecords = 1
	}
	if err := s.openWAL(r); err != nil {
		return nil, err
	}
	s.c.recoveryRuns.Inc()
	s.c.recoveryReplays.Add(s.recovery.ReplayedRecords)
	s.c.recoveryTorn.Add(s.recovery.TornRecords)
	return s, nil
}

// replayed is what a read-only recovery replay found in a data
// directory: the recovered state, the file shapes Inspect reports (the
// Summary up to LastSeq; the per-key part is Inspect's to fill) and
// where the WAL's complete records end.
type replayed struct {
	Summary
	mem *wire.MemStore
	// walEnd is the offset just past wal.log's last complete record
	// (TornTail says whether bytes follow it) — 0 when there is no usable
	// WAL: no file, an empty one, an unreadable header.
	walEnd int
}

// replay reads snapshot.db and then wal.log from dir into a fresh
// MemStore. It is the only reader of the on-disk format and changes
// nothing on disk: Open truncates and positions the WAL afterwards,
// Inspect and Dump only report. Snapshots are written atomically (temp +
// rename), so a malformed one is genuine corruption and an error rather
// than a silent loss of a full compaction's worth of state; a torn WAL
// frame is where replay stops.
func replay(dir string) (replayed, error) {
	r := replayed{Summary: Summary{Dir: dir}, mem: wire.NewMemStore()}
	for _, name := range tempFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			r.TempFiles = append(r.TempFiles, name)
		}
	}
	path := filepath.Join(dir, snapFile)
	snap, err := os.ReadFile(path)
	switch {
	case err == nil:
		seq, herr := parseHeader(snap, snapMagic)
		if herr != nil {
			return r, fmt.Errorf("durable: snapshot %s corrupt: bad header", path)
		}
		for rest := snap[headerSize:]; len(rest) > 0; {
			rec, n, perr := parseFrame(rest)
			if perr != nil {
				return r, fmt.Errorf("durable: snapshot %s corrupt: %w", path, perr)
			}
			apply(r.mem, rec)
			rest = rest[n:]
		}
		r.HasSnapshot, r.SnapshotSeq, r.LastSeq = true, seq, seq
		r.SnapshotKeys = r.mem.Len()
	case !os.IsNotExist(err):
		return r, fmt.Errorf("durable: read snapshot: %w", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil && !os.IsNotExist(err) {
		return r, fmt.Errorf("durable: read wal: %w", err)
	}
	if len(wal) == 0 {
		return r, nil
	}
	base, herr := parseHeader(wal, walMagic)
	if herr != nil {
		r.TornTail = true
		return r, nil
	}
	r.WALBaseSeq, r.walEnd = base, headerSize
	for rest := wal[headerSize:]; len(rest) > 0; {
		rec, n, perr := parseFrame(rest)
		if perr != nil {
			r.TornTail = true
			break
		}
		r.WALRecords++
		if seq := base + uint64(r.WALRecords); seq <= r.LastSeq {
			r.SkippedRecords++
		} else {
			apply(r.mem, rec)
			r.LastSeq = seq
		}
		rest = rest[n:]
		r.walEnd += n
	}
	return r, nil
}

// openWAL leaves wal.log open for appending after the last complete
// record replay found, cutting a torn tail off first.
func (s *Store) openWAL(r replayed) error {
	f, err := os.OpenFile(filepath.Join(s.dir, walFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open wal: %w", err)
	}
	end := int64(r.walEnd)
	switch {
	case r.walEnd == 0:
		// No WAL yet, or an unreadable header: a crash mid-rotation. The
		// snapshot covers everything up to s.seq, so resetting the WAL
		// loses nothing that was ever acked from a complete record.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt(appendHeader(nil, walMagic, s.seq), 0)
		}
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: init wal: %w", err)
		}
		end = headerSize
	case r.TornTail:
		// Cut back to the last complete record.
		if err := f.Truncate(end); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: truncate torn wal: %w", err)
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: seek wal: %w", err)
	}
	s.wal, s.walEnd = f, end
	return nil
}

// apply folds one record into m. It is the one way the state changes —
// at replay, and on the write path once the record is in the log (a
// Remove, which knows its entry, applies it without hashing: see
// Remove) — so what a restart recovers is what the running store held.
// It returns how many entries the record added, or tombstones it
// recorded, refreshed or collected; MemStore's mutators never fail, so
// their errors are dropped. Replay is order-faithful, so a put logged
// before an entomb of the same entry re-converges to the entombed
// state; a record written before entry sets were kept in order carries
// its set as the writes arrived, and MemStore normalizes it.
func apply(m *wire.MemStore, rec record) (n int) {
	switch rec.op {
	case recPut:
		for _, e := range rec.entries {
			if added, _ := m.Put(rec.key, e); added {
				n++
			}
		}
	case recReplace, recReplaceFull, recReplaceDigests:
		_ = m.Replace(rec.key, rec.entries, rec.tombs)
	case recTomb, recTombDigests:
		n, _ = m.Entomb(rec.key, rec.tombs)
	case recTombGC:
		n, _ = m.GCTombstones(rec.gcBefore)
	}
	return n
}

// forEachKey calls fn once for every key m holds anything under — live
// entries, tombstones or both. The slices are m's own: fn keeps them
// only if nothing will change m again (Dump).
func forEachKey(m *wire.MemStore, fn func(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone)) {
	m.ForEach(func(k keyspace.Key, entries []overlay.Entry) bool {
		fn(k, entries, m.HeldTombstones(k))
		return true
	})
	m.ForEachTombstone(func(k keyspace.Key, tombs []wire.Tombstone) bool {
		if !m.Holds(k) {
			fn(k, nil, tombs)
		}
		return true
	})
}

// commitLocked is the write path of every mutator: rec goes into the
// log first and into memory only once it is there, so a failed append
// changes nothing and refuses the ack. It returns what apply counted.
func (s *Store) commitLocked(rec record) (int, error) {
	if err := s.appendLocked(rec); err != nil {
		return 0, err
	}
	n := apply(s.mem, rec)
	s.maybeCompactLocked()
	return n, nil
}

// appendLocked frames rec into the WAL (write-ahead: the caller updates
// the map only after this succeeds). A non-nil return means the write
// must not be acked. A frame a failed write left part of is cut off
// again: replay stops at a torn frame, so one left in place would drop
// every record acked after it at the next open. If it cannot be cut off
// the store refuses all further appends. A record whose fsync failed
// stays whole in the log and replay re-applies it (harmless, records are
// idempotent).
func (s *Store) appendLocked(rec record) error {
	if s.closed {
		return os.ErrClosed
	}
	if s.broken != nil {
		return s.broken
	}
	if f := s.opts.Faults.AppendErr; f != nil {
		if err := f(); err != nil {
			s.c.walAppendErrs.Inc()
			return err
		}
	}
	frame := appendFrame(s.scratch[:0], rec)
	if cap(frame) <= maxKeptScratch {
		s.scratch = frame
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.c.walAppendErrs.Inc()
		rerr := s.wal.Truncate(s.walEnd)
		if rerr == nil {
			_, rerr = s.wal.Seek(s.walEnd, 0)
		}
		if rerr != nil {
			s.broken = fmt.Errorf("durable: wal closed to appends: rolling back a failed write: %w", rerr)
		}
		return err
	}
	s.walEnd += int64(len(frame))
	s.seq++
	s.walRecords++
	s.c.walAppends.Inc()
	s.c.walBytes.Add(int64(len(frame)))
	if s.opts.FsyncEvery > 0 {
		s.sinceSync++
		if s.sinceSync >= s.opts.FsyncEvery {
			if err := s.syncWALLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// maybeCompactLocked starts a compaction when the WAL has grown past the
// configured bound and none is in flight. A failed one is deliberately
// swallowed: the WAL stays long but correct, and a later mutation
// retries.
func (s *Store) maybeCompactLocked() {
	if s.opts.SnapshotEvery > 0 && s.walRecords >= s.opts.SnapshotEvery && s.compaction == nil {
		s.startCompactionLocked()
	}
}

// syncWALLocked fsyncs the WAL, honouring injected sync faults. A log
// renamed in by a rotation is durable only once the directory is, so
// that is synced first.
func (s *Store) syncWALLocked() error {
	s.sinceSync = 0
	if s.dirDirty {
		s.syncDir()
		s.dirDirty = false
	}
	if err := s.fsync(s.wal); err != nil {
		s.c.walFsyncErrs.Inc()
		return err
	}
	s.syncedEnd = s.walEnd
	s.c.walFsyncs.Inc()
	return nil
}

// fsync syncs f after consulting the injected sync fault.
func (s *Store) fsync(f interface{ Sync() error }) error {
	if sf := s.opts.Faults.SyncErr; sf != nil {
		if err := sf(); err != nil {
			return err
		}
	}
	return f.Sync()
}

// startCompactionLocked is the part of a compaction that needs the lock:
// it encodes the whole map as a snapshot file covering s.seq into a
// pooled buffer, notes where that sequence ends in the log, and hands
// the file work to a goroutine. The caller has checked that no other
// compaction is in flight.
func (s *Store) startCompactionLocked() *compaction {
	bp := snapBufs.Get().(*[]byte)
	buf := appendHeader((*bp)[:0], snapMagic, s.seq)
	forEachKey(s.mem, func(k keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) {
		buf = appendFrame(buf, record{op: recReplaceDigests, key: k, entries: entries, tombs: tombs})
	})
	*bp = buf
	c := &compaction{seq: s.seq, from: s.walEnd, records: s.walRecords, snap: bp, done: make(chan struct{})}
	s.compaction = c
	go s.compact(c)
	return c
}

// compact is a compaction's file work, run without the lock: the
// snapshot goes into place first, then the WAL is rotated onto it. If
// either step fails the old log stays whole and in use.
func (s *Store) compact(c *compaction) {
	err := s.writeSnapshot(*c.snap)
	snapBufs.Put(c.snap)
	if err == nil {
		err = s.rotateWAL(c)
	}
	s.mu.Lock()
	if err != nil {
		s.c.snapWriteErrs.Inc()
		c.err = fmt.Errorf("durable: snapshot: %w", err)
	} else {
		s.c.snapWrites.Inc()
	}
	s.compaction = nil
	s.mu.Unlock()
	close(c.done)
}

// writeSnapshot writes snap to a temp file, fsyncs it, renames it over
// snapshot.db and syncs the directory, so the rename is durable before
// any log that relies on it is renamed in.
func (s *Store) writeSnapshot(snap []byte) error {
	tmp := filepath.Join(s.dir, snapTmpFile)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(snap)
	if err == nil {
		err = s.fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, snapFile))
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	s.syncDir()
	return nil
}

// rotateWAL replaces wal.log with a log based at c.seq that holds the
// old log's records after it. The records already written are copied
// without the lock (bytes before walEnd no longer change); the lock is
// taken only to copy what arrived since, rename the new log over the old
// one and swap the handle (swapLogLocked). The old log is closed after
// the lock is released: the close frees the renamed-away file's blocks,
// which takes long enough to stall a write. The new log is fsynced
// before the rename whenever a record after c.seq was, so a record made
// durable stays so. A failure before the rename leaves the old log whole
// and in use.
func (s *Store) rotateWAL(c *compaction) error {
	path := filepath.Join(s.dir, walTmpFile)
	f, err := s.createLog(path)
	if err != nil {
		return err
	}
	abandon := func(err error) error {
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	if _, err := f.Write(appendHeader(nil, walMagic, c.seq)); err != nil {
		return abandon(err)
	}
	s.mu.Lock()
	old, end := s.wal, s.walEnd
	s.mu.Unlock()
	if err := copyRange(f, old, c.from, end); err != nil {
		return abandon(err)
	}
	s.mu.Lock()
	retired, err := s.swapLogLocked(c, f, path, end)
	s.mu.Unlock()
	if err != nil {
		return abandon(err)
	}
	_ = retired.Close() // renamed away: nothing reads or writes it again
	return nil
}

// swapLogLocked is the part of rotateWAL that holds the lock: it copies
// the records appended to the old log since end into f, renames f (at
// path) over wal.log and makes it the store's log, returning the old
// one. A failure leaves the old log in use.
func (s *Store) swapLogLocked(c *compaction, f logFile, path string, end int64) (logFile, error) {
	if err := copyRange(f, s.wal, end, s.walEnd); err != nil {
		return nil, err
	}
	synced := s.syncedEnd > c.from
	if synced {
		if err := s.fsync(f); err != nil {
			return nil, err
		}
	}
	if err := os.Rename(path, filepath.Join(s.dir, walFile)); err != nil {
		return nil, err
	}
	retired := s.wal
	s.wal = f
	s.walEnd = headerSize + s.walEnd - c.from
	s.syncedEnd = 0
	if synced {
		s.syncedEnd = s.walEnd
	}
	s.walRecords -= c.records
	// Until the directory is synced a power cut may bring back the old
	// log, which holds everything up to now; the next fsync of the WAL
	// syncs the directory first (syncWALLocked).
	s.dirDirty = true
	return retired, nil
}

// copyRange appends src's bytes [from, to) to dst.
func copyRange(dst io.Writer, src io.ReaderAt, from, to int64) error {
	b := make([]byte, to-from)
	if _, err := src.ReadAt(b, from); err != nil {
		return err
	}
	_, err := dst.Write(b)
	return err
}

// waitCompaction waits for the compaction in flight, if any, and
// returns its error.
func (s *Store) waitCompaction() error {
	s.mu.Lock()
	c := s.compaction
	s.mu.Unlock()
	if c == nil {
		return nil
	}
	<-c.done
	return c.err
}

// syncDir best-effort-fsyncs the data directory so a rename into it is
// itself durable.
func (s *Store) syncDir() {
	d, err := os.Open(s.dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Get implements wire.Store.
func (s *Store) Get(key keyspace.Key) []overlay.Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Get(key)
}

// Digest implements wire.Store.
func (s *Store) Digest(key keyspace.Key) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Digest(key)
}

// Put implements wire.Store: WAL append first, map second. A duplicate
// and a put suppressed by a live tombstone are refused without touching
// the log (the suppression is already durable through the tombstone
// record).
func (s *Store) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem.Tombstoned(key, e) || s.mem.Has(key, e) {
		return false, nil
	}
	n, err := s.commitLocked(record{op: recPut, key: key, entries: []overlay.Entry{e}})
	return n > 0, err
}

// Remove implements wire.Store: the WAL records e's tombstone, its
// digest, whose replay both deletes the live entry that digest names and
// re-records the suppression, so a restarted node cannot resurrect the
// entry from a stale copy. Here, where e is known, it is deleted by
// comparison (MemStore.Bury) rather than found by hashing the key's set;
// the two differ only for a second live entry sharing e's 64-bit hash,
// which replay deletes too (DESIGN.md §46).
func (s *Store) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := wire.TombstoneOf(e, time.Now().UnixNano())
	if err := s.appendLocked(record{op: recTombDigests, key: key, tombs: []wire.Tombstone{t}}); err != nil {
		return false, err
	}
	removed := s.mem.Bury(key, e, t)
	s.maybeCompactLocked()
	return removed, nil
}

// Replace implements wire.Store. The log carries the sorted entry set.
func (s *Store) Replace(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.commitLocked(record{op: recReplaceDigests, key: key, entries: wire.SortedEntries(entries), tombs: tombs})
	return err
}

// Tombstoned implements wire.Store.
func (s *Store) Tombstoned(key keyspace.Key, e overlay.Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Tombstoned(key, e)
}

// Tombstones implements wire.Store.
func (s *Store) Tombstones(key keyspace.Key) []wire.Tombstone {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Tombstones(key)
}

// HeldTombstones implements wire.Store: the in-memory state's own
// slice, which the caller reads under key's stripe lock.
func (s *Store) HeldTombstones(key keyspace.Key) []wire.Tombstone {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.HeldTombstones(key)
}

// Entomb implements wire.Store: one WAL record covers the batch, then
// each tombstone deletes its live entry and is merged keeping the latest
// At. A batch that would change nothing (EntombChanges) writes none.
func (s *Store) Entomb(key keyspace.Key, tombs []wire.Tombstone) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.mem.EntombChanges(key, tombs) {
		return 0, nil
	}
	return s.commitLocked(record{op: recTombDigests, key: key, tombs: tombs})
}

// ForEachTombstone implements wire.Store.
func (s *Store) ForEachTombstone(fn func(key keyspace.Key, tombs []wire.Tombstone) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem.ForEachTombstone(fn)
}

// GCTombstones implements wire.Store: the cutoff is logged before the
// in-memory collection so the GC survives restart (otherwise replay
// would resurrect every collected tombstone from its recTomb record).
// A round with nothing to collect writes no record.
func (s *Store) GCTombstones(before int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.mem.TombstonesBefore(before) {
		return 0, nil
	}
	return s.commitLocked(record{op: recTombGC, gcBefore: before})
}

// ForEach implements wire.Store.
func (s *Store) ForEach(fn func(key keyspace.Key, entries []overlay.Entry) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem.ForEach(fn)
}

// Len implements wire.Store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Len()
}

// Sync implements wire.Store: an explicit WAL fsync regardless of
// FsyncEvery.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	return s.syncWALLocked()
}

// Snapshot forces a compaction now, regardless of SnapshotEvery, and
// waits for it: once it returns nil, the snapshot covers every write
// acked before the call. A compaction already in flight is waited out
// first, since it may cover less.
func (s *Store) Snapshot() error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return os.ErrClosed
		}
		c, running := s.compaction, s.compaction != nil
		if !running {
			c = s.startCompactionLocked()
		}
		s.mu.Unlock()
		<-c.done
		if !running {
			return c.err
		}
	}
}

// Close implements wire.Store: wait for a compaction in flight, flush,
// then release the WAL handle. The directory can be re-opened
// afterwards to restart the node.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true // refuses appends, so no compaction starts after this
	s.mu.Unlock()
	_ = s.waitCompaction() // a failed one left the old log whole
	s.mu.Lock()
	defer s.mu.Unlock()
	serr := s.syncWALLocked()
	cerr := s.wal.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// RecoveryStats implements wire.RecoverableStore.
func (s *Store) RecoveryStats() wire.RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Instrument implements wire.InstrumentedStore, attaching the
// wire_wal_* / wire_snapshot_* / wire_recovery_* series plus a
// wire_wal_records gauge of the WAL's current (uncompacted) length.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c := s.c
	reg.Attach(c.walAppends, c.walAppendErrs, c.walBytes, c.walFsyncs,
		c.walFsyncErrs, c.snapWrites, c.snapWriteErrs,
		c.recoveryRuns, c.recoveryReplays, c.recoveryTorn)
	reg.GaugeFunc("wire_wal_records",
		"Records currently in wal.log (a compaction's rotation drops those its snapshot covers).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.walRecords)
		})
}
