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
	walFile  = "wal.log"
	snapFile = "snapshot.db"
	tmpFile  = "snapshot.tmp"

	defaultSnapshotEvery = 1024
)

// Faults injects storage-level failures, mirroring what wire's
// FaultTransport does for the network. Both hooks may be called with
// the store's lock held and must not call back into the store.
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
	// compaction — Snapshot can still be called explicitly).
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
	broken     error // sticky: a failed append or rotation left bytes in the WAL that nothing may follow
	seq        uint64
	walRecords int
	sinceSync  int
	closed     bool
	recovery   wire.RecoveryStats
	c          counters
}

// logFile is what the store asks of its open WAL: an *os.File, or a test's
// stand-in that fails where a disk would.
type logFile interface {
	io.Writer
	io.WriterAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
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
	r, err := replay(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, mem: r.mem, seq: r.LastSeq, walRecords: r.WALRecords, c: newCounters()}
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
			_, err = f.WriteAt(encodeHeader(walMagic, s.seq), 0)
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
// at replay, and on the write path once the record is in the log — so
// what a restart recovers is what the running store held. It returns how
// many entries the record added, or tombstones it recorded, refreshed
// or collected; MemStore's mutators never fail, so their errors are
// dropped. Replay is order-faithful, so a put logged before an
// entomb of the same entry re-converges to the entombed state; a record
// written before entry sets were kept in order carries its set as the
// writes arrived, and MemStore normalizes it.
func apply(m *wire.MemStore, rec record) (n int) {
	switch rec.op {
	case recPut:
		for _, e := range rec.entries {
			if added, _ := m.Put(rec.key, e); added {
				n++
			}
		}
	case recReplace, recReplaceFull:
		_ = m.Replace(rec.key, rec.entries, rec.tombs)
	case recTomb:
		n, _ = m.Entomb(rec.key, rec.tombs)
	case recTombGC:
		n, _ = m.GCTombstones(rec.gcBefore)
	}
	return n
}

// forEachKey calls fn once for every key m holds anything under — live
// entries, tombstones or both. The slices may be m's own: fn keeps them
// only if nothing will change m again (Dump).
func forEachKey(m *wire.MemStore, fn func(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone)) {
	m.ForEach(func(k keyspace.Key, entries []overlay.Entry) bool {
		fn(k, entries, m.Tombstones(k))
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
	frame := encodeRecord(rec)
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

// maybeCompactLocked snapshots when the WAL has grown past the
// configured bound. Compaction failure is deliberately swallowed: the
// WAL stays long but correct, and a later mutation retries.
func (s *Store) maybeCompactLocked() {
	if s.opts.SnapshotEvery > 0 && s.walRecords >= s.opts.SnapshotEvery {
		_ = s.snapshotLocked()
	}
}

// syncWALLocked fsyncs the WAL, honouring injected sync faults.
func (s *Store) syncWALLocked() error {
	s.sinceSync = 0
	if f := s.opts.Faults.SyncErr; f != nil {
		if err := f(); err != nil {
			s.c.walFsyncErrs.Inc()
			return err
		}
	}
	if err := s.wal.Sync(); err != nil {
		s.c.walFsyncErrs.Inc()
		return err
	}
	s.c.walFsyncs.Inc()
	return nil
}

// snapshotLocked writes the whole map to a temp file, renames it over
// snapshot.db and resets the WAL to an empty file based at the
// snapshot's sequence. Crash windows are covered by sequence skipping:
// after the rename but before the rotation, the old WAL's records are
// all ≤ the snapshot sequence and replay ignores them.
func (s *Store) snapshotLocked() error {
	fail := func(err error) error {
		s.c.snapWriteErrs.Inc()
		_ = os.Remove(filepath.Join(s.dir, tmpFile))
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, tmpFile)
	f, err := os.Create(tmp)
	if err != nil {
		return fail(err)
	}
	buf := encodeHeader(snapMagic, s.seq)
	forEachKey(s.mem, func(k keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) {
		buf = append(buf, encodeRecord(record{op: recReplaceFull, key: k, entries: entries, tombs: tombs})...)
	})
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return fail(err)
	}
	if sf := s.opts.Faults.SyncErr; sf != nil {
		if err := sf(); err != nil {
			_ = f.Close()
			return fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapFile)); err != nil {
		return fail(err)
	}
	s.syncDir()
	// Rotate the WAL under the snapshot.
	if err := s.wal.Truncate(0); err != nil {
		return fail(err)
	}
	_, err = s.wal.WriteAt(encodeHeader(walMagic, s.seq), 0)
	if err == nil {
		_, err = s.wal.Seek(headerSize, 0)
	}
	if err != nil {
		// An emptied WAL with no header, or appends landing past a hole:
		// either reads as an unusable WAL at the next open.
		s.broken = fmt.Errorf("durable: wal closed to appends: rotation failed: %w", err)
		return fail(err)
	}
	s.walEnd = headerSize
	s.walRecords = 0
	s.c.snapWrites.Inc()
	return nil
}

// syncDir best-effort-fsyncs the data directory so the snapshot rename
// itself is durable.
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

// Remove implements wire.Store: the WAL records a tombstone whose
// replay both deletes the live entry and re-records the suppression,
// so a restarted node cannot resurrect the entry from a stale copy.
func (s *Store) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := s.mem.Has(key, e)
	t := wire.Tombstone{Entry: e, At: time.Now().UnixNano()}
	if _, err := s.commitLocked(record{op: recTomb, key: key, tombs: []wire.Tombstone{t}}); err != nil {
		return false, err
	}
	return removed, nil
}

// Replace implements wire.Store. The log carries the sorted entry set.
func (s *Store) Replace(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.commitLocked(record{op: recReplaceFull, key: key, entries: wire.SortedEntries(entries), tombs: tombs})
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
	return s.commitLocked(record{op: recTomb, key: key, tombs: tombs})
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

// Snapshot forces a compaction now, regardless of SnapshotEvery.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	return s.snapshotLocked()
}

// Close implements wire.Store: flush, then release the WAL handle. The
// directory can be re-opened afterwards to restart the node.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
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
		"Records currently in the WAL (resets at each compaction).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.walRecords)
		})
}
