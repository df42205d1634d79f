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
	"os"
	"path/filepath"
	"slices"
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
// stay safe.
type Store struct {
	mu         sync.Mutex
	dir        string
	opts       Options
	mem        map[keyspace.Key][]overlay.Entry
	tombs      map[keyspace.Key]map[overlay.Entry]int64
	wal        *os.File
	seq        uint64
	walRecords int
	sinceSync  int
	closed     bool
	recovery   wire.RecoveryStats
	c          counters
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
	s := &Store{
		dir:   dir,
		opts:  opts,
		mem:   make(map[keyspace.Key][]overlay.Entry),
		tombs: make(map[keyspace.Key]map[overlay.Entry]int64),
		c:     newCounters(),
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.recovery.LastSeq = s.seq
	s.c.recoveryRuns.Inc()
	s.c.recoveryReplays.Add(s.recovery.ReplayedRecords)
	s.c.recoveryTorn.Add(s.recovery.TornRecords)
	return s, nil
}

// loadSnapshot replays snapshot.db into the in-memory map, if present.
// Snapshots are written atomically (temp + rename), so a malformed one
// is genuine corruption and fails the open rather than silently losing
// a full compaction's worth of state.
func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.dir, snapFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: read snapshot: %w", err)
	}
	seq, err := parseHeader(data, snapMagic)
	if err != nil {
		return fmt.Errorf("durable: snapshot %s corrupt: bad header", path)
	}
	rest := data[headerSize:]
	for len(rest) > 0 {
		rec, n, err := parseFrame(rest)
		if err != nil {
			return fmt.Errorf("durable: snapshot %s corrupt: %w", path, err)
		}
		s.apply(rec)
		rest = rest[n:]
	}
	s.seq = seq
	s.recovery.SnapshotKeys = int64(len(s.mem))
	return nil
}

// openWAL replays wal.log on top of the snapshot and leaves the file
// open for appending. Records whose sequence the snapshot already
// covers are skipped (a crash landed between the snapshot rename and
// the WAL rotation); a torn tail is truncated.
func (s *Store) openWAL() error {
	path := filepath.Join(s.dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: read wal: %w", err)
	}
	fresh := len(data) == 0
	base, herr := parseHeader(data, walMagic)
	if herr != nil && !fresh {
		// Unreadable header: a crash mid-rotation. The snapshot covers
		// everything up to s.seq, so resetting the WAL loses nothing
		// that was ever acked from a complete record.
		s.recovery.TornRecords++
		fresh = true
	}
	offset := headerSize
	if !fresh {
		i := 0
		rest := data[headerSize:]
		for len(rest) > 0 {
			rec, n, perr := parseFrame(rest)
			if perr != nil {
				s.recovery.TornRecords++
				break
			}
			i++
			if base+uint64(i) <= s.seq {
				s.recovery.SkippedRecords++
			} else {
				s.apply(rec)
				s.seq = base + uint64(i)
				s.recovery.ReplayedRecords++
			}
			rest = rest[n:]
			offset += n
		}
		s.walRecords = i
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open wal: %w", err)
	}
	if fresh {
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt(encodeHeader(walMagic, s.seq), 0)
		}
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: init wal: %w", err)
		}
		offset = headerSize
		s.walRecords = 0
	} else if offset < len(data) {
		// Torn tail: cut back to the last complete record.
		if err := f.Truncate(int64(offset)); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: truncate torn wal: %w", err)
		}
	}
	if _, err := f.Seek(int64(offset), 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: seek wal: %w", err)
	}
	s.wal = f
	return nil
}

// apply folds one replayed record into the in-memory maps. Replay is
// order-faithful, so a put logged before an entomb of the same entry
// re-converges to the entombed state.
func (s *Store) apply(rec record) {
	switch rec.op {
	case recPut:
		for _, e := range rec.entries {
			if set, added := wire.InsertEntry(s.mem[rec.key], e); added {
				s.mem[rec.key] = set
			}
		}
	case recReplace, recReplaceFull:
		// A record written before entry sets were kept in order carries
		// its set as the writes arrived; the map never does.
		s.setEntries(rec.key, wire.SortedEntries(rec.entries))
		delete(s.tombs, rec.key)
		for _, t := range rec.tombs {
			s.entombMem(rec.key, t)
		}
	case recTomb:
		for _, t := range rec.tombs {
			s.removeLive(rec.key, t.Entry)
			s.entombMem(rec.key, t)
		}
	case recTombGC:
		s.gcMem(rec.gcBefore)
	}
}

// removeLive deletes the live entry e under key, reporting whether it
// was present. Callers hold s.mu (or own the store exclusively during
// replay).
func (s *Store) removeLive(key keyspace.Key, e overlay.Entry) bool {
	entries, removed := wire.DeleteEntry(s.mem[key], e)
	if removed {
		s.setEntries(key, entries)
	}
	return removed
}

// setEntries stores key's (sorted) entry set; an empty set deletes the
// key from the live map.
func (s *Store) setEntries(key keyspace.Key, entries []overlay.Entry) {
	if len(entries) == 0 {
		delete(s.mem, key)
	} else {
		s.mem[key] = entries
	}
}

// entombMem records t under key in the in-memory tombstone map keeping
// the latest At, reporting whether it was new or refreshed.
func (s *Store) entombMem(key keyspace.Key, t wire.Tombstone) bool {
	m := s.tombs[key]
	if m == nil {
		m = make(map[overlay.Entry]int64)
		s.tombs[key] = m
	}
	if at, ok := m[t.Entry]; ok && at >= t.At {
		return false
	}
	m[t.Entry] = t.At
	return true
}

// gcMem drops tombstones older than before from the in-memory map,
// returning how many were collected.
func (s *Store) gcMem(before int64) int {
	collected := 0
	for k, m := range s.tombs {
		for e, at := range m {
			if at < before {
				delete(m, e)
				collected++
			}
		}
		if len(m) == 0 {
			delete(s.tombs, k)
		}
	}
	return collected
}

// appendLocked frames rec into the WAL (write-ahead: the caller updates
// the map only after this succeeds). A non-nil return means the write
// must not be acked; it may still have partially reached the disk,
// where replay either truncates it (torn) or re-applies it (complete —
// harmless, records are idempotent).
func (s *Store) appendLocked(rec record) error {
	if s.closed {
		return os.ErrClosed
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
		return err
	}
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
	for k, entries := range s.mem {
		buf = append(buf, encodeRecord(record{
			op: recReplaceFull, key: k, entries: entries, tombs: tombstoneSlice(s.tombs[k]),
		})...)
	}
	for k, m := range s.tombs {
		if len(s.mem[k]) > 0 || len(m) == 0 {
			continue // covered above, or empty
		}
		buf = append(buf, encodeRecord(record{op: recReplaceFull, key: k, tombs: tombstoneSlice(m)})...)
	}
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
	if _, err := s.wal.WriteAt(encodeHeader(walMagic, s.seq), 0); err != nil {
		return fail(err)
	}
	if _, err := s.wal.Seek(headerSize, 0); err != nil {
		return fail(err)
	}
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
	entries := s.mem[key]
	if len(entries) == 0 {
		return nil
	}
	out := make([]overlay.Entry, len(entries))
	copy(out, entries)
	return out
}

// Put implements wire.Store: WAL append first, map second. A put
// suppressed by a live tombstone is refused without touching the log
// (the suppression is already durable through the tombstone record).
func (s *Store) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dead := s.tombs[key][e]; dead {
		return false, nil
	}
	i, found := slices.BinarySearchFunc(s.mem[key], e, wire.CompareEntries)
	if found {
		return false, nil
	}
	if err := s.appendLocked(record{op: recPut, key: key, entries: []overlay.Entry{e}}); err != nil {
		return false, err
	}
	s.mem[key] = slices.Insert(s.mem[key], i, e)
	s.maybeCompactLocked()
	return true, nil
}

// Remove implements wire.Store: the WAL records a tombstone whose
// replay both deletes the live entry and re-records the suppression,
// so a restarted node cannot resurrect the entry from a stale copy.
func (s *Store) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := wire.Tombstone{Entry: e, At: time.Now().UnixNano()}
	if err := s.appendLocked(record{op: recTomb, key: key, tombs: []wire.Tombstone{t}}); err != nil {
		return false, err
	}
	removed := s.removeLive(key, e)
	s.entombMem(key, t)
	s.maybeCompactLocked()
	return removed, nil
}

// Replace implements wire.Store.
func (s *Store) Replace(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := wire.SortedEntries(entries)
	tout := make([]wire.Tombstone, len(tombs))
	copy(tout, tombs)
	if err := s.appendLocked(record{op: recReplaceFull, key: key, entries: out, tombs: tout}); err != nil {
		return err
	}
	s.setEntries(key, out)
	delete(s.tombs, key)
	for _, t := range tout {
		s.entombMem(key, t)
	}
	s.maybeCompactLocked()
	return nil
}

// Tombstoned implements wire.Store.
func (s *Store) Tombstoned(key keyspace.Key, e overlay.Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, dead := s.tombs[key][e]
	return dead
}

// Tombstones implements wire.Store.
func (s *Store) Tombstones(key keyspace.Key) []wire.Tombstone {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tombstoneSlice(s.tombs[key])
}

// Entomb implements wire.Store: one WAL record covers the batch, then
// each tombstone deletes its live entry and is merged keeping the
// latest At.
func (s *Store) Entomb(key keyspace.Key, tombs []wire.Tombstone) (int, error) {
	if len(tombs) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tout := make([]wire.Tombstone, len(tombs))
	copy(tout, tombs)
	if err := s.appendLocked(record{op: recTomb, key: key, tombs: tout}); err != nil {
		return 0, err
	}
	fresh := 0
	for _, t := range tout {
		s.removeLive(key, t.Entry)
		if s.entombMem(key, t) {
			fresh++
		}
	}
	s.maybeCompactLocked()
	return fresh, nil
}

// ForEachTombstone implements wire.Store.
func (s *Store) ForEachTombstone(fn func(key keyspace.Key, tombs []wire.Tombstone) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, m := range s.tombs {
		if len(m) == 0 {
			continue
		}
		if !fn(k, tombstoneSlice(m)) {
			return
		}
	}
}

// GCTombstones implements wire.Store: the cutoff is logged before the
// in-memory collection so the GC survives restart (otherwise replay
// would resurrect every collected tombstone from its recTomb record).
func (s *Store) GCTombstones(before int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	any := false
	for _, m := range s.tombs {
		for _, at := range m {
			if at < before {
				any = true
				break
			}
		}
		if any {
			break
		}
	}
	if !any {
		return 0, nil
	}
	if err := s.appendLocked(record{op: recTombGC, gcBefore: before}); err != nil {
		return 0, err
	}
	collected := s.gcMem(before)
	s.maybeCompactLocked()
	return collected, nil
}

// tombstoneSlice copies a tombstone map into a sorted slice.
func tombstoneSlice(m map[overlay.Entry]int64) []wire.Tombstone {
	if len(m) == 0 {
		return nil
	}
	out := make([]wire.Tombstone, 0, len(m))
	for e, at := range m {
		out = append(out, wire.Tombstone{Entry: e, At: at})
	}
	slices.SortFunc(out, func(a, b wire.Tombstone) int { return wire.CompareEntries(a.Entry, b.Entry) })
	return out
}

// ForEach implements wire.Store.
func (s *Store) ForEach(fn func(key keyspace.Key, entries []overlay.Entry) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, entries := range s.mem {
		if !fn(k, entries) {
			return
		}
	}
}

// Len implements wire.Store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
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
