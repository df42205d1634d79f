package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// The seed corpus doubles as a committed regression suite
// (testdata/fuzz/FuzzReplay), the way the codec's does in package wire:
// `go test` alone replays it, `go test -fuzz FuzzReplay` starts from it.

// replaySeed is one data directory: the bytes of snapshot.db and
// wal.log, either of them empty for "no such file".
type replaySeed struct{ snapshot, wal []byte }

// frameEnds returns the offset after the header and after every
// complete frame of a snapshot or WAL file.
func frameEnds(file []byte) []int {
	ends := []int{headerSize}
	for off := headerSize; off < len(file); {
		_, n, err := parseFrame(file[off:])
		if err != nil {
			break
		}
		off += n
		ends = append(ends, off)
	}
	return ends
}

// replaySeeds returns the data directory package wire's order test
// recovers (written before entry sets were kept sorted: a snapshot and a
// WAL tail), the same directory with either file cut at every frame
// boundary and one byte to each side of it, and hand-built directories
// holding the record kinds the old one predates: tombstones written
// whole, as stores wrote them before tombstones were digests, and as
// digests.
func replaySeeds(tb testing.TB) []replaySeed {
	tb.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "testdata", "legacy-datadir", name))
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	snapshot, wal := read(snapFile), read(walFile)
	seeds := []replaySeed{{snapshot, wal}, {nil, wal}, {snapshot, nil}, {nil, nil}}
	for _, end := range frameEnds(wal) {
		for cut := end - 1; cut <= end+1 && cut <= len(wal); cut++ {
			seeds = append(seeds, replaySeed{snapshot, wal[:cut]})
		}
	}
	for _, end := range frameEnds(snapshot) {
		for cut := end - 1; cut <= end+1 && cut <= len(snapshot); cut++ {
			seeds = append(seeds, replaySeed{snapshot[:cut], wal})
		}
	}

	// Tombstones, a shipped set, a GC round; the WAL's first record is one
	// the snapshot covers already (a crash between rename and rotation).
	// These frames hold their tombstones' entries whole.
	a, b := e("index", "a"), e("index", "b")
	legacySnap, legacyWAL := legacyDir()
	seeds = append(seeds, replaySeed{legacySnap, legacyWAL}, replaySeed{nil, legacyWAL},
		replaySeed{legacySnap, []byte("garbage")}, replaySeed{[]byte("garbage"), legacyWAL})

	// Frames with a good checksum that declare far more entries or
	// tombstones than their few bytes could hold: refused before the
	// count is allocated for.
	huge := func(op byte) []byte {
		payload := append([]byte{op}, make([]byte, 20)...)
		return frameOf(append(payload, 0xff, 0xff, 0xff, 0x07)) // uvarint 16,777,215
	}
	for _, op := range []byte{recPut, recTomb, recReplaceFull} {
		seeds = append(seeds,
			replaySeed{nil, append(appendHeader(nil, walMagic, 0), huge(op)...)},
			replaySeed{append(appendHeader(nil, snapMagic, 0), huge(op)...), nil})
	}

	// The same directory as the legacy one, written as digests, with
	// a snapshot holding an entry live beside its own tombstone (Replace
	// can leave one) that a WAL tombstone then kills.
	digestSnap := file(snapMagic, 7,
		record{op: recReplaceDigests, key: k("x"), entries: []overlay.Entry{a, b}, tombs: []wire.Tombstone{wire.TombstoneOf(e("data", "gone"), 40)}},
		record{op: recReplaceDigests, key: k("y"), tombs: []wire.Tombstone{wire.TombstoneOf(a, 10), wire.TombstoneOf(b, 90)}},
		record{op: recReplaceDigests, key: k("w"), entries: []overlay.Entry{a, b}, tombs: []wire.Tombstone{wire.TombstoneOf(b, 30)}})
	digestWAL := file(walMagic, 6,
		record{op: recPut, key: k("x"), entries: []overlay.Entry{a}},
		record{op: recTombDigests, key: k("x"), tombs: []wire.Tombstone{wire.TombstoneOf(a, 50), wire.TombstoneOf(a, 20)}},
		record{op: recPut, key: k("x"), entries: []overlay.Entry{a}},
		record{op: recTombGC, gcBefore: 45},
		record{op: recReplace, key: k("z"), entries: []overlay.Entry{b, a, b}},
		record{op: recPut, key: k("y"), entries: []overlay.Entry{b}},
		record{op: recTombDigests, key: k("w"), tombs: []wire.Tombstone{wire.TombstoneOf(b, 60)}})
	seeds = append(seeds, replaySeed{digestSnap, digestWAL}, replaySeed{nil, digestWAL},
		replaySeed{digestSnap, []byte("garbage")}, replaySeed{[]byte("garbage"), digestWAL})
	for _, op := range []byte{recTombDigests, recReplaceDigests} {
		seeds = append(seeds,
			replaySeed{nil, append(appendHeader(nil, walMagic, 0), huge(op)...)},
			replaySeed{append(appendHeader(nil, snapMagic, 0), huge(op)...), nil})
	}
	return seeds
}

// file is a snapshot or WAL file holding recs after its header.
func file(magic string, seq uint64, recs ...record) []byte {
	out := appendHeader(nil, magic, seq)
	for _, rec := range recs {
		out = appendFrame(out, rec)
	}
	return out
}

// legacyTomb is a tombstone as recTomb and recReplaceFull frames hold
// it: the removed entry whole, and its At.
type legacyTomb struct {
	entry overlay.Entry
	at    int64
}

// legacyFrame encodes a recTomb frame (entries nil) or a recReplaceFull
// one the way stores wrote them before tombstones were digests: each
// tombstone its entry's length-prefixed strings and an 8-byte At.
func legacyFrame(op byte, key keyspace.Key, entries []overlay.Entry, tombs ...legacyTomb) []byte {
	payload := append([]byte{op}, key[:]...)
	if op == recReplaceFull {
		payload = appendEntries(payload, entries)
	}
	payload = binary.AppendUvarint(payload, uint64(len(tombs)))
	for _, t := range tombs {
		payload = binary.AppendUvarint(payload, uint64(len(t.entry.Kind)))
		payload = append(payload, t.entry.Kind...)
		payload = binary.AppendUvarint(payload, uint64(len(t.entry.Value)))
		payload = append(payload, t.entry.Value...)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(t.at))
	}
	return frameOf(payload)
}

// legacyDir is a data directory written before tombstones were digests:
// a snapshot of two keys, one holding only tombstones, and a WAL that
// puts, entombs, collects, ships a set and puts again. Its first record
// is one the snapshot covers already (a crash between rename and
// rotation).
func legacyDir() (snapshot, wal []byte) {
	a, b := e("index", "a"), e("index", "b")
	snapshot = appendHeader(nil, snapMagic, 7)
	snapshot = append(snapshot, legacyFrame(recReplaceFull, k("x"), []overlay.Entry{a, b}, legacyTomb{e("data", "gone"), 40})...)
	snapshot = append(snapshot, legacyFrame(recReplaceFull, k("y"), nil, legacyTomb{a, 10}, legacyTomb{b, 90})...)
	wal = appendHeader(nil, walMagic, 6)
	wal = appendFrame(wal, record{op: recPut, key: k("x"), entries: []overlay.Entry{a}})
	wal = append(wal, legacyFrame(recTomb, k("x"), nil, legacyTomb{a, 50}, legacyTomb{a, 20})...)
	wal = appendFrame(wal, record{op: recPut, key: k("x"), entries: []overlay.Entry{a}})
	wal = appendFrame(wal, record{op: recTombGC, gcBefore: 45})
	wal = appendFrame(wal, record{op: recReplace, key: k("z"), entries: []overlay.Entry{b, a, b}})
	wal = appendFrame(wal, record{op: recPut, key: k("y"), entries: []overlay.Entry{b}})
	return snapshot, wal
}

// frameOf wraps an arbitrary payload in a well-formed frame: its length
// and a checksum that matches.
func frameOf(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// FuzzReplay feeds arbitrary bytes to the one reader of the on-disk
// format. Reading must never panic, and a small directory must never
// cost more than one maximal record to read. Open, Inspect and Dump all
// go through replay, so they must agree: on whether the directory is
// readable at all, on every number they report, and — once Open has cut
// off a torn tail — on the state being the same as before and the next
// open finding nothing torn.
func FuzzReplay(f *testing.F) {
	for _, s := range replaySeeds(f) {
		f.Add(s.snapshot, s.wal)
	}
	f.Fuzz(func(t *testing.T, snapshot, wal []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{snapFile: snapshot, walFile: wal} {
			if len(data) == 0 {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum, ierr := Inspect(dir)
		dump, derr := Dump(dir)
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; len(snapshot)+len(wal) <= 64<<10 && spent > maxRecordSize {
			t.Fatalf("reading %d bytes allocated %d", len(snapshot)+len(wal), spent)
		}
		s, oerr := Open(dir, Options{})
		if (ierr == nil) != (oerr == nil) || (derr == nil) != (oerr == nil) {
			t.Fatalf("Open: %v, Inspect: %v, Dump: %v", oerr, ierr, derr)
		}
		if oerr != nil {
			return // a corrupt snapshot: all three refuse
		}
		got := s.RecoveryStats()
		want := wire.RecoveryStats{
			SnapshotKeys:    int64(sum.SnapshotKeys),
			ReplayedRecords: int64(sum.WALRecords - sum.SkippedRecords),
			SkippedRecords:  int64(sum.SkippedRecords),
			LastSeq:         sum.LastSeq,
		}
		if sum.TornTail {
			want.TornRecords = 1
		}
		if got != want {
			t.Fatalf("Open recovered %+v, Inspect promised %+v", got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if again, err := Dump(dir); err != nil || !reflect.DeepEqual(again, dump) {
			t.Fatalf("Dump after Open+Close (err %v):\n got %v\nwant %v", err, again, dump)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s.Close()
		if rs := s.RecoveryStats(); rs.TornRecords != 0 || rs.LastSeq != want.LastSeq {
			t.Fatalf("second Open recovered %+v after %+v", rs, want)
		}
	})
}

// TestWriteReplayFuzzCorpus materializes replaySeeds as the committed
// corpus under testdata/fuzz/FuzzReplay. It only runs when
// DURABLE_WRITE_FUZZ_CORPUS=1 — regenerate after changing the seeds or
// the on-disk format:
//
//	DURABLE_WRITE_FUZZ_CORPUS=1 go test -run TestWriteReplayFuzzCorpus ./internal/wire/durable/
func TestWriteReplayFuzzCorpus(t *testing.T) {
	if os.Getenv("DURABLE_WRITE_FUZZ_CORPUS") != "1" {
		t.Skip("set DURABLE_WRITE_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReplay")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range replaySeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", s.snapshot, s.wal)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
