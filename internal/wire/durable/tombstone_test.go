package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// TestTombstoneWALReplay: deletion records survive a crash-restart via
// WAL replay — the tombstone keeps suppressing re-puts across reopens,
// a GC record replays as a GC, and only after it does a re-put land.
func TestTombstoneWALReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key, entry := k("wal-tomb"), e("index", "deleted")

	if _, err := s.Put(key, entry); err != nil {
		t.Fatal(err)
	}
	if removed, err := s.Remove(key, entry); err != nil || !removed {
		t.Fatalf("remove: %v %v", removed, err)
	}
	if added, err := s.Put(key, entry); err != nil || added {
		t.Fatalf("put past live tombstone: added=%v err=%v", added, err)
	}
	// Crash (no Close) and reopen: the recTomb record must replay.
	r := mustOpen(t, dir, Options{})
	if !r.Tombstoned(key, entry) {
		t.Fatal("tombstone lost across restart")
	}
	if added, err := r.Put(key, entry); err != nil || added {
		t.Fatalf("restart forgot the suppression: added=%v err=%v", added, err)
	}
	// GC the tombstone, crash, reopen: the recTombGC record must replay
	// too, or the restart would resurrect the suppression.
	tombs := r.Tombstones(key)
	if len(tombs) != 1 {
		t.Fatalf("want 1 tombstone, got %v", tombs)
	}
	if n, err := r.GCTombstones(tombs[0].At + 1); err != nil || n != 1 {
		t.Fatalf("GC: n=%d err=%v", n, err)
	}
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if r2.Tombstoned(key, entry) {
		t.Fatal("GC'd tombstone resurrected by WAL replay")
	}
	if added, err := r2.Put(key, entry); err != nil || !added {
		t.Fatalf("put after GC+restart: added=%v err=%v", added, err)
	}
}

// TestTombstoneReplaceAndEntombDurability: the bulk-install and
// merge-from-peer paths persist their tombstones like first-class
// writes.
func TestTombstoneReplaceAndEntombDurability(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := k("replace-tomb")
	live := e("index", "live")
	dead := e("index", "dead")

	if err := s.Replace(key, []overlay.Entry{live}, []wire.Tombstone{wire.TombstoneOf(dead, 42)}); err != nil {
		t.Fatal(err)
	}
	key2 := k("entomb-me")
	victim := e("index", "victim")
	if _, err := s.Put(key2, victim); err != nil {
		t.Fatal(err)
	}
	if fresh, err := s.Entomb(key2, []wire.Tombstone{wire.TombstoneOf(victim, 99)}); err != nil || fresh != 1 {
		t.Fatalf("entomb: fresh=%d err=%v", fresh, err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Get(key); len(got) != 1 || got[0] != live {
		t.Fatalf("replaced entries after restart: %v", got)
	}
	if got := r.Tombstones(key); len(got) != 1 || got[0] != wire.TombstoneOf(dead, 42) {
		t.Fatalf("replaced tombstones after restart: %v", got)
	}
	if got := r.Get(key2); len(got) != 0 {
		t.Fatalf("entombed entry survived restart: %v", got)
	}
	if !r.Tombstoned(key2, victim) {
		t.Fatal("entomb record lost across restart")
	}
}

// TestEntombUnchangedWritesNoRecord: entombing tombstones the store
// already holds, at an equal or earlier At, changes nothing and appends
// no WAL record — a repair round re-adopts a partner's tombstones every
// time they differ anywhere in the key. A later At, or a tombstone whose
// entry is live, is a change and is logged.
func TestEntombUnchangedWritesNoRecord(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	key, a, b := k("entomb-twice"), e("index", "a"), e("index", "b")
	tombs := []wire.Tombstone{wire.TombstoneOf(a, 10), wire.TombstoneOf(b, 20)}
	if fresh, err := s.Entomb(key, tombs); err != nil || fresh != 2 {
		t.Fatalf("first entomb: fresh=%d err=%v", fresh, err)
	}
	appends := s.c.walAppends.Value()
	for _, again := range [][]wire.Tombstone{tombs, {wire.TombstoneOf(a, 5)}, nil} {
		if fresh, err := s.Entomb(key, again); err != nil || fresh != 0 {
			t.Fatalf("entomb %v again: fresh=%d err=%v", again, fresh, err)
		}
	}
	if got := s.c.walAppends.Value(); got != appends {
		t.Fatalf("entombing held tombstones appended %d WAL records", got-appends)
	}
	if fresh, err := s.Entomb(key, []wire.Tombstone{wire.TombstoneOf(a, 30)}); err != nil || fresh != 1 {
		t.Fatalf("entomb a later At: fresh=%d err=%v", fresh, err)
	}
	// Replace can leave an entry live beside its own tombstone; entombing
	// that tombstone again kills the entry.
	if err := s.Replace(key, []overlay.Entry{b}, s.Tombstones(key)); err != nil {
		t.Fatal(err)
	}
	appends = s.c.walAppends.Value()
	if _, err := s.Entomb(key, []wire.Tombstone{wire.TombstoneOf(b, 20)}); err != nil || len(s.Get(key)) != 0 {
		t.Fatalf("entomb over a live entry: %v, live %v", err, s.Get(key))
	}
	if got := s.c.walAppends.Value(); got != appends+1 {
		t.Fatalf("entomb over a live entry appended %d WAL records, want 1", got-appends)
	}
}

// TestTombstoneSnapshotCompaction: WAL compaction must carry
// tombstone-only keys into the snapshot — a key whose every entry was
// removed still guards against resurrection after the WAL that held its
// deletion records is truncated.
func TestTombstoneSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: 4})
	key, entry := k("snap-tomb"), e("index", "gone")
	if _, err := s.Put(key, entry); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remove(key, entry); err != nil {
		t.Fatal(err)
	}
	// Push unrelated traffic until compaction has certainly run.
	for i := 0; i < 16; i++ {
		if _, err := s.Put(k("filler"), e("data", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{SnapshotEvery: 4})
	defer r.Close()
	if !r.Tombstoned(key, entry) {
		t.Fatal("snapshot compaction dropped a tombstone-only key")
	}
	if added, err := r.Put(key, entry); err != nil || added {
		t.Fatalf("post-compaction suppression lost: added=%v err=%v", added, err)
	}
	if got := r.Get(k("filler")); len(got) != 16 {
		t.Fatalf("filler entries after compaction: %d", len(got))
	}
}

// TestDigestTombstoneReplays: a tombstone is its entry's digest, and a
// digest replayed from the WAL or from a snapshot still kills the live
// entry it names and refuses that entry's put. The snapshot holds an
// entry live beside its own tombstone (Replace can leave one); a later
// WAL tombstone for it kills it at replay, and after the next
// compaction the snapshot alone keeps it out.
func TestDigestTombstoneReplays(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: -1})
	key, dead, live := k("digest-tomb"), e("index", "dead"), e("index", "live")
	if err := s.Replace(key, []overlay.Entry{dead, live}, []wire.Tombstone{wire.TombstoneOf(dead, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Entomb(key, []wire.Tombstone{wire.TombstoneOf(dead, 20)}); err != nil {
		t.Fatal(err)
	}
	gone := e("index", "removed")
	if _, err := s.Put(key, gone); err != nil {
		t.Fatal(err)
	}
	if removed, err := s.Remove(key, gone); err != nil || !removed {
		t.Fatalf("remove: %v %v", removed, err)
	}
	check := func(st *Store, when string) {
		t.Helper()
		if got := st.Get(key); len(got) != 1 || got[0] != live {
			t.Fatalf("%s: live %v, want %v alone", when, got, live)
		}
		for _, x := range []overlay.Entry{dead, gone} {
			if added, err := st.Put(key, x); err != nil || added {
				t.Fatalf("%s: put of removed %v: added=%v err=%v", when, x, added, err)
			}
		}
		tombs := st.Tombstones(key)
		if len(tombs) != 2 || !slices.Contains(tombs, wire.TombstoneOf(dead, 20)) ||
			!slices.ContainsFunc(tombs, func(tb wire.Tombstone) bool { return tb.Hash == overlay.EntryHash(gone) }) {
			t.Fatalf("%s: tombstones %v", when, tombs)
		}
	}
	check(s, "before the crash")
	// Crash (no Close): the snapshot replays the entry live beside its
	// tombstone, and the WAL's digest records kill it and the removed one.
	r := mustOpen(t, dir, Options{SnapshotEvery: -1})
	if st := r.RecoveryStats(); st.SnapshotKeys != 1 || st.ReplayedRecords != 3 {
		t.Fatalf("recovery stats %+v, want 1 snapshot key and 3 replayed records", st)
	}
	check(r, "after WAL replay")
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = mustOpen(t, dir, Options{})
	defer r.Close()
	if st := r.RecoveryStats(); st.ReplayedRecords != 0 {
		t.Fatalf("recovery stats %+v, want the snapshot alone", st)
	}
	check(r, "after snapshot replay")
}

// TestLegacyTombstonesReplayAsDigests: a data directory written before
// tombstones were digests — recTomb and recReplaceFull frames holding
// each tombstone's entry whole — replays into the digests of those
// entries: they kill and suppress what they did, and the next snapshot
// writes them in 16 bytes each.
func TestLegacyTombstonesReplayAsDigests(t *testing.T) {
	dir := t.TempDir()
	snapshot, wal := legacyDir()
	for name, data := range map[string][]byte{snapFile: snapshot, walFile: wal} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := e("index", "a"), e("index", "b")
	want := []DumpedKey{
		{Key: k("x"), Entries: []overlay.Entry{b}, Tombstones: []wire.Tombstone{wire.TombstoneOf(a, 50)}},
		{Key: k("y"), Tombstones: []wire.Tombstone{wire.TombstoneOf(b, 90)}},
		{Key: k("z"), Entries: []overlay.Entry{a, b}},
	}
	slices.SortFunc(want, func(p, q DumpedKey) int { return p.Key.Cmp(q.Key) })
	check := func(when string) {
		t.Helper()
		got, err := Dump(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", when, got, want)
		}
	}
	check("legacy directory")
	s := mustOpen(t, dir, Options{})
	if added, err := s.Put(k("y"), b); err != nil || added {
		t.Fatalf("a legacy tombstone let its entry back: added=%v err=%v", added, err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("after a snapshot")
	data, err := os.ReadFile(filepath.Join(dir, snapFile))
	if err != nil {
		t.Fatal(err)
	}
	for rest := data[headerSize:]; len(rest) > 0; {
		rec, n, err := parseFrame(rest)
		if err != nil || rec.op != recReplaceDigests {
			t.Fatalf("snapshot frame op %d, err %v: want recReplaceDigests", rec.op, err)
		}
		if len(rec.tombs) > 0 {
			// op, key, the entry list, the tombstone count, 16 bytes each
			if payload := 1 + keyspace.Size + len(appendEntries(nil, rec.entries)) + 1 + tombSize*len(rec.tombs); n != 8+payload {
				t.Fatalf("a frame of %d tombstones takes %d bytes, want %d", len(rec.tombs), n, 8+payload)
			}
		}
		rest = rest[n:]
	}
}
