package durable

import (
	"testing"

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

	if err := s.Replace(key, []overlay.Entry{live}, []wire.Tombstone{{Entry: dead, At: 42}}); err != nil {
		t.Fatal(err)
	}
	key2 := k("entomb-me")
	victim := e("index", "victim")
	if _, err := s.Put(key2, victim); err != nil {
		t.Fatal(err)
	}
	if fresh, err := s.Entomb(key2, []wire.Tombstone{{Entry: victim, At: 99}}); err != nil || fresh != 1 {
		t.Fatalf("entomb: fresh=%d err=%v", fresh, err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Get(key); len(got) != 1 || got[0] != live {
		t.Fatalf("replaced entries after restart: %v", got)
	}
	if got := r.Tombstones(key); len(got) != 1 || got[0].Entry != dead || got[0].At != 42 {
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
	tombs := []wire.Tombstone{{Entry: a, At: 10}, {Entry: b, At: 20}}
	if fresh, err := s.Entomb(key, tombs); err != nil || fresh != 2 {
		t.Fatalf("first entomb: fresh=%d err=%v", fresh, err)
	}
	appends := s.c.walAppends.Value()
	for _, again := range [][]wire.Tombstone{tombs, {{Entry: a, At: 5}}, nil} {
		if fresh, err := s.Entomb(key, again); err != nil || fresh != 0 {
			t.Fatalf("entomb %v again: fresh=%d err=%v", again, fresh, err)
		}
	}
	if got := s.c.walAppends.Value(); got != appends {
		t.Fatalf("entombing held tombstones appended %d WAL records", got-appends)
	}
	if fresh, err := s.Entomb(key, []wire.Tombstone{{Entry: a, At: 30}}); err != nil || fresh != 1 {
		t.Fatalf("entomb a later At: fresh=%d err=%v", fresh, err)
	}
	// Replace can leave an entry live beside its own tombstone; entombing
	// that tombstone again kills the entry.
	if err := s.Replace(key, []overlay.Entry{b}, s.Tombstones(key)); err != nil {
		t.Fatal(err)
	}
	appends = s.c.walAppends.Value()
	if _, err := s.Entomb(key, []wire.Tombstone{{Entry: b, At: 20}}); err != nil || len(s.Get(key)) != 0 {
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
