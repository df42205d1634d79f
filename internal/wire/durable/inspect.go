package durable

import (
	"slices"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// Summary is the result of offline-inspecting a durable data
// directory: what a node restarting from it would recover, plus the
// raw snapshot/WAL shape. Produced by Inspect; printed by
// `indexctl snapshot`.
type Summary struct {
	// Dir is the inspected data directory.
	Dir string
	// HasSnapshot reports whether a snapshot.db is present.
	HasSnapshot bool
	// SnapshotSeq is the snapshot's covered sequence number.
	SnapshotSeq uint64
	// SnapshotKeys is the number of keys the snapshot holds.
	SnapshotKeys int
	// WALBaseSeq is the WAL header's base sequence number.
	WALBaseSeq uint64
	// WALRecords is the number of complete records in the WAL.
	WALRecords int
	// SkippedRecords is how many WAL records a recovery would skip
	// because the snapshot already covers their sequence numbers.
	SkippedRecords int
	// TornTail reports a torn or corrupt trailing record (recovery
	// would truncate it; Inspect only reports it).
	TornTail bool
	// LastSeq is the sequence number recovery would resume from.
	LastSeq uint64
	// TempFiles names the compaction temp files present (snapshot.tmp,
	// wal.tmp): a crash mid-compaction leaves them, recovery ignores
	// them and Open removes them.
	TempFiles []string
	// Keys lists the recovered keys sorted by ring position.
	Keys []KeySummary
	// TotalEntries sums entry counts across all recovered keys.
	TotalEntries int
	// TotalTombstones sums recovered deletion records across all keys.
	TotalTombstones int
}

// KeySummary describes one recovered key.
type KeySummary struct {
	// Key is the ring key.
	Key keyspace.Key
	// Entries is the number of entries recovered under the key.
	Entries int
	// Kinds counts entries by kind.
	Kinds map[string]int
	// Tombstones is the number of deletion records held under the key.
	Tombstones int
}

// DumpedKey is one recovered key with its full entries and tombstones,
// produced by Dump. Where Inspect only counts what a directory holds,
// Dump returns the payloads themselves — the hook offline tooling needs
// to decode application-level records (e.g. the ingest spool).
type DumpedKey struct {
	// Key is the ring key.
	Key keyspace.Key
	// Entries are the recovered entries, in wire.CompareEntries order.
	Entries []overlay.Entry
	// Tombstones are the key's recovered deletion records.
	Tombstones []wire.Tombstone
}

// Dump performs a read-only recovery replay of the data directory at
// dir and returns every recovered key with its entries and tombstones,
// sorted by ring position. Like Inspect it never truncates a torn tail
// or creates missing files; a torn trailing record is simply where the
// replay stops.
func Dump(dir string) ([]DumpedKey, error) {
	r, err := replay(dir)
	if err != nil {
		return nil, err
	}
	out := make([]DumpedKey, 0, r.mem.Len())
	forEachKey(r.mem, func(k keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) {
		out = append(out, DumpedKey{Key: k, Entries: entries, Tombstones: tombs})
	})
	slices.SortFunc(out, func(a, b DumpedKey) int { return a.Key.Cmp(b.Key) })
	return out, nil
}

// Inspect performs a read-only recovery replay of the data directory
// at dir and summarizes what a restarting node would see. Unlike Open
// it never truncates a torn WAL tail or creates missing files, so it
// is safe to point at a live node's directory or a post-mortem copy.
func Inspect(dir string) (Summary, error) {
	r, err := replay(dir)
	sum := r.Summary
	if err != nil {
		return sum, err
	}
	forEachKey(r.mem, func(k keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) {
		ks := KeySummary{Key: k, Entries: len(entries), Kinds: make(map[string]int), Tombstones: len(tombs)}
		for _, e := range entries {
			ks.Kinds[e.Kind]++
		}
		sum.Keys = append(sum.Keys, ks)
		sum.TotalEntries += ks.Entries
		sum.TotalTombstones += ks.Tombstones
	})
	slices.SortFunc(sum.Keys, func(a, b KeySummary) int { return a.Key.Cmp(b.Key) })
	return sum, nil
}
