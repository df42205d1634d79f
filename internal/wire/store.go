package wire

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// Store is a node's local entry store: the map from ring keys to the
// entry sets this node currently holds (owned keys plus replica
// copies). Implementations need not be safe for concurrent use by
// themselves: the node wraps whatever Config.Store supplies in a
// ConcurrentStore (asConcurrentStore) that serializes access — a nil
// Config.Store becomes a ShardedStore striping MemStores by key, a
// store that is a ConcurrentStore already is used as it is, and any
// other becomes a one-stripe ShardedStore. Handler goroutines and the
// maintenance loop therefore interleave calls one at a time per key
// stripe, never concurrently against the same underlying Store stripe.
//
// One type holds the per-key state — MemStore, a plain RAM map that
// dies with the process — and the others are built around it:
// ShardedStore stripes any Stores by key, and the disk-backed store in
// internal/wire/durable is a write-ahead log and snapshot in front of a
// MemStore, which turns a crash-stop into crash-recovery.
// Mutators return an error when the write could not be made durable;
// the node then refuses to acknowledge the operation, so "acked" always
// means "recorded to the configured durability level".
//
// Order contract: a key's entry set is kept strictly sorted by
// CompareEntries — (Kind, Value), no duplicates — at all times. Writers
// establish it (Put inserts at the entry's position, Replace and
// recovery normalize whatever arrives), so Get and ForEach hand out
// sorted sets and no reader has to sort: the index layer only verifies
// the order of a response (DESIGN.md §18).
//
// Sharing contract: a key's entry set is immutable once stored. Every
// write that changes it stores a fresh set (InsertEntry, DeleteEntry,
// SortedEntries) and never edits the old one, so Get and ForEach hand
// out the stored set itself, uncopied: a reader may keep it, across
// later writes and without a lock, but must not modify it. Sets are
// clipped (cap == len), so an append to one copies it (DESIGN.md §34).
type Store interface {
	// Get returns the entry set stored under key (nil if none), in
	// CompareEntries order. The set is shared and read-only.
	Get(key keyspace.Key) []overlay.Entry
	// Digest returns overlay.Digest of the entry set stored under key
	// (0 if none). Every write keeps it up to date, so reading it
	// hashes nothing.
	Digest(key keyspace.Key) uint64
	// Put inserts e under key at its CompareEntries position unless an
	// identical entry is already present or a live tombstone for e
	// suppresses the write, reporting whether it was added. A
	// suppressed put returns (false, nil); callers that must distinguish
	// suppression from a duplicate check Tombstoned. Tombstones win
	// until they are garbage-collected: the index's entries are
	// write-once, so re-adding an identical removed entry within the TTL
	// is the one unsupported pattern (DESIGN.md §15).
	Put(key keyspace.Key, e overlay.Entry) (bool, error)
	// Remove deletes the exact entry under key, reporting whether it
	// existed, and records a tombstone for it either way — a removal
	// must suppress stale copies this node has not seen yet (a replica
	// behind a partition), so the deletion record matters even when the
	// live entry is absent. Removing the last entry keeps the key alive
	// while tombstones remain.
	Remove(key keyspace.Key, e overlay.Entry) (bool, error)
	// Replace sets key's whole entry set and tombstone set at once
	// (repair-sync ship semantics); both empty deletes the key. entries
	// may arrive in any order and with repeats: the store keeps the
	// sorted, duplicate-free set.
	Replace(key keyspace.Key, entries []overlay.Entry, tombs []Tombstone) error
	// Tombstoned reports whether a live tombstone suppresses e under key:
	// whether key holds a tombstone for e's overlay.EntryHash.
	Tombstoned(key keyspace.Key, e overlay.Entry) bool
	// Tombstones returns a copy of key's tombstones (nil if none).
	Tombstones(key keyspace.Key) []Tombstone
	// HeldTombstones returns key's tombstones as the store holds them,
	// uncopied (nil if none). Later writes edit them in place, so the
	// caller reads them under key's lock — inside ConcurrentStore.View
	// or Update — and neither keeps nor modifies them. A
	// ConcurrentStore, whose lock its callers cannot hold, returns a
	// copy.
	HeldTombstones(key keyspace.Key) []Tombstone
	// Entomb merges foreign tombstones into key: each one removes the
	// live entries whose overlay.EntryHash it names, if any, and is
	// recorded keeping the latest At. It returns how many tombstones were
	// newly recorded or refreshed to a later At.
	Entomb(key keyspace.Key, tombs []Tombstone) (int, error)
	// ForEachTombstone calls fn for every key holding tombstones until
	// fn returns false, under the same aliasing rules as ForEach.
	ForEachTombstone(fn func(key keyspace.Key, tombs []Tombstone) bool)
	// GCTombstones drops every tombstone with At < before, returning how
	// many were collected. A key left with no entries and no tombstones
	// is removed.
	GCTombstones(before int64) (int, error)
	// ForEach calls fn for every key with live entries until fn returns
	// false (keys holding only tombstones are skipped — use
	// ForEachTombstone). The entries slice is the stored set, shared and
	// read-only as Get's is; fn must not call other Store methods.
	ForEach(fn func(key keyspace.Key, entries []overlay.Entry) bool)
	// Len returns the number of distinct keys with live entries.
	Len() int
	// Sync flushes buffered writes to stable storage (no-op for
	// memory-backed stores).
	Sync() error
	// Close releases the store's resources, flushing first. The node
	// owns its store and closes it on Stop/Leave; a durable store can
	// then be re-opened from the same directory to restart the node.
	Close() error
}

// RecoveryStats describes what a durable store replayed when it was
// opened: how much state came back from the snapshot and the WAL, and
// whether a torn tail had to be truncated.
type RecoveryStats struct {
	// SnapshotKeys is the number of keys loaded from the snapshot.
	SnapshotKeys int64
	// ReplayedRecords is the number of WAL records applied on top.
	ReplayedRecords int64
	// SkippedRecords is the number of WAL records skipped because the
	// snapshot already covered their sequence numbers (a crash landed
	// between the snapshot rename and the WAL rotation).
	SkippedRecords int64
	// TornRecords counts torn or checksum-corrupt trailing records
	// truncated from the WAL (replay stops at the first bad frame).
	TornRecords int64
	// LastSeq is the last applied sequence number.
	LastSeq uint64
}

// Merge accumulates another recovery snapshot into s (for fleet-wide
// totals); LastSeq keeps the maximum.
func (s *RecoveryStats) Merge(o RecoveryStats) {
	s.SnapshotKeys += o.SnapshotKeys
	s.ReplayedRecords += o.ReplayedRecords
	s.SkippedRecords += o.SkippedRecords
	s.TornRecords += o.TornRecords
	if o.LastSeq > s.LastSeq {
		s.LastSeq = o.LastSeq
	}
}

// RecoverableStore is the optional Store extension implemented by
// stores that replay persistent state at open (internal/wire/durable).
// The soak harness uses it to account restart-recovery work.
type RecoverableStore interface {
	Store
	// RecoveryStats reports what the store replayed when it was opened.
	RecoveryStats() RecoveryStats
}

// InstrumentedStore is the optional Store extension for stores that
// export telemetry; Node.Instrument forwards to it when present.
type InstrumentedStore interface {
	Store
	// Instrument attaches the store's metric series to reg.
	Instrument(reg *telemetry.Registry)
}

// CompareEntries orders entries by (Kind, Value): the order every Store
// keeps a key's entry set in. Index entries' values are canonical query
// forms, so within one kind it is canonical-form order.
func CompareEntries(a, b overlay.Entry) int {
	if c := strings.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

// entryHash is overlay.EntryHash: the hash a key's set digest sums, a
// tombstone keeps of its entry and a removal names an entry by. Tests
// replace it to build two entries that share a hash.
var entryHash = overlay.EntryHash

// setDigest is overlay.Digest of entries, summed through entryHash.
func setDigest(entries []overlay.Entry) uint64 {
	var d uint64
	for _, e := range entries {
		d += entryHash(e)
	}
	return d
}

// compareTombstones orders tombstones by the digest they suppress.
func compareTombstones(a, b Tombstone) int { return cmp.Compare(a.Hash, b.Hash) }

// holdsHash reports whether tombs, sorted by digest, holds one for h.
func holdsHash(tombs []Tombstone, h uint64) bool {
	_, found := slices.BinarySearchFunc(tombs, h, func(t Tombstone, h uint64) int { return cmp.Compare(t.Hash, h) })
	return found
}

// InsertEntry returns a fresh set holding set's entries plus e at its
// CompareEntries position, reporting false (and returning set as it
// was) when e is already there. The binary search is the duplicate
// check. set is never modified, and the result is clipped.
func InsertEntry(set []overlay.Entry, e overlay.Entry) ([]overlay.Entry, bool) {
	i, found := slices.BinarySearchFunc(set, e, CompareEntries)
	if found {
		return set, false
	}
	out := make([]overlay.Entry, len(set)+1)
	copy(out, set[:i])
	out[i] = e
	copy(out[i+1:], set[i:])
	return out, true
}

// DeleteEntry returns a fresh set holding set's entries without e,
// reporting whether e was there. The remaining entries keep their
// order; set is never modified, and the result is clipped.
func DeleteEntry(set []overlay.Entry, e overlay.Entry) ([]overlay.Entry, bool) {
	i, found := slices.BinarySearchFunc(set, e, CompareEntries)
	if !found {
		return set, false
	}
	out := make([]overlay.Entry, len(set)-1)
	copy(out, set[:i])
	copy(out[i:], set[i+1:])
	return out, true
}

// SortedEntries returns a fresh, clipped copy of entries in
// CompareEntries order without duplicates (nil when empty): what a
// store keeps of a set that arrived from outside — a repair ship, a WAL
// or snapshot record. A set another store shipped is sorted already and
// is only checked.
func SortedEntries(entries []overlay.Entry) []overlay.Entry {
	if len(entries) == 0 {
		return nil
	}
	out := slices.Clone(entries)
	if !slices.IsSortedFunc(out, CompareEntries) {
		slices.SortFunc(out, CompareEntries)
	}
	return slices.Clip(slices.Compact(out))
}

// sortedTombstones returns a copy of tombs in digest order with one
// record per digest, the one with the latest At (nil when empty): what a
// store keeps of a shipped or replayed tombstone set.
func sortedTombstones(tombs []Tombstone) []Tombstone {
	if len(tombs) == 0 {
		return nil
	}
	latestFirst := func(a, b Tombstone) int {
		if c := compareTombstones(a, b); c != 0 {
			return c
		}
		return cmp.Compare(b.At, a.At)
	}
	out := slices.Clone(tombs)
	if !slices.IsSortedFunc(out, latestFirst) {
		slices.SortFunc(out, latestFirst)
	}
	return slices.CompactFunc(out, func(a, b Tombstone) bool { return a.Hash == b.Hash })
}

// MemStore is the default Store: plain in-memory maps with no
// durability. Mutators never fail; a crash-stop loses everything, which
// is exactly the behaviour the replicated ring's anti-entropy repair is
// sized for. It is also the one implementation of the per-key state
// machine: the durable store is a write-ahead log in front of a MemStore
// (DESIGN.md §21). A key's tombstones are one slice sorted by digest,
// one record per digest (DESIGN.md §46), so reads hand them out without
// sorting and a lookup is a binary search. Entry sets are copy-on-write
// (see the Store sharing contract); tombstone sets are edited in place,
// copied out by Tombstones and lent under the key's lock by
// HeldTombstones. Each set is stored with its digest, which every write updates by the
// hashes of the entries it adds or drops (DESIGN.md §37).
type MemStore struct {
	m     map[keyspace.Key]keySet
	tombs map[keyspace.Key][]Tombstone
}

// keySet is one key's live entry set and its overlay.Digest.
type keySet struct {
	entries []overlay.Entry
	digest  uint64
}

var _ Store = (*MemStore)(nil)

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		m:     make(map[keyspace.Key]keySet),
		tombs: make(map[keyspace.Key][]Tombstone),
	}
}

// Get implements Store: the stored set itself, which no write edits.
func (s *MemStore) Get(key keyspace.Key) []overlay.Entry { return s.m[key].entries }

// Digest implements Store: the digest stored with the set.
func (s *MemStore) Digest(key keyspace.Key) uint64 { return s.m[key].digest }

// Has reports whether e is a live entry under key.
func (s *MemStore) Has(key keyspace.Key, e overlay.Entry) bool {
	_, found := slices.BinarySearchFunc(s.m[key].entries, e, CompareEntries)
	return found
}

// Holds reports whether key has live entries: the keys ForEach visits
// and Len counts.
func (s *MemStore) Holds(key keyspace.Key) bool { return len(s.m[key].entries) > 0 }

// Put implements Store.
func (s *MemStore) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	if s.Tombstoned(key, e) {
		return false, nil
	}
	ks := s.m[key]
	set, added := InsertEntry(ks.entries, e)
	if added {
		s.m[key] = keySet{entries: set, digest: ks.digest + entryHash(e)}
	}
	return added, nil
}

// Remove implements Store.
func (s *MemStore) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	return s.Bury(key, e, TombstoneOf(e, time.Now().UnixNano())), nil
}

// Bury is Remove with e's tombstone t given: it deletes e itself from
// key's live set, found by comparison and not by hash, and records t
// keeping the latest At, reporting whether e was live. A durable store
// logs t before it buries e.
func (s *MemStore) Bury(key keyspace.Key, e overlay.Entry, t Tombstone) bool {
	ks := s.m[key]
	entries, removed := DeleteEntry(ks.entries, e)
	if removed {
		s.setEntries(key, keySet{entries: entries, digest: ks.digest - t.Hash})
	}
	s.record(key, t)
	return removed
}

// record records t under key keeping the latest At, reporting whether
// the tombstone was new or refreshed.
func (s *MemStore) record(key keyspace.Key, t Tombstone) bool {
	set := s.tombs[key]
	i, found := slices.BinarySearchFunc(set, t, compareTombstones)
	if !found {
		s.tombs[key] = slices.Insert(set, i, t)
		return true
	}
	if set[i].At >= t.At {
		return false
	}
	set[i].At = t.At
	return true
}

// named returns the positions, ascending, of key's live entries whose
// hash one of tombs names. The live set is hashed once, whatever the
// number of tombstones, and each hash looked up among them.
func (s *MemStore) named(key keyspace.Key, tombs []Tombstone) []int {
	live := s.m[key].entries
	if len(live) == 0 || len(tombs) == 0 {
		return nil
	}
	sorted := tombs
	if !slices.IsSortedFunc(sorted, compareTombstones) {
		sorted = slices.Clone(tombs)
		slices.SortFunc(sorted, compareTombstones)
	}
	var out []int
	for i, e := range live {
		if holdsHash(sorted, entryHash(e)) {
			out = append(out, i)
		}
	}
	return out
}

// setEntries stores key's (sorted) entry set and its digest; an empty
// set deletes the key from the live map.
func (s *MemStore) setEntries(key keyspace.Key, ks keySet) {
	if len(ks.entries) == 0 {
		delete(s.m, key)
	} else {
		s.m[key] = ks
	}
}

// Replace implements Store.
func (s *MemStore) Replace(key keyspace.Key, entries []overlay.Entry, tombs []Tombstone) error {
	set := SortedEntries(entries)
	s.setEntries(key, keySet{entries: set, digest: setDigest(set)})
	if len(tombs) == 0 {
		delete(s.tombs, key)
	} else {
		s.tombs[key] = sortedTombstones(tombs)
	}
	return nil
}

// Tombstoned implements Store: e is hashed only when key holds
// tombstones.
func (s *MemStore) Tombstoned(key keyspace.Key, e overlay.Entry) bool {
	tombs := s.tombs[key]
	return len(tombs) > 0 && holdsHash(tombs, entryHash(e))
}

// Tombstones implements Store.
func (s *MemStore) Tombstones(key keyspace.Key) []Tombstone {
	return slices.Clone(s.tombs[key])
}

// HeldTombstones implements Store: the stored slice itself.
func (s *MemStore) HeldTombstones(key keyspace.Key) []Tombstone { return s.tombs[key] }

// Entomb implements Store: the live entries tombs name go in one new
// set, and each tombstone is recorded.
func (s *MemStore) Entomb(key keyspace.Key, tombs []Tombstone) (int, error) {
	if dead := s.named(key, tombs); len(dead) > 0 {
		ks := s.m[key]
		entries := make([]overlay.Entry, 0, len(ks.entries)-len(dead))
		digest := ks.digest
		for i, e := range ks.entries {
			if len(dead) > 0 && dead[0] == i {
				dead = dead[1:]
				digest -= entryHash(e)
				continue
			}
			entries = append(entries, e)
		}
		s.setEntries(key, keySet{entries: entries, digest: digest})
	}
	fresh := 0
	for _, t := range tombs {
		if s.record(key, t) {
			fresh++
		}
	}
	return fresh, nil
}

// EntombChanges reports whether Entomb(key, tombs) would change anything:
// a tombstone not held, held with an earlier At, or naming a live entry.
func (s *MemStore) EntombChanges(key keyspace.Key, tombs []Tombstone) bool {
	held := s.tombs[key]
	for _, t := range tombs {
		i, found := slices.BinarySearchFunc(held, t, compareTombstones)
		if !found || held[i].At < t.At {
			return true
		}
	}
	return len(s.named(key, tombs)) > 0
}

// ForEachTombstone implements Store.
func (s *MemStore) ForEachTombstone(fn func(key keyspace.Key, tombs []Tombstone) bool) {
	for k, tombs := range s.tombs {
		if !fn(k, tombs) {
			return
		}
	}
}

// TombstonesBefore reports whether GCTombstones(before) would collect
// anything, without collecting it.
func (s *MemStore) TombstonesBefore(before int64) bool {
	for _, tombs := range s.tombs {
		for _, t := range tombs {
			if t.At < before {
				return true
			}
		}
	}
	return false
}

// GCTombstones implements Store.
func (s *MemStore) GCTombstones(before int64) (int, error) {
	collected := 0
	for k, tombs := range s.tombs {
		kept := slices.DeleteFunc(tombs, func(t Tombstone) bool { return t.At < before })
		collected += len(tombs) - len(kept)
		if len(kept) == 0 {
			delete(s.tombs, k)
		} else {
			s.tombs[k] = kept
		}
	}
	return collected, nil
}

// ForEach implements Store.
func (s *MemStore) ForEach(fn func(key keyspace.Key, entries []overlay.Entry) bool) {
	for k, ks := range s.m {
		if !fn(k, ks.entries) {
			return
		}
	}
}

// Len implements Store.
func (s *MemStore) Len() int { return len(s.m) }

// Sync implements Store (no-op).
func (s *MemStore) Sync() error { return nil }

// Close implements Store (no-op).
func (s *MemStore) Close() error { return nil }
