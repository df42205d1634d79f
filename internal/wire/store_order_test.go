package wire_test

// External test package: the order contract binds the durable stores
// too, and they import wire.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
)

// storeModel is the reference the stores are held to: per key, the live
// entry set and the set of tombstoned entries, with no order at all.
type storeModel struct {
	live  map[keyspace.Key]map[overlay.Entry]bool
	tombs map[keyspace.Key]map[overlay.Entry]bool
}

func (m *storeModel) set(which map[keyspace.Key]map[overlay.Entry]bool, k keyspace.Key) map[overlay.Entry]bool {
	if which[k] == nil {
		which[k] = make(map[overlay.Entry]bool)
	}
	return which[k]
}

// checkStore asserts the order contract — every Get and ForEach set is
// strictly CompareEntries-sorted, hence duplicate-free — and that each
// set holds exactly the model's entries.
func checkStore(t *testing.T, st wire.Store, m *storeModel, keys []keyspace.Key, when string) {
	t.Helper()
	strictlySorted := func(set []overlay.Entry) bool {
		for i := 1; i < len(set); i++ {
			if wire.CompareEntries(set[i-1], set[i]) >= 0 {
				return false
			}
		}
		return true
	}
	for _, k := range keys {
		got := st.Get(k)
		if !strictlySorted(got) {
			t.Fatalf("%s: Get(%s) not strictly sorted: %v", when, k.Short(), got)
		}
		if len(got) != len(m.live[k]) {
			t.Fatalf("%s: Get(%s) = %v, model holds %v", when, k.Short(), got, m.live[k])
		}
		for _, e := range got {
			if !m.live[k][e] {
				t.Fatalf("%s: Get(%s) holds %v, model does not", when, k.Short(), e)
			}
		}
	}
	visited := 0
	st.ForEach(func(k keyspace.Key, set []overlay.Entry) bool {
		visited++
		if !strictlySorted(set) {
			t.Errorf("%s: ForEach(%s) not strictly sorted: %v", when, k.Short(), set)
		}
		return true
	})
	if visited != st.Len() {
		t.Fatalf("%s: ForEach visited %d keys, Len() = %d", when, visited, st.Len())
	}
}

// storeShape is one way of assembling a wire.Store; the order contract
// and the reference comparison below bind all of them alike.
type storeShape struct {
	name string
	open func(dir string) (wire.Store, error)
	disk bool // recovers from dir: reopened and checked again
	// dirs lists the durable data directories under dir (durable.Dump
	// reads one at a time).
	dirs func(dir string) []string
}

func storeShapes() []storeShape {
	durableShape := func(name string, stripes, snapshotEvery int) storeShape {
		return storeShape{name: name, disk: true, open: func(dir string) (wire.Store, error) {
			opts := durable.Options{SnapshotEvery: snapshotEvery}
			if stripes == 0 {
				return durable.Open(dir, opts)
			}
			return durable.OpenSharded(dir, stripes, opts)
		}, dirs: func(dir string) []string {
			if stripes == 0 {
				return []string{dir}
			}
			stripeDirs, _ := filepath.Glob(filepath.Join(dir, "stripe-*"))
			return stripeDirs
		}}
	}
	return []storeShape{
		{name: "MemStore", open: func(string) (wire.Store, error) { return wire.NewMemStore(), nil }},
		{name: "ShardedStore", open: func(string) (wire.Store, error) { return wire.NewShardedMemStore(4), nil }},
		durableShape("durable.Store/wal-replay", 0, -1),
		durableShape("durable.Store/snapshot", 0, 16),
		durableShape("durable.OpenSharded/wal-replay", 4, -1),
		durableShape("durable.OpenSharded/snapshot", 4, 8),
	}
}

// orderKeys and orderPool are the small key and entry universes both
// tests draw from, so that puts, removes and ships keep colliding.
func orderKeys() []keyspace.Key {
	keys := make([]keyspace.Key, 6)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("key-%d", i))
	}
	return keys
}

func orderPool() []overlay.Entry {
	var pool []overlay.Entry
	for _, kind := range []string{"index", "data"} {
		for v := 0; v < 10; v++ {
			pool = append(pool, overlay.Entry{Kind: kind, Value: fmt.Sprintf("v%02d", 9-v)})
		}
	}
	return pool
}

// TestStoreKeepsEntrySetsSorted drives every Store shape through a random
// interleaving of all its mutators — Replace fed shuffled sets with a
// repeated entry — and, for the durable shapes, through a close and
// reopen that recovers by WAL replay alone or by snapshot plus WAL tail.
func TestStoreKeepsEntrySetsSorted(t *testing.T) {
	keys, pool := orderKeys(), orderPool()
	for _, sh := range storeShapes() {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := sh.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			m := &storeModel{live: map[keyspace.Key]map[overlay.Entry]bool{}, tombs: map[keyspace.Key]map[overlay.Entry]bool{}}
			rng := rand.New(rand.NewSource(16))
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for op := 0; op < 800; op++ {
				k, e := keys[rng.Intn(len(keys))], pool[rng.Intn(len(pool))]
				switch r := rng.Intn(20); {
				case r < 11:
					added, err := st.Put(k, e)
					must(err)
					if want := !m.tombs[k][e] && !m.live[k][e]; added != want {
						t.Fatalf("op %d: Put(%v) added = %v, want %v", op, e, added, want)
					}
					if added {
						m.set(m.live, k)[e] = true
					}
				case r < 14:
					removed, err := st.Remove(k, e)
					must(err)
					if removed != m.live[k][e] {
						t.Fatalf("op %d: Remove(%v) = %v, want %v", op, e, removed, m.live[k][e])
					}
					delete(m.live[k], e)
					m.set(m.tombs, k)[e] = true
				case r < 16:
					other := pool[rng.Intn(len(pool))]
					now := time.Now().UnixNano()
					_, err := st.Entomb(k, []wire.Tombstone{wire.TombstoneOf(e, now), wire.TombstoneOf(other, now)})
					must(err)
					for _, dead := range []overlay.Entry{e, other} {
						delete(m.live[k], dead)
						m.set(m.tombs, k)[dead] = true
					}
				case r < 19:
					// A shipped set in arbitrary order, one entry twice.
					set := make([]overlay.Entry, 0, 8)
					for _, i := range rng.Perm(len(pool))[:rng.Intn(7)] {
						set = append(set, pool[i])
					}
					if len(set) > 0 {
						set = append(set, set[0])
					}
					tomb := wire.TombstoneOf(e, time.Now().UnixNano())
					must(st.Replace(k, set, []wire.Tombstone{tomb}))
					m.live[k], m.tombs[k] = map[overlay.Entry]bool{}, map[overlay.Entry]bool{e: true}
					for _, have := range set {
						m.live[k][have] = true
					}
				default:
					_, err := st.GCTombstones(time.Now().Add(time.Hour).UnixNano())
					must(err)
					m.tombs = map[keyspace.Key]map[overlay.Entry]bool{}
				}
				if op%50 == 0 {
					checkStore(t, st, m, keys, fmt.Sprintf("after op %d", op))
				}
			}
			checkStore(t, st, m, keys, "after the last op")
			must(st.Close())
			if !sh.disk {
				return
			}
			st, err = sh.open(dir)
			must(err)
			checkStore(t, st, m, keys, "after reopen")
			if rs := st.(wire.RecoverableStore).RecoveryStats(); rs.ReplayedRecords+rs.SnapshotKeys == 0 {
				t.Fatalf("reopen recovered nothing: %+v", rs)
			}
			must(st.Close())
		})
	}
}

// Tombstone times in the reference sequence come from three ranges that
// cannot meet: "old" stamps (below 1000), whatever the local clock gives a
// Remove, and "late" stamps a century ahead. Remove's stamps differ from
// store to store, so comparisons fold them onto localAt, which sorts
// between the other two like the clock itself does.
const (
	lateAt  = int64(4102444800) * int64(time.Second) // 2100-01-01
	localAt = int64(2000)
)

// keyState is what one key holds, with local-clock stamps folded.
type keyState struct {
	Entries []overlay.Entry
	Tombs   []wire.Tombstone
}

func foldLocal(tombs []wire.Tombstone) []wire.Tombstone {
	for i := range tombs {
		if tombs[i].At > 1000 && tombs[i].At < lateAt {
			tombs[i].At = localAt
		}
	}
	return tombs
}

// stateOf reads every key's state through the Store interface, failing
// the test if Tombstones, Tombstoned and ForEachTombstone disagree with
// one another or a tombstone set is not strictly sorted by digest.
func stateOf(t *testing.T, st wire.Store, when string) map[keyspace.Key]keyState {
	t.Helper()
	state := make(map[keyspace.Key]keyState)
	walked := make(map[keyspace.Key][]wire.Tombstone)
	st.ForEachTombstone(func(k keyspace.Key, tombs []wire.Tombstone) bool {
		if _, twice := walked[k]; twice || len(tombs) == 0 {
			t.Errorf("%s: ForEachTombstone(%s) visited twice or empty: %v", when, k.Short(), tombs)
		}
		walked[k] = slices.Clone(tombs)
		return true
	})
	for _, k := range orderKeys() {
		tombs := st.Tombstones(k)
		if !slices.Equal(tombs, walked[k]) {
			t.Fatalf("%s: Tombstones(%s) = %v, ForEachTombstone gave %v", when, k.Short(), tombs, walked[k])
		}
		for i := 1; i < len(tombs); i++ {
			if tombs[i-1].Hash >= tombs[i].Hash {
				t.Fatalf("%s: Tombstones(%s) not strictly sorted: %v", when, k.Short(), tombs)
			}
		}
		for _, e := range orderPool() {
			held := slices.ContainsFunc(tombs, func(t wire.Tombstone) bool { return t.Hash == overlay.EntryHash(e) })
			if st.Tombstoned(k, e) != held {
				t.Fatalf("%s: Tombstoned(%s, %v) = %v, Tombstones lists it: %v", when, k.Short(), e, !held, held)
			}
		}
		delete(walked, k)
		if entries := st.Get(k); len(entries)+len(tombs) > 0 {
			state[k] = keyState{Entries: entries, Tombs: foldLocal(tombs)}
		}
	}
	if len(walked) > 0 {
		t.Fatalf("%s: ForEachTombstone visited keys nobody wrote: %v", when, walked)
	}
	return state
}

// driveReference applies one seeded sequence of every mutator to st — the
// same sequence whatever st answers — and returns the tombstones it must
// leave behind: per key and entry digest the latest At given (localAt
// where a Remove's stamp is the latest), less what a GC round collected.
func driveReference(t *testing.T, st wire.Store) map[keyspace.Key]map[uint64]int64 {
	t.Helper()
	keys, pool := orderKeys(), orderPool()
	rng := rand.New(rand.NewSource(19))
	want := make(map[keyspace.Key]map[uint64]int64)
	entomb := func(k keyspace.Key, tombs []wire.Tombstone) {
		if want[k] == nil {
			want[k] = make(map[uint64]int64)
		}
		for _, tomb := range tombs {
			if at, ok := want[k][tomb.Hash]; !ok || tomb.At > at {
				want[k][tomb.Hash] = tomb.At
			}
		}
	}
	// tombs draws n tombstones, the first entry twice: re-entombed at an
	// older or a newer time, in no particular order.
	tombs := func(n int) []wire.Tombstone {
		out := make([]wire.Tombstone, 0, n+1)
		for i := 0; i < n; i++ {
			at := 100 + rng.Int63n(800) // the repeat below stays inside the range
			if rng.Intn(2) == 0 {
				at += lateAt
			}
			out = append(out, wire.TombstoneOf(pool[rng.Intn(len(pool))], at))
		}
		return append(out, wire.Tombstone{Hash: out[0].Hash, At: out[0].At + rng.Int63n(100) - 50})
	}
	for op := 0; op < 1200; op++ {
		k, e := keys[rng.Intn(len(keys))], pool[rng.Intn(len(pool))]
		var err error
		switch r := rng.Intn(20); {
		case r < 8:
			_, err = st.Put(k, e) // a duplicate or a suppressed put, often
		case r < 11:
			_, err = st.Remove(k, e)
			entomb(k, []wire.Tombstone{wire.TombstoneOf(e, localAt)})
		case r < 15:
			ts := tombs(1 + rng.Intn(3))
			_, err = st.Entomb(k, ts)
			entomb(k, ts)
		case r < 18:
			set := make([]overlay.Entry, 0, 8)
			for _, i := range rng.Perm(len(pool))[:rng.Intn(7)] {
				set = append(set, pool[i])
			}
			if len(set) > 0 {
				set = append(set, set[0])
			}
			var ts []wire.Tombstone
			if rng.Intn(4) > 0 {
				ts = tombs(1 + rng.Intn(3))
			}
			err = st.Replace(k, set, ts)
			delete(want, k)
			entomb(k, ts)
		default:
			before := int64(500) // half the old stamps
			if r == 19 {
				before = lateAt // every old and every local one
			}
			_, err = st.GCTombstones(before)
			for _, m := range want {
				for e, at := range m {
					if at < before {
						delete(m, e)
					}
				}
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	return want
}

// TestStoreOrderMatchesReference holds every Store shape to the plain
// MemStore: after the same sequence of all five mutators — duplicate
// puts, re-entombs at older and newer times, ships in arbitrary order
// with repeats, partial and full GC rounds — each must read exactly as
// the reference does through Get, Tombstones, Tombstoned and
// ForEachTombstone, and the reference's tombstones must be the latest
// ones given. The durable shapes must do so again after a reopen, and
// offline through durable.Dump.
func TestStoreOrderMatchesReference(t *testing.T) {
	ref := wire.NewMemStore()
	want := driveReference(t, ref)
	refState := stateOf(t, ref, "reference")
	kept := 0
	for _, k := range orderKeys() {
		got := make(map[uint64]int64)
		for _, tomb := range refState[k].Tombs {
			got[tomb.Hash] = tomb.At
		}
		if len(got) != len(want[k]) {
			t.Fatalf("reference key %s holds tombstones %v, want %v", k.Short(), got, want[k])
		}
		for e, at := range want[k] {
			if got[e] != at {
				t.Fatalf("reference key %s: tombstone %v at %d, want the latest given, %d", k.Short(), e, got[e], at)
			}
		}
		kept += len(got)
	}
	if kept == 0 {
		t.Fatal("the sequence left no tombstone behind: it proves nothing")
	}
	for _, sh := range storeShapes() {
		t.Run(sh.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := sh.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			driveReference(t, st)
			if got := stateOf(t, st, "after the last op"); !reflect.DeepEqual(got, refState) {
				t.Fatalf("after the last op:\n got %v\nwant %v", got, refState)
			}
			if st.Len() != ref.Len() {
				t.Fatalf("Len() = %d, reference %d", st.Len(), ref.Len())
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if !sh.disk {
				return
			}
			dumped := make(map[keyspace.Key]keyState)
			for _, d := range sh.dirs(dir) {
				keys, err := durable.Dump(d)
				if err != nil {
					t.Fatal(err)
				}
				for _, dk := range keys {
					dumped[dk.Key] = keyState{Entries: dk.Entries, Tombs: foldLocal(dk.Tombstones)}
				}
			}
			if !reflect.DeepEqual(dumped, refState) {
				t.Fatalf("durable.Dump:\n got %v\nwant %v", dumped, refState)
			}
			if st, err = sh.open(dir); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if got := stateOf(t, st, "after reopen"); !reflect.DeepEqual(got, refState) {
				t.Fatalf("after reopen:\n got %v\nwant %v", got, refState)
			}
		})
	}
}

// TestLegacyDataDirOpensSorted opens a data directory written before
// entry sets were kept in order (testdata/legacy-datadir: a snapshot and
// a WAL tail, both holding sets in arrival order; the golden file is what
// that commit's store returned and digested for each key). It must
// recover the same sets, now sorted, each stored with the digest of the
// set as written, so a replica that still ships a set in arrival order
// does not look divergent to its peers.
func TestLegacyDataDirOpensSorted(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.db", "wal.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy-datadir", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var golden []struct {
		Key     string          `json:"key"`
		Entries []overlay.Entry `json:"entries"`
		Digest  uint64          `json:"digest"`
	}
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-datadir.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != len(golden) {
		t.Fatalf("recovered %d keys, want %d", st.Len(), len(golden))
	}
	for _, g := range golden {
		key, err := keyspace.ParseKey(g.Key)
		if err != nil {
			t.Fatal(err)
		}
		if slices.IsSortedFunc(g.Entries, wire.CompareEntries) {
			t.Fatalf("fixture key %s is sorted already: it proves nothing", key.Short())
		}
		want := slices.Clone(g.Entries)
		slices.SortFunc(want, wire.CompareEntries)
		got := st.Get(key)
		if !slices.Equal(got, want) {
			t.Errorf("key %s:\n got %v\nwant %v", key.Short(), got, want)
		}
		// The digest the store kept through replay is the set's, and a
		// peer still holding the set in arrival order, which ships it
		// that way, digests it alike. (g.Digest is what the writing
		// commit's order-dependent FNV digest read; the repair digest is
		// a sum of entry hashes since DESIGN.md §37.)
		if d, w := st.Digest(key), overlay.Digest(g.Entries); d != w {
			t.Errorf("key %s: stored digest %d, digest of the set as written %d", key.Short(), d, w)
		}
		tombs := st.Tombstones(key)
		if d, w := wire.StateDigest(st.Digest(key), tombs), wire.StateDigest(overlay.Digest(got), tombs); d != w {
			t.Errorf("key %s: repair digest %d, want %d", key.Short(), d, w)
		}
	}
}
