package wire_test

// External test package: the order contract binds the durable stores
// too, and they import wire.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

// TestStoreKeepsEntrySetsSorted drives every Store shape through a random
// interleaving of all its mutators — Replace fed shuffled sets with a
// repeated entry — and, for the durable shapes, through a close and
// reopen that recovers by WAL replay alone or by snapshot plus WAL tail.
func TestStoreKeepsEntrySetsSorted(t *testing.T) {
	type shape struct {
		name string
		open func(dir string) (wire.Store, error)
		disk bool // recovers from dir: reopened and checked again
	}
	durableShape := func(name string, stripes, snapshotEvery int) shape {
		return shape{name: name, disk: true, open: func(dir string) (wire.Store, error) {
			opts := durable.Options{SnapshotEvery: snapshotEvery}
			if stripes == 0 {
				return durable.Open(dir, opts)
			}
			return durable.OpenSharded(dir, stripes, opts)
		}}
	}
	shapes := []shape{
		{name: "MemStore", open: func(string) (wire.Store, error) { return wire.NewMemStore(), nil }},
		{name: "ShardedStore", open: func(string) (wire.Store, error) { return wire.NewShardedMemStore(4), nil }},
		durableShape("durable.Store/wal-replay", 0, -1),
		durableShape("durable.Store/snapshot", 0, 16),
		durableShape("durable.OpenSharded/wal-replay", 4, -1),
		durableShape("durable.OpenSharded/snapshot", 4, 8),
	}
	keys := make([]keyspace.Key, 6)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("key-%d", i))
	}
	var pool []overlay.Entry
	for _, kind := range []string{"index", "data"} {
		for v := 0; v < 10; v++ {
			pool = append(pool, overlay.Entry{Kind: kind, Value: fmt.Sprintf("v%02d", 9-v)})
		}
	}
	for _, sh := range shapes {
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
					_, err := st.Entomb(k, []wire.Tombstone{{Entry: e, At: now}, {Entry: other, At: now}})
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
					tomb := wire.Tombstone{Entry: e, At: time.Now().UnixNano()}
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

// TestLegacyDataDirOpensSorted opens a data directory written before
// entry sets were kept in order (testdata/legacy-datadir: a snapshot and
// a WAL tail, both holding sets in arrival order; the golden file is what
// that commit's store returned and digested for each key). It must
// recover the same sets, now sorted, and digest them to the same value,
// so an upgraded replica does not look divergent to its peers.
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
		tombs := st.Tombstones(key)
		if d := wire.StateDigest(got, tombs); d != g.Digest {
			t.Errorf("key %s: digest %d, the writing commit computed %d", key.Short(), d, g.Digest)
		}
		// A peer still holding the set in arrival order ships it that
		// way; its digest must agree too.
		if d := wire.StateDigest(g.Entries, tombs); d != g.Digest {
			t.Errorf("key %s: digest of the unsorted set %d, want %d", key.Short(), d, g.Digest)
		}
	}
}
