package wire

import (
	"fmt"
	"sync"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// shardedKeys returns n distinct keys guaranteed to spread over several
// stripes (key[0] drives stripe selection and NewKey hashes, so a
// modest n covers most of the 16 stripes).
func shardedKeys(n int) []keyspace.Key {
	keys := make([]keyspace.Key, n)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("shard-key-%d", i))
	}
	return keys
}

func TestShardedStoreBasicOps(t *testing.T) {
	st := NewShardedMemStore(0)
	if st.Stripes() != DefaultStoreStripes {
		t.Fatalf("default stripes = %d, want %d", st.Stripes(), DefaultStoreStripes)
	}
	keys := shardedKeys(64)
	for i, k := range keys {
		if ok, err := st.Put(k, overlay.Entry{Kind: "k", Value: fmt.Sprint(i)}); err != nil || !ok {
			t.Fatalf("put %d: ok=%v err=%v", i, ok, err)
		}
	}
	if st.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(keys))
	}
	for i, k := range keys {
		got := st.Get(k)
		if len(got) != 1 || got[0].Value != fmt.Sprint(i) {
			t.Fatalf("get %d: %+v", i, got)
		}
	}
	seen := 0
	st.ForEach(func(_ keyspace.Key, entries []overlay.Entry) bool {
		seen += len(entries)
		return true
	})
	if seen != len(keys) {
		t.Fatalf("ForEach visited %d entries, want %d", seen, len(keys))
	}
	// Early exit must stop the iteration across stripe boundaries too.
	visited := 0
	st.ForEach(func(keyspace.Key, []overlay.Entry) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("early-exit ForEach visited %d keys, want 3", visited)
	}
	// Remove leaves a tombstone that suppresses the re-put.
	if ok, err := st.Remove(keys[0], overlay.Entry{Kind: "k", Value: "0"}); err != nil || !ok {
		t.Fatalf("remove: ok=%v err=%v", ok, err)
	}
	if ok, _ := st.Put(keys[0], overlay.Entry{Kind: "k", Value: "0"}); ok {
		t.Fatal("tombstoned entry re-added")
	}
	if !st.Tombstoned(keys[0], overlay.Entry{Kind: "k", Value: "0"}) {
		t.Fatal("Tombstoned = false after remove")
	}
	tombKeys := 0
	st.ForEachTombstone(func(keyspace.Key, []Tombstone) bool {
		tombKeys++
		return true
	})
	if tombKeys != 1 {
		t.Fatalf("ForEachTombstone visited %d keys, want 1", tombKeys)
	}
	if collected, err := st.GCTombstones(int64(1) << 62); err != nil || collected != 1 {
		t.Fatalf("GCTombstones = %d, %v; want 1, nil", collected, err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestShardedStoreUpdateAtomicity drives the per-key critical section
// from many goroutines: Update's read-modify-write of one key must
// never lose an increment, which a bare MemStore behind no lock would.
func TestShardedStoreUpdateAtomicity(t *testing.T) {
	st := NewShardedMemStore(4)
	keys := shardedKeys(8)
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := keys[(g+r)%len(keys)]
				_ = st.Update(k, func(s Store) error {
					n := len(s.Get(k))
					_, err := s.Put(k, overlay.Entry{Kind: "c", Value: fmt.Sprintf("%s-%d", k, n)})
					return err
				})
				_ = st.View(k, func(s Store) error {
					s.Get(k)
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	total := 0
	st.ForEach(func(_ keyspace.Key, entries []overlay.Entry) bool {
		total += len(entries)
		return true
	})
	if total != 8*rounds {
		t.Fatalf("lost updates: %d entries, want %d", total, 8*rounds)
	}
}

// TestAsConcurrentStoreAdaptsSuppliedStore pins the asConcurrentStore
// adaptation rules: nil → sharded default, ConcurrentStore → as-is,
// anything else → the one-stripe ShardedStore.
func TestAsConcurrentStoreAdaptsSuppliedStore(t *testing.T) {
	if _, ok := asConcurrentStore(nil).(*ShardedStore); !ok {
		t.Fatal("nil store did not become a ShardedStore")
	}
	sh := NewShardedMemStore(2)
	if asConcurrentStore(sh) != ConcurrentStore(sh) {
		t.Fatal("ConcurrentStore was re-wrapped")
	}
	mem := NewMemStore()
	ls, ok := asConcurrentStore(mem).(*ShardedStore)
	if !ok || ls.Stripes() != 1 {
		t.Fatalf("plain store did not become a one-stripe ShardedStore: %T", ls)
	}
	k := keyspace.NewKey("wrapped")
	if ok, err := ls.Put(k, overlay.Entry{Kind: "a", Value: "b"}); err != nil || !ok {
		t.Fatalf("put through wrapper: ok=%v err=%v", ok, err)
	}
	if got := mem.Get(k); len(got) != 1 {
		t.Fatalf("wrapped store missed the write: %+v", got)
	}
	if err := ls.Update(k, func(s Store) error {
		if len(s.Get(k)) != 1 {
			t.Fatal("Update section sees stale state")
		}
		return nil
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
}
