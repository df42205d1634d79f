package wire_test

import (
	"fmt"
	"runtime"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// TestTombstoneHeapBytes is the memory row of a tombstone: a MemStore
// holding 20,000 of them under 2,000 keys — removals of entries it never
// held, each value a fresh 60-odd-byte string as a decoded request
// carries — may take at most 48 heap bytes per tombstone, the per-key
// map included. A tombstone is the removed entry's digest and its At
// (DESIGN.md §46): 16 bytes in its key's slice. One that kept the entry
// whole held its strings too, over 100 bytes.
func TestTombstoneHeapBytes(t *testing.T) {
	const keys, perKey, maxPerTomb = 2000, 10, 48
	ks := make([]keyspace.Key, keys)
	for i := range ks {
		ks[i] = keyspace.NewKey(fmt.Sprint("heap-", i))
	}
	before := heapAlloc()
	st := wire.NewMemStore()
	for j := 0; j < perKey; j++ {
		for i, k := range ks {
			e := overlay.Entry{Kind: "index", Value: fmt.Sprintf("/article[author/last=Writer%05d][title=Volume %03d][year=1999]", i, j)}
			if _, err := st.Remove(k, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := heapAlloc()
	n := 0
	st.ForEachTombstone(func(_ keyspace.Key, tombs []wire.Tombstone) bool {
		n += len(tombs)
		return true
	})
	runtime.KeepAlive(st)
	if n != keys*perKey {
		t.Fatalf("the store holds %d tombstones, want %d", n, keys*perKey)
	}
	per := float64(after-before) / float64(n)
	t.Logf("%d tombstones under %d keys: %.1f heap bytes each", n, keys, per)
	if per > maxPerTomb {
		t.Fatalf("a tombstone takes %.1f heap bytes, want at most %d", per, maxPerTomb)
	}
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
