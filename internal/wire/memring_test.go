package wire

import (
	"fmt"
	"slices"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// putRingKeys stores one entry under each of count keys through the ring's
// cluster and returns the keys.
func putRingKeys(t *testing.T, r *MemRing, count int) []keyspace.Key {
	t.Helper()
	keys := make([]keyspace.Key, count)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("doc-%d", i))
		if _, err := r.Put(keys[i], overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	return keys
}

// holders maps each key to the live nodes whose store holds it.
func holders(r *MemRing, keys []keyspace.Key) map[keyspace.Key][]string {
	out := make(map[keyspace.Key][]string)
	for _, rn := range r.live {
		for _, k := range keys {
			if len(rn.store.Get(k)) > 0 {
				out[k] = append(out[k], rn.Addr())
			}
		}
	}
	return out
}

// TestMemRingSettlesAfterCrashes crashes 40 % of a 100-node R = 2 ring
// on a stride of 7 over the nodes in boot order. Settle must come back
// within its bound with every pointer ideal, and every key that still
// had a live holder after the crashes must read back.
func TestMemRingSettlesAfterCrashes(t *testing.T) {
	r, err := StartMemRing(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := putRingKeys(t, r, 2000)
	boot := r.Addrs()
	slices.Sort(boot)
	for i := 0; i < 40; i++ {
		if err := r.Crash(boot[(i*7)%len(boot)]); err != nil {
			t.Fatal(err)
		}
	}
	held := holders(r, keys)
	if err := r.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := r.idealErr(); err != nil {
		t.Fatalf("settled ring not ideal: %v", err)
	}
	lost := 0
	for i, k := range keys {
		if len(held[k]) == 0 {
			continue
		}
		entries, _, err := r.Get(k)
		if err != nil || len(entries) != 1 || entries[0].Value != fmt.Sprintf("v%d", i) {
			lost++
			t.Errorf("key %d (held by %v): %v, %v", i, held[k], entries, err)
		}
	}
	if lost > 0 || len(held) < len(keys)*9/10 {
		t.Fatalf("%d of the %d keys with a live holder lost; %d of %d had one", lost, len(held), len(held), len(keys))
	}
}

// oracleOwner is the node a key belongs to on r: the first live node at
// or past the key, wrapping.
func oracleOwner(r *MemRing, key keyspace.Key) string {
	ring := r.Addrs() // ring order
	for _, addr := range ring {
		if idOf(addr).Cmp(key) >= 0 {
			return addr
		}
	}
	return ring[0]
}

// TestMemRingFindOwnerMatchesOracle: on a booted ring, a Chord-routed
// FindOwner from a random member names each key's successor, in
// O(log N) hops.
func TestMemRingFindOwnerMatchesOracle(t *testing.T) {
	r, err := StartMemRing(256, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const lookups = 1000
	hops := 0
	for i := 0; i < lookups; i++ {
		key := keyspace.NewKey(fmt.Sprintf("probe-%d", i))
		route, err := r.FindOwner(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleOwner(r, key); route.Node != want {
			t.Fatalf("key %d routed to %s, owner %s", i, route.Node, want)
		}
		hops += route.Hops
	}
	// ½·log₂256 = 4 in expectation; log₂N bounds it with room to spare.
	if mean := float64(hops) / lookups; mean > 8 {
		t.Fatalf("mean %.2f hops on 256 nodes", mean)
	}
}

// TestMemRingPutIdempotentAndMultiEntry: a key holds every distinct
// entry put under it, once each, on its owner.
func TestMemRingPutIdempotentAndMultiEntry(t *testing.T) {
	r, err := StartMemRing(8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	key := keyspace.NewKey("author")
	for _, v := range []string{"b", "a", "b", "a"} {
		route, err := r.Put(key, overlay.Entry{Kind: "index", Value: v})
		if err != nil || route.Node != oracleOwner(r, key) {
			t.Fatalf("put %s: %v at %s", v, err, route.Node)
		}
	}
	entries, _, err := r.Get(key)
	if err != nil || len(entries) != 2 {
		t.Fatalf("get: %v %v", entries, err)
	}
}

// TestMemRingJoinAndLeaveKeepData: joins pull their ranges, graceful
// leaves hand theirs on, and after Settle every key reads back from its
// owner alone. Membership calls on an address that is not live fail.
func TestMemRingJoinAndLeaveKeepData(t *testing.T) {
	r, err := StartMemRing(16, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := putRingKeys(t, r, 500)
	for i := 0; i < 4; i++ {
		if err := r.Join(""); err != nil {
			t.Fatal(err)
		}
		if err := r.Leave(fmt.Sprintf("mem-%04d", 2+3*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Settle(); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 16 {
		t.Fatalf("%d members, want 16", r.Size())
	}
	held := holders(r, keys)
	for i, k := range keys {
		if want := oracleOwner(r, k); !slices.Equal(held[k], []string{want}) {
			t.Fatalf("key %d held by %v, owner %s", i, held[k], want)
		}
	}
	if r.Leave("mem-0002") == nil || r.Crash("ghost") == nil {
		t.Fatal("membership call on a departed or unknown address succeeded")
	}
}

// TestMemRingCrashWithoutReplicationLosesData: at R = 0 a crashed
// node's keys are gone — they read as empty from the node that
// inherits its range — and every other key survives Settle.
func TestMemRingCrashWithoutReplicationLosesData(t *testing.T) {
	r, err := StartMemRing(16, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := putRingKeys(t, r, 500)
	victim := "mem-0005"
	held := holders(r, keys)
	if err := r.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := r.Settle(); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i, k := range keys {
		entries, _, err := r.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if gone := slices.Equal(held[k], []string{victim}); gone != (len(entries) == 0) {
			t.Fatalf("key %d (held by %v) reads %v", i, held[k], entries)
		}
		if len(entries) == 0 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("the crashed node held none of the keys")
	}
}
