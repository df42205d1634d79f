// Package dht_test is the Chord conformance suite: the ring properties
// the paper's indexing layer relies on — routing to a key's
// successor in O(log N) hops, storage round trips, key hand-off on join
// and leave, replica survival and convergence after churn — checked on
// the live ring of internal/wire, driven by hand through wire.MemRing.
package dht_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

func mustRing(t *testing.T, size, replication int, seed int64) *wire.MemRing {
	t.Helper()
	r, err := wire.StartMemRing(size, replication, seed)
	if err != nil {
		t.Fatalf("StartMemRing(%d): %v", size, err)
	}
	t.Cleanup(r.Close)
	return r
}

// oracleOwner is the member a key belongs to: the first one, in ring
// order, at or past the key, wrapping.
func oracleOwner(r *wire.MemRing, key keyspace.Key) string {
	ring := r.Addrs()
	for _, addr := range ring {
		if keyspace.NewKey(addr).Cmp(key) >= 0 {
			return addr
		}
	}
	return ring[0]
}

// findOwnerFrom routes a lookup for key that enters the ring at start:
// for the duration of the call start is the only tracked member, so the
// cluster hands the lookup to it and it routes over its own fingers.
func findOwnerFrom(r *wire.MemRing, start string, key keyspace.Key) (overlay.Route, error) {
	members := r.Addrs()
	for _, addr := range members {
		if addr != start {
			r.Untrack(addr)
		}
	}
	defer func() {
		for _, addr := range members {
			r.Track(addr)
		}
	}()
	return r.FindOwner(key)
}

// verifyRing settles the ring and checks, over the wire, that every
// member's successor and predecessor are its ring neighbours.
func verifyRing(t *testing.T, r *wire.MemRing) {
	t.Helper()
	if err := r.Settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if err := r.WaitConverged(0); err != nil {
		t.Fatalf("ring invariant: %v", err)
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	r := mustRing(t, 2, 0, 1)
	if err := r.Join("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Join("a"); err == nil {
		t.Fatal("duplicate join succeeded")
	}
	if err := r.Join("mem-0001"); err == nil {
		t.Fatal("join at a booted member's address succeeded")
	}
	if r.Size() != 3 {
		t.Fatalf("size = %d, want 3", r.Size())
	}
	verifyRing(t, r)
}

func TestLookupEmptyNetwork(t *testing.T) {
	r := mustRing(t, 0, 0, 1)
	if _, err := r.FindOwner(keyspace.NewKey("x")); err == nil {
		t.Fatal("lookup on an empty ring succeeded")
	}
	if err := r.Join(""); err == nil {
		t.Fatal("join with no member to join through succeeded")
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := mustRing(t, 1, 0, 1)
	for _, s := range []string{"a", "b", "c"} {
		route, err := r.FindOwner(keyspace.NewKey(s))
		if err != nil {
			t.Fatal(err)
		}
		if route.Node != "mem-0001" {
			t.Fatalf("key %q owned by %s, want the only node", s, route.Node)
		}
		if route.Hops != 0 {
			t.Fatalf("single-node lookup took %d hops", route.Hops)
		}
	}
}

func TestLookupMatchesOracleFromEveryStart(t *testing.T) {
	r := mustRing(t, 32, 0, 1)
	starts := r.Addrs()
	for i := 0; i < 50; i++ {
		k := keyspace.NewKey(fmt.Sprintf("key-%d", i))
		oracle := oracleOwner(r, k)
		for _, start := range starts {
			route, err := findOwnerFrom(r, start, k)
			if err != nil {
				t.Fatal(err)
			}
			if route.Node != oracle {
				t.Fatalf("key %s from %s: routed to %s, oracle says %s",
					k.Short(), start, route.Node, oracle)
			}
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r := mustRing(t, 128, 0, 1)
	starts := r.Addrs()
	hops, maxHops := 0, 0
	const lookups = 500
	for i := 0; i < lookups; i++ {
		route, err := findOwnerFrom(r, starts[i%len(starts)], keyspace.NewKey(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		hops += route.Hops
		maxHops = max(maxHops, route.Hops)
	}
	mean := float64(hops) / lookups
	bound := 2 * math.Log2(128)
	if mean > bound {
		t.Fatalf("mean hops %.2f exceeds 2*log2(N)=%.2f", mean, bound)
	}
	if maxHops > 3*int(math.Log2(128))+3 {
		t.Fatalf("max hops %d too large for 128 nodes", maxHops)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	r := mustRing(t, 16, 0, 1)
	key := keyspace.NewKey("/article/author/last/Smith")
	want := overlay.Entry{Kind: "index", Value: "/article/author[first/John][last/Smith]"}
	if _, err := r.Put(key, want); err != nil {
		t.Fatal(err)
	}
	entries, _, err := r.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0] != want {
		t.Fatalf("Get = %v, want [%v]", entries, want)
	}
}

func TestRemoveEntry(t *testing.T) {
	r := mustRing(t, 8, 0, 1)
	key := keyspace.NewKey("k")
	e := overlay.Entry{Kind: "index", Value: "v"}
	if _, err := r.Put(key, e); err != nil {
		t.Fatal(err)
	}
	removed, err := r.Remove(key, e)
	if err != nil || !removed {
		t.Fatalf("Remove = (%v, %v), want (true, nil)", removed, err)
	}
	entries, _, err := r.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entries after remove: %v", entries)
	}
	removed, err = r.Remove(key, e)
	if err != nil || removed {
		t.Fatalf("second Remove = (%v, %v), want (false, nil)", removed, err)
	}
}

// putDocs stores one data entry under each of count keys and returns them.
func putDocs(t *testing.T, r *wire.MemRing, count int) []keyspace.Key {
	t.Helper()
	keys := make([]keyspace.Key, count)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("doc-%d", i))
		if _, err := r.Put(keys[i], overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// readsBack fails the test unless every key holds exactly its one entry.
func readsBack(t *testing.T, r *wire.MemRing, keys []keyspace.Key, after string) {
	t.Helper()
	for i, k := range keys {
		entries, _, err := r.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Value != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after %s: %v", i, after, entries)
		}
	}
}

func TestGracefulLeaveKeepsData(t *testing.T) {
	r := mustRing(t, 16, 0, 1)
	keys := putDocs(t, r, 40)
	// Remove half the nodes gracefully.
	for i := 1; i <= 8; i++ {
		if err := r.Leave(fmt.Sprintf("mem-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	verifyRing(t, r)
	readsBack(t, r, keys, "graceful leaves")
}

func TestJoinMigratesKeys(t *testing.T) {
	r := mustRing(t, 4, 0, 1)
	keys := putDocs(t, r, 60)
	for i := 0; i < 12; i++ {
		if err := r.Join(fmt.Sprintf("late-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	verifyRing(t, r)
	// At R = 0 a read goes to the key's current owner and nowhere else,
	// so every key a joiner took over must have moved to it.
	readsBack(t, r, keys, "joins")
	moved := 0
	for i := 0; i < 12; i++ {
		stats, err := r.StatsOf(fmt.Sprintf("late-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		moved += stats.Keys
	}
	if moved == 0 {
		t.Fatal("no key moved to a joiner")
	}
}

func TestReplicationSurvivesCrash(t *testing.T) {
	r := mustRing(t, 12, 2, 7)
	key := keyspace.NewKey("precious")
	if _, err := r.Put(key, overlay.Entry{Kind: "data", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(oracleOwner(r, key)); err != nil {
		t.Fatal(err)
	}
	entries, _, err := r.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entry lost despite replication factor 2")
	}
}

func TestStabilizeAfterChurn(t *testing.T) {
	r := mustRing(t, 30, 0, 1)
	for i := 0; i < 10; i++ {
		if err := r.Crash(fmt.Sprintf("mem-%04d", 1+i*2)); err != nil {
			t.Fatal(err)
		}
	}
	verifyRing(t, r)
	if r.Size() != 20 {
		t.Fatalf("size = %d, want 20", r.Size())
	}
}

func TestKeyLoadBalance(t *testing.T) {
	r := mustRing(t, 64, 0, 1)
	for i := 0; i < 6400; i++ {
		if _, err := r.Put(keyspace.NewKey(fmt.Sprintf("k%d", i)), overlay.Entry{Kind: "d", Value: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	total, maxKeys := 0, 0
	for _, addr := range r.Addrs() {
		stats, err := r.StatsOf(addr)
		if err != nil {
			t.Fatal(err)
		}
		total += stats.Keys
		maxKeys = max(maxKeys, stats.Keys)
	}
	if total != 6400 {
		t.Fatalf("total keys = %d, want 6400", total)
	}
	mean := float64(total) / float64(r.Size())
	if mean != 100 {
		t.Fatalf("mean keys = %.1f, want 100", mean)
	}
	// Consistent hashing spreads keys; the max should be within a small
	// constant factor of the mean for 64 nodes / 6400 keys.
	if float64(maxKeys) > 8*mean {
		t.Fatalf("max load %d implausibly skewed vs mean %.1f", maxKeys, mean)
	}
}

func TestNodeStoredBytes(t *testing.T) {
	r := mustRing(t, 1, 0, 1)
	key := keyspace.NewKey("k")
	for _, e := range []overlay.Entry{{Kind: "index", Value: "abcd"}, {Kind: "cache", Value: "ef"}} {
		if _, err := r.Put(key, e); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := r.StatsOf("mem-0001")
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.BytesByKind["index"]; got != int64(4+keyspace.Size) {
		t.Fatalf("index bytes = %d", got)
	}
	if got := stats.BytesByKind["cache"]; got != int64(2+keyspace.Size) {
		t.Fatalf("cache bytes = %d", got)
	}
	if got := stats.EntriesByKind["index"] + stats.EntriesByKind["cache"]; got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
	if got := stats.EntriesByKind["cache"]; got != 1 {
		t.Fatalf("cache entries = %d, want 1", got)
	}
}

// Property: routed lookup agrees with the oracle owner for random keys and
// random start nodes, on a fixed medium-size ring.
func TestLookupOracleProperty(t *testing.T) {
	r := mustRing(t, 48, 0, 1)
	starts := r.Addrs()
	f := func(seed uint32, startIdx uint8) bool {
		k := keyspace.NewKey(fmt.Sprintf("prop-%d", seed))
		route, err := findOwnerFrom(r, starts[int(startIdx)%len(starts)], k)
		return err == nil && route.Node == oracleOwner(r, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAtUnknown(t *testing.T) {
	r := mustRing(t, 2, 0, 1)
	if _, err := r.StatsOf("nope"); !errors.Is(err, wire.ErrUnreachable) {
		t.Fatalf("StatsOf err = %v, want ErrUnreachable", err)
	}
	if err := r.Leave("nope"); err == nil {
		t.Fatal("Leave of an unknown address succeeded")
	}
	if err := r.Crash("nope"); err == nil {
		t.Fatal("Crash of an unknown address succeeded")
	}
	if r.Size() != 2 {
		t.Fatalf("size = %d, want 2", r.Size())
	}
}

func TestOverlayPutGetRemove(t *testing.T) {
	r := mustRing(t, 16, 0, 1)
	var ov overlay.Network = r
	key := keyspace.NewKey("doc")
	e := overlay.Entry{Kind: "data", Value: "v1"}
	route, err := ov.Put(key, e)
	if err != nil {
		t.Fatal(err)
	}
	if oracle := oracleOwner(r, key); route.Node != oracle {
		t.Fatalf("put landed on %s, oracle %s", route.Node, oracle)
	}
	entries, route2, err := ov.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0] != e || route2.Node != route.Node {
		t.Fatalf("get = %v @ %s", entries, route2.Node)
	}
	removed, err := ov.Remove(key, e)
	if err != nil || !removed {
		t.Fatalf("remove = %v, %v", removed, err)
	}
	entries, _, err = ov.Get(key)
	if err != nil || len(entries) != 0 {
		t.Fatalf("after remove: %v, %v", entries, err)
	}
}

func TestOverlayStatsOf(t *testing.T) {
	r := mustRing(t, 4, 0, 1)
	var ov overlay.Network = r
	key := keyspace.NewKey("k")
	if _, err := ov.Put(key, overlay.Entry{Kind: "index", Value: "abcd"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Put(key, overlay.Entry{Kind: "data", Value: "ef"}); err != nil {
		t.Fatal(err)
	}
	stats, err := ov.StatsOf(oracleOwner(r, key))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keys != 1 || stats.EntriesByKind["index"] != 1 || stats.EntriesByKind["data"] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Per-kind bytes include the per-key overhead once per kind.
	if stats.BytesByKind["index"] != int64(4+keyspace.Size) {
		t.Fatalf("index bytes = %d", stats.BytesByKind["index"])
	}
	if stats.BytesByKind["data"] != int64(2+keyspace.Size) {
		t.Fatalf("data bytes = %d", stats.BytesByKind["data"])
	}
	if _, err := ov.StatsOf("nope"); !errors.Is(err, wire.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverlayEmptyNetwork(t *testing.T) {
	var ov overlay.Network = mustRing(t, 0, 0, 1)
	if _, err := ov.Put(keyspace.NewKey("x"), overlay.Entry{Kind: "d", Value: "v"}); err == nil {
		t.Fatal("put on an empty ring succeeded")
	}
	if _, _, err := ov.Get(keyspace.NewKey("x")); err == nil {
		t.Fatal("get on an empty ring succeeded")
	}
	if _, err := ov.Remove(keyspace.NewKey("x"), overlay.Entry{}); err == nil {
		t.Fatal("remove on an empty ring succeeded")
	}
	if ov.Size() != 0 || len(ov.Addrs()) != 0 {
		t.Fatalf("empty ring: size %d, addrs %v", ov.Size(), ov.Addrs())
	}
}

func TestOverlayDeterministicStarts(t *testing.T) {
	a := mustRing(t, 16, 0, 7)
	b := mustRing(t, 16, 0, 7)
	// Same seed: the same sequence of entry points, hence identical routes.
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("k%d", i))
		ra, err := a.FindOwner(key)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.FindOwner(key)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("routes diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestNodeKeyCount(t *testing.T) {
	r := mustRing(t, 1, 0, 1)
	stats, err := r.StatsOf("mem-0001")
	if err != nil || stats.Keys != 0 {
		t.Fatalf("fresh node: %+v, %v", stats, err)
	}
	for _, s := range []string{"a", "b"} {
		if _, err := r.Put(keyspace.NewKey(s), overlay.Entry{Kind: "d", Value: s}); err != nil {
			t.Fatal(err)
		}
	}
	if stats, err = r.StatsOf("mem-0001"); err != nil || stats.Keys != 2 {
		t.Fatalf("Keys = %d, %v; want 2", stats.Keys, err)
	}
}

// TestConcurrentAccess exercises the documented concurrency contract:
// parallel puts, gets, lookups and membership changes must be safe (run
// under -race to validate).
func TestConcurrentAccess(t *testing.T) {
	r := mustRing(t, 16, 0, 1)
	var wg sync.WaitGroup
	const workers = 8
	const opsPerWorker = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := keyspace.NewKey(fmt.Sprintf("w%d-k%d", w, i%37))
				var err error
				switch i % 4 {
				case 0:
					_, err = r.Put(key, overlay.Entry{Kind: "d", Value: "v"})
				case 1:
					_, _, err = r.Get(key)
				case 2:
					_, err = r.FindOwner(key)
				default:
					_, err = r.StatsOf(fmt.Sprintf("mem-%04d", 1+i%16))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent membership churn: add and remove nodes while traffic
	// flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			addr := fmt.Sprintf("churny-%d", i)
			if err := r.Join(addr); err != nil {
				t.Error(err)
				return
			}
			if err := r.Leave(addr); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	verifyRing(t, r)
}
