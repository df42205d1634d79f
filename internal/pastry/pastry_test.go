package pastry

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

func mustNetwork(t *testing.T, size int) (*Network, []*Node) {
	t.Helper()
	n := NewNetwork()
	nodes, err := n.Populate(size)
	if err != nil {
		t.Fatal(err)
	}
	return n, nodes
}

func TestDigitAndSharedPrefix(t *testing.T) {
	var a, b keyspace.Key
	a[0] = 0xAB
	if digit(a, 0) != 0xA || digit(a, 1) != 0xB {
		t.Fatalf("digits of 0xAB: %x %x", digit(a, 0), digit(a, 1))
	}
	b[0] = 0xAC
	if got := sharedPrefix(a, b); got != 1 {
		t.Fatalf("sharedPrefix(AB, AC) = %d, want 1", got)
	}
	b[0] = 0xAB
	b[1] = 0xFF
	if got := sharedPrefix(a, b); got != 2 {
		t.Fatalf("sharedPrefix = %d, want 2", got)
	}
	if got := sharedPrefix(a, a); got != digits {
		t.Fatalf("sharedPrefix(a,a) = %d, want %d", got, digits)
	}
}

func TestOwnerIsNumericallyClosest(t *testing.T) {
	n, _ := mustNetwork(t, 32)
	for i := 0; i < 100; i++ {
		key := keyspace.NewKey(fmt.Sprintf("k%d", i))
		owner, err := n.OwnerOf(key)
		if err != nil {
			t.Fatal(err)
		}
		ownerDist := absDistance(owner.ID, key)
		for _, other := range n.sorted {
			if absDistance(other.ID, key).Cmp(ownerDist) < 0 {
				t.Fatalf("key %s: %s closer than owner %s", key.Short(), other.Addr, owner.Addr)
			}
		}
	}
}

func TestLookupMatchesOracleFromEveryStart(t *testing.T) {
	n, nodes := mustNetwork(t, 48)
	for i := 0; i < 40; i++ {
		key := keyspace.NewKey(fmt.Sprintf("probe%d", i))
		oracle, err := n.OwnerOf(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range nodes {
			res, err := n.Lookup(start, key)
			if err != nil {
				t.Fatal(err)
			}
			if res.Owner != oracle {
				t.Fatalf("key %s from %s routed to %s, oracle %s",
					key.Short(), start.Addr, res.Owner.Addr, oracle.Addr)
			}
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	n, nodes := mustNetwork(t, 256)
	for i := 0; i < 1000; i++ {
		if _, err := n.Lookup(nodes[i%len(nodes)], keyspace.NewKey(fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m := n.Metrics()
	mean := float64(m.Hops) / float64(m.Lookups)
	// Pastry resolves ~log16(N) digits per hop; allow generous slack.
	bound := 3 * math.Log2(256) / 4
	if mean > bound {
		t.Fatalf("mean hops %.2f > %.2f", mean, bound)
	}
	if m.MaxHops > 12 {
		t.Fatalf("max hops %d too large", m.MaxHops)
	}
}

func TestLookupEmpty(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Lookup(nil, keyspace.NewKey("x")); !errors.Is(err, ErrEmptyNetwork) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.OwnerOf(keyspace.NewKey("x")); !errors.Is(err, ErrEmptyNetwork) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddRemoveErrors(t *testing.T) {
	n, _ := mustNetwork(t, 2)
	if _, err := n.AddNode("pastry-0000"); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v", err)
	}
	if err := n.RemoveNode("nope"); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
	if err := n.FailNode("nope"); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverlayPutGetRemove(t *testing.T) {
	n, _ := mustNetwork(t, 16)
	ov := AsOverlay(n, 1)
	key := keyspace.NewKey("doc")
	e := overlay.Entry{Kind: "data", Value: "v1"}
	route, err := ov.Put(key, e)
	if err != nil {
		t.Fatal(err)
	}
	if route.Node == "" {
		t.Fatal("no owner reported")
	}
	entries, route2, err := ov.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0] != e {
		t.Fatalf("entries = %v", entries)
	}
	if route2.Node != route.Node {
		t.Fatalf("get landed on %s, put on %s", route2.Node, route.Node)
	}
	removed, err := ov.Remove(key, e)
	if err != nil || !removed {
		t.Fatalf("remove = %v, %v", removed, err)
	}
	entries, _, err = ov.Get(key)
	if err != nil || len(entries) != 0 {
		t.Fatalf("after remove: %v, %v", entries, err)
	}
	removed, err = ov.Remove(key, e)
	if err != nil || removed {
		t.Fatalf("double remove = %v, %v", removed, err)
	}
}

func TestOverlayPutIdempotent(t *testing.T) {
	n, _ := mustNetwork(t, 8)
	ov := AsOverlay(n, 1)
	key := keyspace.NewKey("k")
	for i := 0; i < 3; i++ {
		if _, err := ov.Put(key, overlay.Entry{Kind: "index", Value: "same"}); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, err := ov.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %v, want deduped single", entries)
	}
}

// TestReadContactsIgnoreWrites drives the same Gets over two overlays
// of one network shape and one seed, one of them with a Put and a Remove
// before every Get. Every Get must take the same route, owner and hop
// count, on both: a read's contact node must not depend on how many
// writes ran before it (docs/SUBSTRATES.md).
func TestReadContactsIgnoreWrites(t *testing.T) {
	const seed, reads = 7, 200
	quietNet, _ := mustNetwork(t, 64)
	busyNet, _ := mustNetwork(t, 64)
	quiet, busy := AsOverlay(quietNet, seed), AsOverlay(busyNet, seed)
	hopsSeen := map[int]bool{}
	for i := 0; i < reads; i++ {
		w := keyspace.NewKey(fmt.Sprintf("write-%d", i))
		e := overlay.Entry{Kind: "index", Value: "w"}
		if _, err := busy.Put(w, e); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := busy.Remove(w, e); err != nil {
				t.Fatal(err)
			}
		}
		k := keyspace.NewKey(fmt.Sprintf("read-%d", i))
		_, want, err := quiet.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := busy.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("get %d routed %+v after writes, %+v without", i, got, want)
		}
		hopsSeen[want.Hops] = true
	}
	if len(hopsSeen) < 2 {
		t.Fatalf("every get took the same hop count %v: the check cannot tell contacts apart", hopsSeen)
	}
}

func TestGracefulLeaveKeepsData(t *testing.T) {
	n, _ := mustNetwork(t, 24)
	ov := AsOverlay(n, 2)
	keys := make([]keyspace.Key, 50)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("doc%d", i))
		if _, err := ov.Put(keys[i], overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if err := n.RemoveNode(fmt.Sprintf("pastry-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		entries, _, err := ov.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("key %d lost after graceful leaves", i)
		}
	}
}

func TestJoinMigratesKeys(t *testing.T) {
	n, _ := mustNetwork(t, 6)
	ov := AsOverlay(n, 3)
	for i := 0; i < 60; i++ {
		if _, err := ov.Put(keyspace.NewKey(fmt.Sprintf("d%d", i)), overlay.Entry{Kind: "data", Value: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := n.AddNode(fmt.Sprintf("late-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		entries, _, err := ov.Get(keyspace.NewKey(fmt.Sprintf("d%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("key %d not found after joins", i)
		}
		// The entry must live exactly on the numerically closest node.
		owner, err := n.OwnerOf(keyspace.NewKey(fmt.Sprintf("d%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := owner.store[keyspace.NewKey(fmt.Sprintf("d%d", i))]; !ok {
			t.Fatalf("key %d not on its owner", i)
		}
	}
}

func TestStatsOf(t *testing.T) {
	n, _ := mustNetwork(t, 4)
	ov := AsOverlay(n, 4)
	key := keyspace.NewKey("k")
	if _, err := ov.Put(key, overlay.Entry{Kind: "index", Value: "abcd"}); err != nil {
		t.Fatal(err)
	}
	owner, err := n.OwnerOf(key)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ov.StatsOf(owner.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keys != 1 || stats.EntriesByKind["index"] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BytesByKind["index"] != int64(4+keyspace.Size) {
		t.Fatalf("bytes = %d", stats.BytesByKind["index"])
	}
	if _, err := ov.StatsOf("nope"); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
}

// Property: routed lookup agrees with the numerically-closest oracle.
func TestLookupOracleProperty(t *testing.T) {
	n, nodes := mustNetwork(t, 64)
	f := func(seed uint32, startIdx uint8) bool {
		key := keyspace.NewKey(fmt.Sprintf("p%d", seed))
		res, err := n.Lookup(nodes[int(startIdx)%len(nodes)], key)
		if err != nil {
			return false
		}
		oracle, err := n.OwnerOf(key)
		return err == nil && res.Owner == oracle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chord and Pastry disagree on placement for a noticeable
// fraction of keys (successor vs numerically-closest), demonstrating the
// substrates genuinely differ.
func TestPlacementDiffersFromSuccessorRule(t *testing.T) {
	n, _ := mustNetwork(t, 32)
	differ := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		key := keyspace.NewKey(fmt.Sprintf("q%d", i))
		closest, err := n.OwnerOf(key)
		if err != nil {
			t.Fatal(err)
		}
		// Successor rule: first node with ID >= key (wrapping).
		idx := 0
		for idx = 0; idx < len(n.sorted); idx++ {
			if n.sorted[idx].ID.Cmp(key) >= 0 {
				break
			}
		}
		succ := n.sorted[idx%len(n.sorted)]
		if succ != closest {
			differ++
		}
	}
	if differ == 0 || differ == trials {
		t.Fatalf("placement rules identical or disjoint (%d/%d) — suspicious", differ, trials)
	}
}
