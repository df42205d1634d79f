package wire

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// totalUnchanged sums the nodes' wire_get_unchanged_total.
func totalUnchanged(nodes []*Node) int64 {
	var sum int64
	for _, n := range nodes {
		sum += n.getUnchanged.Value()
	}
	return sum
}

// TestConditionalGetFollowsTheSet: an owner answers "unchanged" to an
// offer of its set's digest and ships the set to any other offer; the
// set gaining, swapping and losing entries changes the digest at once,
// and a key emptied since the offer reads as empty, never as unchanged.
func TestConditionalGetFollowsTheSet(t *testing.T) {
	cluster, nodes, _ := startBatchRing(t, 4, 1)
	ctx := context.Background()
	key := keyspace.NewKey("conditional")
	e := func(v string) overlay.Entry { return overlay.Entry{Kind: "index", Value: v} }
	put := func(v string) {
		t.Helper()
		if _, err := cluster.Put(key, e(v)); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(v string) {
		t.Helper()
		if removed, err := cluster.Remove(key, e(v)); err != nil || !removed {
			t.Fatalf("remove %s: %v, %v", v, removed, err)
		}
	}
	var held []overlay.Entry // what the client holds, and offers the digest of
	for _, step := range []struct {
		name   string
		change func()
		want   []string
	}{
		{"two entries", func() { put("/a"); put("/c") }, []string{"/a", "/c"}},
		{"gains one", func() { put("/b") }, []string{"/a", "/b", "/c"}},
		{"swaps one", func() { remove("/b"); put("/d") }, []string{"/a", "/c", "/d"}},
		{"loses one", func() { remove("/d") }, []string{"/a", "/c"}},
		{"empty", func() { remove("/a"); remove("/c") }, nil},
		{"back", func() { put("/e") }, []string{"/e"}},
	} {
		step.change()
		unchangedBefore := totalUnchanged(nodes)
		if held != nil {
			entries, _, unchanged, err := cluster.GetUnlessCtx(ctx, key, overlay.Digest(held))
			if err != nil || unchanged {
				t.Fatalf("%s: offer of the old set: unchanged = %v, %v", step.name, unchanged, err)
			}
			if got := values(entries); !slices.Equal(got, step.want) {
				t.Fatalf("%s: shipped %v, want %v", step.name, got, step.want)
			}
		}
		entries, _, err := cluster.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		held = entries
		if len(held) == 0 {
			continue // the empty set digests to 0, which is never offered
		}
		got, route, unchanged, err := cluster.GetUnlessCtx(ctx, key, overlay.Digest(held))
		if err != nil || !unchanged || got != nil {
			t.Fatalf("%s: offer of the current set: %v, unchanged = %v, %v", step.name, got, unchanged, err)
		}
		if owner, err := cluster.FindOwner(key); err != nil || route.Node != owner.Node {
			t.Fatalf("%s: unchanged verdict from %s, owner %s (%v)", step.name, route.Node, owner.Node, err)
		}
		if n := totalUnchanged(nodes) - unchangedBefore; n != 1 {
			t.Fatalf("%s: wire_get_unchanged_total rose by %d, want 1", step.name, n)
		}
	}
	if got := cluster.getOffers.Value(); got != 9 {
		t.Fatalf("wire_get_offers_total = %d, want 9", got)
	}
}

func values(entries []overlay.Entry) []string {
	var out []string
	for _, e := range entries {
		out = append(out, e.Value)
	}
	return out
}

// TestConditionalGetIsForwardedWithItsOffer: a client whose view is
// stale addresses the offer to a node that does not own the key; that
// node forwards the request, offer and all, and the true owner's
// verdict comes back in the one RPC the client sent.
func TestConditionalGetIsForwardedWithItsOffer(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 5, 1)
	untracked := nodes[4]
	rec := &recordingTransport{Transport: mt}
	stale := NewCluster(rec, 3, 1)
	for _, n := range nodes[:4] {
		stale.Track(n.Addr())
	}
	key := keyWhere(t, "stale-offer", func(k keyspace.Key) bool {
		route, err := full.FindOwner(k)
		return err == nil && route.Node == untracked.Addr()
	})
	for _, v := range []string{"/x", "/y"} {
		if _, err := full.Put(key, overlay.Entry{Kind: "index", Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	held, _, err := full.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	rec.take()
	entries, route, unchanged, err := stale.GetUnlessCtx(context.Background(), key, overlay.Digest(held))
	if err != nil || !unchanged || entries != nil {
		t.Fatalf("forwarded offer: %v, unchanged = %v, %v", entries, unchanged, err)
	}
	if route.Node != untracked.Addr() || route.Hops < 1 {
		t.Fatalf("verdict via %+v, want the true owner %s after ≥ 1 forward", route, untracked.Addr())
	}
	if sent := rec.take(); len(sent) != 1 {
		t.Fatalf("the offer cost %d RPCs, want 1", len(sent))
	}
	if got := untracked.getUnchanged.Value(); got != 1 {
		t.Fatalf("the true owner answered %d offers unchanged, want 1", got)
	}
}

// TestConditionalGetFailsOverUnconditionally: with the owner crashed
// after the client read its set, the offer fails and the replicas
// serve the set itself — a failover read never answers "unchanged".
func TestConditionalGetFailsOverUnconditionally(t *testing.T) {
	transport := NewMemTransport()
	cluster, nodes := startRingCfg(t, func() Transport { return transport }, 5, Config{
		StabilizeInterval: 400 * time.Millisecond,
		ReplicationFactor: 2,
	})
	key := keyspace.NewKey("offer-to-the-dead")
	for _, v := range []string{"/p", "/q"} {
		if _, err := cluster.Put(key, overlay.Entry{Kind: "index", Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	held, route, err := cluster.Get(key)
	if err != nil || len(held) != 2 {
		t.Fatalf("get = %v, %v", held, err)
	}
	for _, n := range nodes {
		if n.Addr() == route.Node {
			n.Stop()
		}
	}
	entries, froute, unchanged, err := cluster.GetUnlessCtx(context.Background(), key, overlay.Digest(held))
	if err != nil || unchanged || !slices.Equal(entries, held) {
		t.Fatalf("offer to a crashed owner: %v via %+v, unchanged = %v, %v; want %v", entries, froute, unchanged, err, held)
	}
	if froute.Node == route.Node {
		t.Fatalf("read claims the crashed owner %s", route.Node)
	}
	if m := cluster.Metrics(); m.FailoverReads < 1 {
		t.Fatalf("no failover read: %+v", m)
	}
}

// verdictTransport answers every OpGet with an unchanged verdict,
// offered or not, as a faulty peer might.
type verdictTransport struct{ Transport }

func (v verdictTransport) Call(addr string, req Message) (Message, error) {
	resp, err := v.Transport.Call(addr, req)
	if req.Op == OpGet && err == nil && resp.Err == "" {
		resp = Message{Op: OpGet, Code: CodeUnchanged, Ok: true, Addr: resp.Addr, Hops: resp.Hops}
	}
	return resp, err
}

// TestUnofferedVerdictIsRefused: an unchanged verdict to a read that
// offered nothing names no set; it must fail the read, never read as
// an empty key. In a batch the verdict is per key: one on a key the
// batch offered nothing for, or one naming a digest other than the
// key's offer, fails that key alone.
func TestUnofferedVerdictIsRefused(t *testing.T) {
	_, nodes, mt := startBatchRing(t, 3, 0)
	key := keyspace.NewKey("unoffered")
	good := NewCluster(mt, 1, 0)
	for _, n := range nodes {
		good.Track(n.Addr())
	}
	if _, err := good.Put(key, overlay.Entry{Kind: "index", Value: "/v"}); err != nil {
		t.Fatal(err)
	}
	faulty := NewCluster(verdictTransport{mt}, 1, 0)
	for _, n := range nodes {
		faulty.Track(n.Addr())
	}
	if entries, _, err := faulty.Get(key); !errors.Is(err, errUnofferedVerdict) {
		t.Fatalf("unoffered verdict read as %v, %v; want %v", entries, err, errUnofferedVerdict)
	}
	var members []string
	for _, n := range nodes {
		members = append(members, n.Addr())
	}
	checkBatchVerdictsRefused(t, mt, members, false)
	checkBatchVerdictsRefused(t, mt, members, true)
}

// TestRepairFindsDivergence: the repair digest, read off the stores,
// still tells replicas apart that differ in one live entry or in one
// tombstone alone, whichever of owner and replica holds the extra one;
// one repair round by the owner brings both to the same state.
func TestRepairFindsDivergence(t *testing.T) {
	e1, e2 := overlay.Entry{Kind: "index", Value: "/e1"}, overlay.Entry{Kind: "index", Value: "/e2"}
	dead := overlay.Entry{Kind: "index", Value: "/dead"}
	for _, c := range []struct {
		name  string
		extra func(s Store, key keyspace.Key) error
		check func(s Store, key keyspace.Key) bool
	}{
		{"one entry", func(s Store, key keyspace.Key) error {
			_, err := s.Put(key, e2)
			return err
		}, func(s Store, key keyspace.Key) bool { return slices.Equal(s.Get(key), []overlay.Entry{e1, e2}) }},
		{"one tombstone", func(s Store, key keyspace.Key) error {
			_, err := s.Remove(key, dead)
			return err
		}, func(s Store, key keyspace.Key) bool {
			return slices.Equal(s.Get(key), []overlay.Entry{e1}) && s.Tombstoned(key, dead)
		}},
	} {
		for _, at := range []string{"owner", "replica"} {
			t.Run(c.name+" at "+at, func(t *testing.T) {
				mt := NewMemTransport()
				ring := convergedIdleRing(t, func() Transport { return mt }, 3, 1)
				o, r := ring[1], ring[2]
				key := keyWhere(t, "diverge", func(k keyspace.Key) bool { return k.Between(ring[0].id, o.id) })
				for _, n := range []*Node{o, r} {
					if _, err := n.store.Put(key, e1); err != nil {
						t.Fatal(err)
					}
				}
				holder := o
				if at == "replica" {
					holder = r
				}
				if err := c.extra(holder.store, key); err != nil {
					t.Fatal(err)
				}
				if heldDigest(o.store, key) == heldDigest(r.store, key) {
					t.Fatal("the divergent copies digest alike")
				}
				o.syncReplicas()
				for _, n := range []*Node{o, r} {
					if !c.check(n.store, key) {
						t.Fatalf("%s holds %v (tombstones %v) after the owner's repair round", n.addr, n.store.Get(key), n.store.Tombstones(key))
					}
				}
				if heldDigest(o.store, key) != heldDigest(r.store, key) {
					t.Fatal("the repaired copies still digest apart")
				}
			})
		}
	}
}
