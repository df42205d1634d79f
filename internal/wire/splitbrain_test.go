package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// TestPartitionGroupsSemantics: a group partition blocks every
// cross-side link in both directions, leaves intra-side links and
// anonymous clients alone, counts its cut links, and HealLink restores
// exactly one pair at a time.
func TestPartitionGroupsSemantics(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	eps := make([]Transport, 4)
	addrs := make([]string, 4)
	for i := range eps {
		eps[i] = ft.Endpoint()
		addr, closer, err := eps[i].Listen("mem:0", func(m Message) Message { return Message{Ok: true} })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = closer.Close() })
		addrs[i] = addr
	}

	ft.PartitionGroups(addrs[:2], addrs[2:])
	s := ft.Stats()
	if s.PartitionEvents != 1 || s.LinksCut != 8 {
		t.Fatalf("2|2 split: events=%d cut=%d, want 1 and 8", s.PartitionEvents, s.LinksCut)
	}
	// Cross-side: blocked both ways.
	if _, err := eps[0].Call(addrs[2], Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-side call passed the partition: %v", err)
	}
	if _, err := eps[3].Call(addrs[1], Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-side call (other direction) passed: %v", err)
	}
	// Intra-side: open.
	if _, err := eps[0].Call(addrs[1], Message{Op: OpPing}); err != nil {
		t.Fatalf("intra-side call blocked: %v", err)
	}
	if _, err := eps[2].Call(addrs[3], Message{Op: OpPing}); err != nil {
		t.Fatalf("intra-side call blocked: %v", err)
	}
	// Anonymous clients reach both sides.
	if _, err := ft.Call(addrs[0], Message{Op: OpPing}); err != nil {
		t.Fatalf("client blocked from side A: %v", err)
	}
	if _, err := ft.Call(addrs[2], Message{Op: OpPing}); err != nil {
		t.Fatalf("client blocked from side B: %v", err)
	}

	// Heal one pair; only that pair opens.
	ft.HealLink(addrs[0], addrs[2])
	if _, err := eps[0].Call(addrs[2], Message{Op: OpPing}); err != nil {
		t.Fatalf("healed link still blocked: %v", err)
	}
	if _, err := eps[2].Call(addrs[0], Message{Op: OpPing}); err != nil {
		t.Fatalf("healed link reverse direction still blocked: %v", err)
	}
	if _, err := eps[0].Call(addrs[3], Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unhealed link opened by a targeted heal: %v", err)
	}
	s = ft.Stats()
	if s.HealEvents != 1 || s.LinksHealed != 2 {
		t.Fatalf("targeted heal: events=%d healed=%d, want 1 and 2", s.HealEvents, s.LinksHealed)
	}
	// Healing an already-open pair counts the event but no links.
	ft.HealLink(addrs[0], addrs[2])
	if s = ft.Stats(); s.HealEvents != 2 || s.LinksHealed != 2 {
		t.Fatalf("idempotent heal recounted links: %+v", s)
	}
	ft.Heal()
	if s = ft.Stats(); s.LinksHealed != 8 {
		t.Fatalf("global heal: %d links healed in total, want 8", s.LinksHealed)
	}
}

// TestMemStoreTombstones: removes plant deletion records that suppress
// re-puts until GC, Entomb merges foreign tombstones keeping the latest
// At, and Replace installs both sets wholesale.
func TestMemStoreTombstones(t *testing.T) {
	s := NewMemStore()
	k := keyspace.NewKey("tomb-key")
	e := overlay.Entry{Kind: "d", Value: "v1"}

	if added, _ := s.Put(k, e); !added {
		t.Fatal("first put refused")
	}
	if removed, _ := s.Remove(k, e); !removed {
		t.Fatal("remove of a present entry reported absent")
	}
	if !s.Tombstoned(k, e) {
		t.Fatal("remove left no tombstone")
	}
	if added, err := s.Put(k, e); added || err != nil {
		t.Fatalf("put past a live tombstone: added=%v err=%v", added, err)
	}
	if got := s.Get(k); len(got) != 0 {
		t.Fatalf("suppressed entry visible: %v", got)
	}
	// Removing an absent entry still records the tombstone.
	e2 := overlay.Entry{Kind: "d", Value: "never-stored"}
	if removed, _ := s.Remove(k, e2); removed {
		t.Fatal("remove of an absent entry reported present")
	}
	if !s.Tombstoned(k, e2) {
		t.Fatal("remove of an absent entry left no tombstone")
	}
	if got := s.Tombstones(k); len(got) != 2 {
		t.Fatalf("want 2 tombstones, got %v", got)
	}
	// The key has no live entries but stays alive through its tombstones:
	// ForEach skips it, ForEachTombstone serves it.
	s.ForEach(func(key keyspace.Key, _ []overlay.Entry) bool {
		if key == k {
			t.Fatal("ForEach visited a tombstone-only key")
		}
		return true
	})
	seen := false
	s.ForEachTombstone(func(key keyspace.Key, tombs []Tombstone) bool {
		if key == k && len(tombs) == 2 {
			seen = true
		}
		return true
	})
	if !seen {
		t.Fatal("ForEachTombstone missed the tombstone-only key")
	}

	// Entomb kills a matching live entry and keeps the latest At.
	k2 := keyspace.NewKey("tomb-key-2")
	e3 := overlay.Entry{Kind: "d", Value: "v3"}
	if _, err := s.Put(k2, e3); err != nil {
		t.Fatal(err)
	}
	if fresh, _ := s.Entomb(k2, []Tombstone{TombstoneOf(e3, 100)}); fresh != 1 {
		t.Fatalf("entomb fresh=%d, want 1", fresh)
	}
	if got := s.Get(k2); len(got) != 0 {
		t.Fatalf("entomb left the live entry: %v", got)
	}
	if fresh, _ := s.Entomb(k2, []Tombstone{TombstoneOf(e3, 50)}); fresh != 0 {
		t.Fatal("an older At refreshed a newer tombstone")
	}
	if fresh, _ := s.Entomb(k2, []Tombstone{TombstoneOf(e3, 200)}); fresh != 1 {
		t.Fatal("a newer At did not refresh the tombstone")
	}
	if got := s.Tombstones(k2); len(got) != 1 || got[0].At != 200 {
		t.Fatalf("tombstone At not kept at the maximum: %v", got)
	}

	// GC drops only expired records; a re-put then succeeds.
	if n, _ := s.GCTombstones(150); n != 0 {
		t.Fatalf("GC before the At collected %d", n)
	}
	if n, _ := s.GCTombstones(201); n != 1 {
		t.Fatalf("GC after the At collected %d, want 1", n)
	}
	if added, _ := s.Put(k2, e3); !added {
		t.Fatal("put after GC still suppressed")
	}

	// Replace installs entries and tombstones wholesale.
	if err := s.Replace(k, []overlay.Entry{e3}, []Tombstone{TombstoneOf(e, 7)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Get(k); len(got) != 1 || got[0] != e3 {
		t.Fatalf("replace entries: %v", got)
	}
	if got := s.Tombstones(k); len(got) != 1 || got[0] != TombstoneOf(e, 7) {
		t.Fatalf("replace tombs: %v", got)
	}
	if err := s.Replace(k, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 && s.Tombstoned(k, e) {
		t.Fatal("empty replace left state behind")
	}
}

// TestStateDigestTombstones: the repair digest covers tombstone
// digests (two replicas disagreeing only in deletions must diverge)
// but not their At values (local GC clocks must not break agreement).
func TestStateDigestTombstones(t *testing.T) {
	entries := []overlay.Entry{{Kind: "d", Value: "v1"}}
	live := overlay.Digest(entries)
	if stateDigest(live, nil) != live {
		t.Fatal("tombstone-free digest must equal the entries digest")
	}
	tomb := []Tombstone{TombstoneOf(overlay.Entry{Kind: "d", Value: "dead"}, 1)}
	if stateDigest(live, tomb) == stateDigest(live, nil) {
		t.Fatal("tombstones invisible to the digest")
	}
	tombLater := []Tombstone{TombstoneOf(overlay.Entry{Kind: "d", Value: "dead"}, 999)}
	if stateDigest(live, tomb) != stateDigest(live, tombLater) {
		t.Fatal("At leaked into the digest — local clocks would break agreement")
	}
	// An entry and its own tombstone must not count alike: a replica
	// holding e live and one holding only e's tombstone differ.
	sameTomb := []Tombstone{TombstoneOf(entries[0], 0)}
	if stateDigest(0, sameTomb) == live {
		t.Fatal("a tombstone digests like its live entry")
	}
	a, b := overlay.Entry{Kind: "a", Value: "1"}, overlay.Entry{Kind: "b", Value: "2"}
	reordered := []Tombstone{TombstoneOf(b, 0), TombstoneOf(a, 0)}
	ordered := []Tombstone{TombstoneOf(a, 0), TombstoneOf(b, 0)}
	if stateDigest(0, reordered) != stateDigest(0, ordered) {
		t.Fatal("digest is tombstone-order-dependent")
	}
}

// startFaultRing boots n nodes over a FaultTransport and converges the
// ring. Returns the cluster, the fault layer, and the nodes by address.
func startFaultRing(t *testing.T, n, rf int) (*Cluster, *FaultTransport, map[string]*Node) {
	t.Helper()
	ft := NewFaultTransport(NewMemTransport(), 7)
	policy := RetryPolicy{Seed: 7}
	cluster := NewCluster(NewRetryingTransport(ft, policy), 7, rf)
	nodes := make(map[string]*Node, n)
	var bootstrap string
	for i := 0; i < n; i++ {
		node, err := Start(Config{
			Transport:         ft.Endpoint(),
			Addr:              "mem:0",
			StabilizeInterval: 10 * time.Millisecond,
			ReplicationFactor: rf,
			Retry:             &policy,
			SuccFailThreshold: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		if bootstrap == "" {
			bootstrap = node.Addr()
		} else if err := node.Join(bootstrap); err != nil {
			t.Fatal(err)
		}
		cluster.Track(node.Addr())
		nodes[node.Addr()] = node
	}
	if err := cluster.WaitConverged(15 * time.Second); err != nil {
		logRingState(t, nodesOf(nodes), nil)
		t.Fatal(err)
	}
	return cluster, ft, nodes
}

// TestOneWayPartitionKeepsSuccessor covers the asymmetric fault: when
// the successor's OUTBOUND messages to its predecessor vanish (but the
// predecessor can still reach the successor), the predecessor must not
// amputate the live successor — its own stabilize contacts keep
// succeeding — while the successor's circuit breaker trips toward the
// peer it can no longer reach. Healing the link re-converges the ring.
func TestOneWayPartitionKeepsSuccessor(t *testing.T) {
	if testing.Short() {
		t.Skip("asymmetric partition test skipped in -short mode")
	}
	ft := NewFaultTransport(NewMemTransport(), 11)
	policy := RetryPolicy{Seed: 11, Breaker: &BreakerPolicy{Seed: 11}}
	cluster := NewCluster(NewRetryingTransport(ft, policy), 11, 1)
	nodes := make(map[string]*Node, 4)
	var bootstrap string
	for i := 0; i < 4; i++ {
		p := policy
		p.Seed = 11 + int64(i)
		node, err := Start(Config{
			Transport:         ft.Endpoint(),
			Addr:              "mem:0",
			StabilizeInterval: 10 * time.Millisecond,
			ReplicationFactor: 1,
			Retry:             &p,
			SuccFailThreshold: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		if bootstrap == "" {
			bootstrap = node.Addr()
		} else if err := node.Join(bootstrap); err != nil {
			t.Fatal(err)
		}
		cluster.Track(node.Addr())
		nodes[node.Addr()] = node
	}
	if err := cluster.WaitConverged(15 * time.Second); err != nil {
		logRingState(t, nodesOf(nodes), nil)
		t.Fatal(err)
	}

	ring := cluster.Addrs()
	pred, succ := ring[0], ring[1]
	// Block succ→pred only: succ can no longer ping its predecessor, but
	// pred's stabilize contacts of succ (and their responses) flow.
	ft.PartitionOneWay(succ, pred)

	deadline := time.Now().Add(10 * time.Second)
	tripped := false
	for time.Now().Before(deadline) {
		if got := nodes[pred].Successor(); got != succ {
			t.Fatalf("one-way fault amputated a live successor: %s now precedes %s", pred, got)
		}
		if nodes[succ].BreakerStats().Trips >= 1 {
			tripped = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !tripped {
		t.Fatal("successor's breaker never tripped toward the unreachable predecessor")
	}
	// The ring still serves while asymmetric: writes and reads succeed.
	key := keyspace.NewKey("oneway-key")
	if !putWithRetry(cluster, key, overlay.Entry{Kind: "d", Value: "v"}, 6) {
		t.Fatal("put failed under a one-way partition")
	}
	if entries, _, err := cluster.Get(key); err != nil || len(entries) == 0 {
		t.Fatalf("get under a one-way partition: %v %v", entries, err)
	}

	ft.HealLink(succ, pred)
	if err := cluster.WaitConverged(15 * time.Second); err != nil {
		logRingState(t, nodesOf(nodes), nil)
		t.Fatalf("ring did not re-converge after healing the one-way link: %v", err)
	}
}

// otherSideKnown reports whether every node knows at least one peer on
// the opposite side (the memory a post-partition merge needs).
func otherSideKnown(nodes map[string]*Node, sideOf map[string]int) bool {
	for addr, n := range nodes {
		found := false
		for _, p := range n.KnownPeers() {
			if s, ok := sideOf[p]; ok && s != sideOf[addr] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sideRingComplete reports whether a walk from any member of side
// enumerates exactly side's members — i.e. the side has re-closed into
// its own complete ring.
func sideRingComplete(nodes map[string]*Node, side []string) bool {
	n := nodes[side[0]]
	members, complete := n.walkRing(n.Addr())
	if !complete || len(members) != len(side) {
		return false
	}
	in := make(map[string]bool, len(side))
	for _, s := range side {
		in[s] = true
	}
	for _, m := range members {
		if !in[m] {
			return false
		}
	}
	return true
}

// TestRingMergeAfterGroupPartition is the tentpole's topology test: a
// ring split into two halves stabilizes into two complete, mutually
// invisible rings; after the links heal, only the merge machinery —
// known-peer probes detecting the divergence and coordinating rejoins —
// can zip them back into one ring.
func TestRingMergeAfterGroupPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("merge test skipped in -short mode")
	}
	cluster, ft, nodes := startFaultRing(t, 8, 1)

	ring := cluster.Addrs()
	sideA, sideB := ring[:4], ring[4:]
	sideOf := make(map[string]int, len(ring))
	for _, a := range sideA {
		sideOf[a] = 0
	}
	for _, b := range sideB {
		sideOf[b] = 1
	}
	// Let stabilize/fix-fingers populate the known-peers sets until every
	// node remembers someone across the future cut.
	deadline := time.Now().Add(15 * time.Second)
	for !otherSideKnown(nodes, sideOf) {
		if time.Now().After(deadline) {
			t.Fatal("known-peers sets never covered the other side")
		}
		time.Sleep(25 * time.Millisecond)
	}

	ft.PartitionGroups(sideA, sideB)
	// Each side must re-close into its own complete ring — split brain,
	// not just degraded links.
	deadline = time.Now().Add(20 * time.Second)
	for !sideRingComplete(nodes, sideA) || !sideRingComplete(nodes, sideB) {
		if time.Now().After(deadline) {
			t.Fatal("sides never stabilized into independent rings")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Heal link by link; stabilization alone cannot reconnect two
	// complete rings — WaitConverged passing below proves the merge
	// coordinator bridged them.
	for _, a := range sideA {
		for _, b := range sideB {
			ft.HealLink(a, b)
		}
	}
	if err := cluster.WaitConverged(30 * time.Second); err != nil {
		logRingState(t, nodesOf(nodes), nil)
		t.Fatalf("rings never merged after healing: %v", err)
	}
	var total MergeStats
	for _, n := range nodes {
		total.Merge(n.MergeStats())
	}
	if total.Probes == 0 || total.Detected == 0 {
		t.Fatalf("merge never detected the divergence: %+v", total)
	}
	if total.Rejoins == 0 {
		t.Fatalf("no coordinated rejoins recorded: %+v", total)
	}
}

// TestRepairAntiResurrection: a replica isolated during a remove keeps
// its live copy; after the partition heals and the node merges back,
// the tombstone exchange must kill the stale copy everywhere — in both
// repair directions (owner ships tombstones to replicas; a replica
// pushes its tombstones back over an owner's stale live entry).
func TestRepairAntiResurrection(t *testing.T) {
	if testing.Short() {
		t.Skip("anti-resurrection test skipped in -short mode")
	}
	cluster, ft, nodes := startFaultRing(t, 6, 2)

	key := keyspace.NewKey("resurrect-me")
	entry := overlay.Entry{Kind: "d", Value: "doomed"}
	if _, err := cluster.Put(key, entry); err != nil {
		t.Fatal(err)
	}
	// Wait until the entry is fully replicated.
	deadline := time.Now().Add(15 * time.Second)
	for countCopies(ft, cluster.Addrs(), key) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("entry never reached full replication: %d copies",
				countCopies(ft, cluster.Addrs(), key))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Isolate one holder of the entry, remove through the rest of the
	// ring, then heal. The isolated node merges back still serving the
	// deleted entry from its local store.
	var holder string
	for _, addr := range cluster.Addrs() {
		resp, err := ft.Call(addr, Message{Op: OpGet, Key: key})
		if err == nil && len(resp.Entries) > 0 {
			holder = addr
			break
		}
	}
	if holder == "" {
		t.Fatal("no holder found")
	}
	rest := make([]string, 0, len(nodes)-1)
	for addr := range nodes {
		if addr != holder {
			rest = append(rest, addr)
		}
	}
	ft.PartitionGroups([]string{holder}, rest)
	// Let the majority side absorb the amputation, then remove.
	time.Sleep(300 * time.Millisecond)
	removeDeadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cluster.Remove(key, entry); err == nil {
			break
		}
		if time.Now().After(removeDeadline) {
			t.Fatal("remove never succeeded on the majority side")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The anonymous client bypasses the partition, so the remove landed
	// on whichever side its contact node routed to; the OTHER side still
	// serves stale live copies — the resurrection pressure under test.
	if countCopies(ft, cluster.Addrs(), key) == 0 {
		t.Fatal("no stale live copy survived the partitioned remove; nothing to resurrect")
	}
	for _, r := range rest {
		ft.HealLink(holder, r)
	}
	if err := cluster.WaitConverged(30 * time.Second); err != nil {
		logRingState(t, nodesOf(nodes), nil)
		t.Fatalf("holder never merged back: %v", err)
	}
	// The tombstone must win: the entry disappears from every node,
	// including the returned holder, and stays gone.
	goneDeadline := time.Now().Add(20 * time.Second)
	for {
		holders := 0
		for _, addr := range cluster.Addrs() {
			resp, err := ft.Call(addr, Message{Op: OpGet, Key: key})
			if err == nil {
				for _, e := range resp.Entries {
					if e == entry {
						holders++
						break
					}
				}
			}
		}
		if holders == 0 {
			break
		}
		if time.Now().After(goneDeadline) {
			t.Fatalf("removed entry resurrected: %d nodes still serve it", holders)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Hold the zero for a few repair rounds: a resurrection that flaps
	// back in would betray a tombstone lost in the exchange.
	time.Sleep(500 * time.Millisecond)
	for _, addr := range cluster.Addrs() {
		resp, err := ft.Call(addr, Message{Op: OpGet, Key: key})
		if err != nil {
			continue
		}
		for _, e := range resp.Entries {
			if e == entry {
				t.Fatalf("entry resurrected on %s after settling", addr)
			}
		}
	}
}

// TestKnownPeersEvictionAllocatesNothing: past knownPeersMax a new peer
// evicts a random other one without copying or sorting the set — no
// allocation — and the victim is the one the earlier map-based set
// chose: the same n.rng draw over the same sorted order of the other
// peers.
func TestKnownPeersEvictionAllocatesNothing(t *testing.T) {
	n := idleNodes(t, func() Transport { return NewMemTransport() }, 1)[0]
	addrs := make([]string, 4*knownPeersMax)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("peer-%03d:%d", (i*37)%len(addrs), i)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.known = n.known[:0]
	n.rng = rand.New(rand.NewSource(7))
	// reference is the map-based set, evicting over a sorted copy.
	reference, refRNG := make(map[string]bool), rand.New(rand.NewSource(7))
	for _, a := range addrs {
		n.notePeersLocked(a)
		reference[a] = true
		if len(reference) > knownPeersMax {
			var victims []string
			for p := range reference {
				if p != a {
					victims = append(victims, p)
				}
			}
			sort.Strings(victims)
			delete(reference, victims[refRNG.Intn(len(victims))])
		}
	}
	want := make([]string, 0, len(reference))
	for p := range reference {
		want = append(want, p)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(n.known, want) {
		t.Fatalf("known peers %v, want %v", n.known, want)
	}
	next := 0
	fresh := make([]string, 1000)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("fresh-%04d", i)
	}
	allocs := testing.AllocsPerRun(500, func() {
		n.notePeersLocked(fresh[next%len(fresh)])
		next++
	})
	if allocs != 0 || len(n.known) != knownPeersMax {
		t.Fatalf("an eviction allocated %.1f times and left %d peers; want 0 and %d", allocs, len(n.known), knownPeersMax)
	}
}
