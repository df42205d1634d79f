package wire

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// startRing boots count nodes on the transport, joins them through the
// first, and waits for ring convergence.
func startRing(t *testing.T, transport Transport, count int) (*Cluster, []*Node) {
	t.Helper()
	cluster := NewCluster(transport, 1, 0)
	nodes := make([]*Node, 0, count)
	var bootstrap string
	for i := 0; i < count; i++ {
		n, err := Start(Config{Transport: transport, Addr: "mem:0"})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	return cluster, nodes
}

// putWithRetry performs an op-level put retry loop on top of the RPC
// retry layer: under injected faults a put can fail end-to-end and the
// test, like any real client, tries again.
func putWithRetry(cluster *Cluster, key keyspace.Key, e overlay.Entry, tries int) bool {
	for i := 0; i < tries; i++ {
		if _, err := cluster.Put(key, e); err == nil {
			return true
		}
		time.Sleep(time.Duration(10*(i+1)) * time.Millisecond)
	}
	return false
}

// countCopies counts how many of the given nodes hold the key in their
// LOCAL store. An OpGet without a TTL never forwards, so a direct
// per-node call observes the key's physical replica placement rather
// than routed availability.
func countCopies(t Transport, addrs []string, key keyspace.Key) int {
	copies := 0
	for _, addr := range addrs {
		resp, err := t.Call(addr, Message{Op: OpGet, Key: key})
		if err == nil && resp.Err == "" && len(resp.Entries) > 0 {
			copies++
		}
	}
	return copies
}

func TestSingleNodeRing(t *testing.T) {
	transport := NewMemTransport()
	cluster, nodes := startRing(t, transport, 1)
	key := keyspace.NewKey("k")
	if _, err := cluster.Put(key, overlay.Entry{Kind: "d", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	entries, route, err := cluster.Get(key)
	if err != nil || len(entries) != 1 {
		t.Fatalf("get = %v, %v", entries, err)
	}
	if route.Node != nodes[0].Addr() {
		t.Fatalf("owner = %s", route.Node)
	}
}

func TestRingConvergesAndRoutes(t *testing.T) {
	transport := NewMemTransport()
	cluster, nodes := startRing(t, transport, 10)
	// Every key must land on the node the sorted ring predicts
	// (successor rule over idOf).
	addrs := cluster.Addrs()
	for i := 0; i < 40; i++ {
		key := keyspace.NewKey(fmt.Sprintf("key-%d", i))
		route, err := cluster.FindOwner(key)
		if err != nil {
			t.Fatal(err)
		}
		want := successorOf(addrs, key)
		if route.Node != want {
			t.Fatalf("key %d routed to %s, want %s", i, route.Node, want)
		}
	}
	_ = nodes
}

// successorOf computes the ideal owner from a ring-ordered address list.
func successorOf(ringOrdered []string, key keyspace.Key) string {
	for _, addr := range ringOrdered {
		if idOf(addr).Cmp(key) >= 0 {
			return addr
		}
	}
	return ringOrdered[0]
}

func TestPutGetAcrossRing(t *testing.T) {
	transport := NewMemTransport()
	cluster, _ := startRing(t, transport, 8)
	for i := 0; i < 50; i++ {
		key := keyspace.NewKey(fmt.Sprintf("doc-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		key := keyspace.NewKey(fmt.Sprintf("doc-%d", i))
		entries, _, err := cluster.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Value != fmt.Sprintf("v%d", i) {
			t.Fatalf("doc-%d: %v", i, entries)
		}
	}
}

func TestRemoveAcrossRing(t *testing.T) {
	transport := NewMemTransport()
	cluster, _ := startRing(t, transport, 4)
	key := keyspace.NewKey("victim")
	e := overlay.Entry{Kind: "d", Value: "x"}
	if _, err := cluster.Put(key, e); err != nil {
		t.Fatal(err)
	}
	ok, err := cluster.Remove(key, e)
	if err != nil || !ok {
		t.Fatalf("remove = %v, %v", ok, err)
	}
	entries, _, err := cluster.Get(key)
	if err != nil || len(entries) != 0 {
		t.Fatalf("after remove: %v, %v", entries, err)
	}
	ok, err = cluster.Remove(key, e)
	if err != nil || ok {
		t.Fatalf("double remove = %v, %v", ok, err)
	}
}

func TestLateJoinTakesOverKeys(t *testing.T) {
	transport := NewMemTransport()
	cluster, nodes := startRing(t, transport, 4)
	for i := 0; i < 40; i++ {
		key := keyspace.NewKey(fmt.Sprintf("k-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "d", Value: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	// Join four more nodes.
	for i := 0; i < 4; i++ {
		n, err := Start(Config{Transport: transport, Addr: "mem:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		if err := n.Join(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	// Give key migration a few stabilization rounds, then verify every
	// key is served and sits on its ideal owner.
	deadline := time.Now().Add(10 * time.Second)
	addrs := cluster.Addrs()
	for i := 0; i < 40; i++ {
		key := keyspace.NewKey(fmt.Sprintf("k-%d", i))
		for {
			entries, route, err := cluster.Get(key)
			if err == nil && len(entries) == 1 && route.Node == successorOf(addrs, key) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d not migrated: entries=%v err=%v owner=%s want=%s",
					i, entries, err, route.Node, successorOf(addrs, key))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestGracefulLeave(t *testing.T) {
	transport := NewMemTransport()
	cluster, nodes := startRing(t, transport, 6)
	for i := 0; i < 30; i++ {
		key := keyspace.NewKey(fmt.Sprintf("d-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "d", Value: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	// Two nodes leave gracefully.
	for _, n := range nodes[2:4] {
		if err := n.Leave(); err != nil {
			t.Fatal(err)
		}
		cluster.Untrack(n.Addr())
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		logRingState(t, slices.Concat(nodes[:2], nodes[4:]), []string{nodes[2].Addr(), nodes[3].Addr()})
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		key := keyspace.NewKey(fmt.Sprintf("d-%d", i))
		// Data may take a round or two to settle on the new owner.
		deadline := time.Now().Add(10 * time.Second)
		for {
			entries, _, err := cluster.Get(key)
			if err == nil && len(entries) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d lost after leaves: %v %v", i, entries, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestCrashHealing(t *testing.T) {
	transport := NewMemTransport()
	cluster, nodes := startRing(t, transport, 8)
	// Crash two non-adjacent nodes abruptly.
	nodes[1].Stop()
	cluster.Untrack(nodes[1].Addr())
	nodes[4].Stop()
	cluster.Untrack(nodes[4].Addr())
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		logRingState(t, slices.Concat(nodes[:1], nodes[2:4], nodes[5:]), []string{nodes[1].Addr(), nodes[4].Addr()})
		t.Fatal(err)
	}
	// Routing still works for arbitrary keys.
	for i := 0; i < 20; i++ {
		if _, err := cluster.FindOwner(keyspace.NewKey(fmt.Sprintf("x%d", i))); err != nil {
			t.Fatalf("lookup after crashes: %v", err)
		}
	}
}

func TestClusterStatsOf(t *testing.T) {
	transport := NewMemTransport()
	cluster, _ := startRing(t, transport, 3)
	key := keyspace.NewKey("k")
	if _, err := cluster.Put(key, overlay.Entry{Kind: "index", Value: "abcd"}); err != nil {
		t.Fatal(err)
	}
	route, err := cluster.FindOwner(key)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cluster.StatsOf(route.Node)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keys != 1 || stats.EntriesByKind["index"] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestClusterNoMembers(t *testing.T) {
	cluster := NewCluster(NewMemTransport(), 1, 0)
	if _, err := cluster.FindOwner(keyspace.NewKey("x")); err == nil {
		t.Fatal("empty cluster routed a lookup")
	}
	if cluster.Size() != 0 {
		t.Fatal("size != 0")
	}
}

func TestStopIdempotent(t *testing.T) {
	transport := NewMemTransport()
	n, err := Start(Config{Transport: transport, Addr: "mem:0"})
	if err != nil {
		t.Fatal(err)
	}
	n.Stop()
	n.Stop() // second stop must not panic or deadlock
	if _, err := transport.Call(n.Addr(), Message{Op: OpPing}); err == nil {
		t.Fatal("stopped node still reachable")
	}
}

func TestMemTransportErrors(t *testing.T) {
	transport := NewMemTransport()
	if _, err := transport.Call("ghost", Message{Op: OpPing}); err == nil {
		t.Fatal("call to unbound address succeeded")
	}
	_, closer, err := transport.Listen("dup", func(Message) Message { return Message{} })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := transport.Listen("dup", nil); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.Call("dup", Message{}); err == nil {
		t.Fatal("closed address still reachable")
	}
}

// TestReplicationSurvivesCrash: with ReplicationFactor 2, abruptly
// crashed nodes lose no data once the ring re-stabilizes and replicas
// take over.
func TestReplicationSurvivesCrash(t *testing.T) {
	transport := NewMemTransport()
	cluster := NewCluster(transport, 1, 2)
	const count = 8
	nodes := make([]*Node, 0, count)
	var bootstrap string
	for i := 0; i < count; i++ {
		n, err := Start(Config{
			Transport:         transport,
			Addr:              "mem:0",
			ReplicationFactor: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			t.Fatal(err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	const keys = 40
	for i := 0; i < keys; i++ {
		key := keyspace.NewKey(fmt.Sprintf("r-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Let at least one replication round run (every 4th stabilize tick).
	time.Sleep(8 * 25 * time.Millisecond)

	// Crash two nodes abruptly — no hand-off.
	for _, victim := range []*Node{nodes[1], nodes[5]} {
		victim.Stop()
		cluster.Untrack(victim.Addr())
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		logRingState(t, slices.Concat(nodes[:1], nodes[2:5], nodes[6:]), []string{nodes[1].Addr(), nodes[5].Addr()})
		t.Fatal(err)
	}
	// Every key must still be retrievable (replicas serve or re-own).
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; i < keys; i++ {
		key := keyspace.NewKey(fmt.Sprintf("r-%d", i))
		for {
			entries, _, err := cluster.Get(key)
			if err == nil && len(entries) >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d lost after crashes despite replication", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestReplicatedRemovePropagates: deleting an entry removes it from the
// replicas too (no zombie resurrection by the repair loop).
func TestReplicatedRemovePropagates(t *testing.T) {
	transport := NewMemTransport()
	cluster := NewCluster(transport, 1, 2)
	var nodes []*Node
	var bootstrap string
	for i := 0; i < 5; i++ {
		n, err := Start(Config{Transport: transport, Addr: "mem:0", ReplicationFactor: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			t.Fatal(err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	key := keyspace.NewKey("zombie")
	e := overlay.Entry{Kind: "data", Value: "v"}
	if _, err := cluster.Put(key, e); err != nil {
		t.Fatal(err)
	}
	time.Sleep(8 * 25 * time.Millisecond) // replicate
	ok, err := cluster.Remove(key, e)
	if err != nil || !ok {
		t.Fatalf("remove = %v, %v", ok, err)
	}
	// The entry must stay gone across several repair rounds.
	time.Sleep(12 * 25 * time.Millisecond)
	entries, _, err := cluster.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entry resurrected by repair loop: %v", entries)
	}
}
