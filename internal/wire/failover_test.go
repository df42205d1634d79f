package wire

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// startRingCfg boots count nodes with per-node config tweaks applied on
// top of the given base and waits for convergence.
func startRingCfg(t *testing.T, transport func() Transport, count int, base Config) (*Cluster, []*Node) {
	t.Helper()
	cluster := NewCluster(transport(), 1, base.ReplicationFactor)
	nodes := make([]*Node, 0, count)
	var bootstrap string
	for i := 0; i < count; i++ {
		cfg := base
		cfg.Transport = transport()
		cfg.Addr = "mem:0"
		n, err := Start(cfg)
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
	if err := cluster.WaitConverged(30 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	return cluster, nodes
}

// TestLeaveHandsOffPastDeadSuccessor: when the immediate successor is
// unreachable at Leave time, the keys must flow to the next successor-
// list entry instead of dying with the hand-off (regression for the
// succs[0]-only hand-off).
func TestLeaveHandsOffPastDeadSuccessor(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	// A slow stabilize keeps the dead successor in the list during Leave.
	cluster, nodes := startRingCfg(t, ft.Endpoint, 5, Config{
		StabilizeInterval: 500 * time.Millisecond,
	})
	for i := 0; i < 40; i++ {
		key := keyspace.NewKey(fmt.Sprintf("lh-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "d", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a leaver that owns keys and has a populated successor list.
	var leaver *Node
	deadline := time.Now().Add(15 * time.Second)
	for leaver == nil {
		for _, n := range nodes {
			if n.KeyCount() > 0 && len(n.Successors()) >= 2 {
				leaver = n
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no node with keys and a full successor list")
		}
		time.Sleep(10 * time.Millisecond)
	}
	succs := leaver.Successors()
	dead := succs[0]
	moved := leaver.KeyCount()

	// Blackhole the immediate successor, then leave at once.
	ft.Crash(dead)
	if err := leaver.Leave(); err != nil {
		t.Fatalf("leave with dead successor should fail over, got %v", err)
	}
	accepted := leaver.HandedOffTo()
	if accepted == "" {
		t.Fatal("no peer accepted the hand-off")
	}
	if accepted == dead {
		t.Fatalf("hand-off reported to the blackholed successor %s", dead)
	}
	// The accepting peer physically holds the keys.
	var acceptor *Node
	for _, n := range nodes {
		if n.Addr() == accepted {
			acceptor = n
		}
	}
	if acceptor == nil {
		t.Fatalf("hand-off went to an unknown peer %s", accepted)
	}
	if got := acceptor.KeyCount(); got < moved {
		t.Fatalf("acceptor holds %d keys, leaver moved %d", got, moved)
	}
}

// TestSuccessorListWipeHealsViaPredecessor: kill a node's ENTIRE
// successor list at once. The node must fall back to its live
// predecessor instead of collapsing to a one-node ring, and the ring
// must re-converge around the hole (regression for advanceSuccessor).
func TestSuccessorListWipeHealsViaPredecessor(t *testing.T) {
	transport := NewMemTransport()
	cluster, nodes := startRingCfg(t, func() Transport { return transport }, 2*succListLen, Config{})
	byAddr := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byAddr[n.Addr()] = n
	}
	ring := cluster.Addrs() // ring order
	x := byAddr[ring[0]]

	// Wait for x's successor list to hold its succListLen ring successors.
	want := ring[1 : 1+succListLen]
	deadline := time.Now().Add(15 * time.Second)
	for {
		if slices.Equal(x.Successors(), want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("successor list never filled: %v, want %v", x.Successors(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Watch for the failure mode: x believing it is alone.
	var collapsed atomic.Bool
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for {
			if x.Successor() == x.Addr() {
				collapsed.Store(true)
				return
			}
			select {
			case <-time.After(time.Millisecond):
			case <-stopWatch:
				return
			}
		}
	}()

	// The whole successor list dies at once.
	for _, addr := range want {
		byAddr[addr].Stop()
		cluster.Untrack(addr)
	}
	if err := cluster.WaitConverged(30 * time.Second); err != nil {
		logRingState(t, nodes, want)
		t.Fatalf("ring did not heal after losing a full successor list: %v", err)
	}
	if got, wantSucc := x.Successor(), ring[1+succListLen]; got != wantSucc {
		t.Fatalf("x's successor = %s, want next live node %s", got, wantSucc)
	}
	close(stopWatch)
	<-watchDone
	if collapsed.Load() {
		t.Fatal("node collapsed to a one-node ring despite a live predecessor")
	}
}

// TestFailoverReadServedByReplica: crash the owner of a populated key in
// a replicated ring and read immediately — before stabilization can
// heal — so the entry must be served by a replica through the cluster's
// failover path.
func TestFailoverReadServedByReplica(t *testing.T) {
	transport := NewMemTransport()
	// A slow stabilize keeps the dead owner routed-to during the read.
	cluster, nodes := startRingCfg(t, func() Transport { return transport }, 5, Config{
		StabilizeInterval: 400 * time.Millisecond,
		ReplicationFactor: 2,
	})
	byAddr := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		byAddr[n.Addr()] = n
	}
	key := keyspace.NewKey("failover-me")
	entry := overlay.Entry{Kind: "d", Value: "precious"}
	if _, err := cluster.Put(key, entry); err != nil {
		t.Fatal(err)
	}
	route, err := cluster.FindOwner(key)
	if err != nil {
		t.Fatal(err)
	}
	owner := byAddr[route.Node]
	if owner == nil {
		t.Fatalf("owner %s not in ring", route.Node)
	}
	// Replication is synchronous on Put, but verify a replica holds the
	// entry before crashing the owner.
	replicas := owner.Successors()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := transport.Call(replicas[0], Message{Op: OpGet, Key: key})
		if err == nil && len(resp.Entries) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never received the entry", replicas[0])
		}
		time.Sleep(10 * time.Millisecond)
	}

	owner.Stop() // crash-stop: no hand-off, still tracked by the cluster

	entries, froute, err := cluster.Get(key)
	if err != nil {
		t.Fatalf("get after owner crash: %v", err)
	}
	if len(entries) != 1 || entries[0] != entry {
		t.Fatalf("replica served %v, want %v", entries, entry)
	}
	if froute.Node == route.Node {
		t.Fatalf("read claims to be served by the crashed owner %s", route.Node)
	}
	m := cluster.Metrics()
	if m.FailoverReads < 1 || m.OwnerReadFailures < 1 {
		t.Fatalf("FailoverReads = %d, want ≥ 1 (metrics: %+v)", m.FailoverReads, m)
	}
	// The dead presumed owner sent the read through routed resolution
	// first; routing still named the dead node, so replicas served.
	if got := cluster.ownerFallbacks.Value(); got < 1 {
		t.Fatalf("wire_owner_fallbacks_total = %d, want ≥ 1", got)
	}
}
