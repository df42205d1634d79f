package wire

import (
	"context"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// slowTransport delays the CALLER's messages to chosen addresses while
// leaving the ring's own traffic (which uses the inner transport
// directly) untouched — a slow-owner scenario as seen by one client.
type slowTransport struct {
	Transport
	mu   sync.Mutex
	slow map[string]time.Duration
}

func (s *slowTransport) setSlow(addr string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slow == nil {
		s.slow = map[string]time.Duration{}
	}
	s.slow[addr] = d
}

func (s *slowTransport) Call(addr string, req Message) (Message, error) {
	s.mu.Lock()
	d := s.slow[addr]
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return s.Transport.Call(addr, req)
}

// TestHedgedGetWinsAgainstSlowOwner: with a deadline set, a Get whose
// owner read stalls past half the remaining budget is raced against the
// key's first replica, and the replica's answer is served — tail latency
// capped by the hedge, not the slow peer. The owner read is owner-addressed (TTL set); the hedge
// is a local read (TTL 0), so the replica answers from its own copy
// instead of forwarding back to the slow owner.
func TestHedgedGetWinsAgainstSlowOwner(t *testing.T) {
	mem := NewMemTransport()
	slow := &slowTransport{Transport: mem}
	rec := &recordingTransport{Transport: slow}
	cluster := NewCluster(rec, 1, 1)

	var nodes []*Node
	var bootstrap string
	for i := 0; i < 6; i++ {
		n, err := Start(Config{Transport: mem, Addr: "mem:0", ReplicationFactor: 1})
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

	key := keyspace.NewKey("hedged-key")
	if _, err := cluster.Put(key, overlay.Entry{Kind: "d", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	// Wait until the replica actually holds a copy (put-time replication
	// plus the repair loop).
	deadline := time.Now().Add(10 * time.Second)
	for countCopies(mem, cluster.Addrs(), key) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("replica copy never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}

	route, err := cluster.FindOwner(key)
	if err != nil {
		t.Fatal(err)
	}
	owner := route.Node
	slow.setSlow(owner, 500*time.Millisecond)
	rec.take()

	// The hedge fires at half the remaining budget, 100 ms in.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	entries, got, err := cluster.GetCtx(ctx, key)
	elapsed := time.Since(start)
	if err != nil || len(entries) != 1 || entries[0].Value != "v" {
		t.Fatalf("hedged get = %v, %v", entries, err)
	}
	if got.Node == owner {
		t.Fatalf("answer came from the slow owner %s — hedge never raced", owner)
	}
	sent := rec.take()
	if len(sent) != 2 || sent[0].addr != owner || sent[0].req.TTL <= 0 ||
		sent[1].addr != got.Node || sent[1].req.TTL != 0 {
		t.Fatalf("sent %+v, want an owner-addressed read to %s then a local read to %s", sent, owner, got.Node)
	}
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("get took %v: tail latency not capped by the hedge", elapsed)
	}
	m := cluster.Metrics()
	if m.HedgedGets != 1 || m.HedgeWins != 1 {
		t.Fatalf("metrics = %+v, want exactly one hedged get and one hedge win", m)
	}
	_ = nodes
}
