package wire

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

func keyOf(t *testing.T, i int) keyspace.Key {
	t.Helper()
	return keyspace.NewKey(fmt.Sprintf("fault-%d", i))
}

func entryOf(i int) overlay.Entry {
	return overlay.Entry{Kind: "d", Value: fmt.Sprintf("v%d", i)}
}

// echoListener binds an echo handler and returns its address.
func echoListener(t *testing.T, tr Transport) string {
	t.Helper()
	addr, closer, err := tr.Listen("mem:0", func(m Message) Message {
		return Message{Op: m.Op, Ok: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = closer.Close() })
	return addr
}

func TestFaultTransportPassThroughByDefault(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	addr := echoListener(t, ft)
	for i := 0; i < 50; i++ {
		resp, err := ft.Call(addr, Message{Op: OpPing})
		if err != nil || !resp.Ok {
			t.Fatalf("call %d through fault-free transport: %+v, %v", i, resp, err)
		}
	}
	if s := ft.Stats(); s.DroppedRequests+s.DroppedResponses+s.Delayed != 0 {
		t.Fatalf("faults injected with no rules: %+v", s)
	}
}

func TestFaultTransportDrop(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	addr := echoListener(t, ft)
	ft.SetDefaultRule(FaultRule{DropProb: 0.5})
	failed := 0
	const calls = 200
	for i := 0; i < calls; i++ {
		if _, err := ft.Call(addr, Message{Op: OpPing}); err != nil {
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("drop surfaced as %v, want ErrUnreachable", err)
			}
			failed++
		}
	}
	s := ft.Stats()
	if int64(failed) != s.DroppedRequests+s.DroppedResponses {
		t.Fatalf("failed calls %d != dropped counters %d+%d",
			failed, s.DroppedRequests, s.DroppedResponses)
	}
	if s.DroppedRequests == 0 || s.DroppedResponses == 0 {
		t.Fatalf("both drop sides should fire at p=0.5 over %d calls: %+v", calls, s)
	}
	if failed < calls/4 || failed > 3*calls/4 {
		t.Fatalf("drop rate implausible for p=0.5: %d/%d", failed, calls)
	}
}

func TestFaultTransportLatency(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	addr := echoListener(t, ft)
	ft.SetDefaultRule(FaultRule{Latency: 30 * time.Millisecond}) // LatencyProb 0 → always
	start := time.Now()
	if _, err := ft.Call(addr, Message{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("call took %v, want ≥ 30ms injected", elapsed)
	}
	s := ft.Stats()
	if s.Delayed != 1 || s.DelayTotal != 30*time.Millisecond {
		t.Fatalf("latency counters: %+v", s)
	}
}

func TestFaultTransportPerOpRule(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	addr := echoListener(t, ft)
	ft.SetOpRule(OpPing, FaultRule{DropProb: 1})
	if _, err := ft.Call(addr, Message{Op: OpPing}); err == nil {
		t.Fatal("OpPing survived a p=1 drop rule")
	}
	if _, err := ft.Call(addr, Message{Op: OpGet}); err != nil {
		t.Fatalf("OpGet hit by an OpPing rule: %v", err)
	}
	ft.ClearOpRule(OpPing)
	if _, err := ft.Call(addr, Message{Op: OpPing}); err != nil {
		t.Fatalf("cleared rule still firing: %v", err)
	}
}

func TestFaultTransportPartitionAndHeal(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	epA, epB := ft.Endpoint(), ft.Endpoint()
	addrA, closerA, err := epA.Listen("mem:0", func(m Message) Message { return Message{Ok: true} })
	if err != nil {
		t.Fatal(err)
	}
	defer closerA.Close()
	addrB, closerB, err := epB.Listen("mem:0", func(m Message) Message { return Message{Ok: true} })
	if err != nil {
		t.Fatal(err)
	}
	defer closerB.Close()

	ft.Partition(addrA, addrB)
	if _, err := epA.Call(addrB, Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("a→b through partition: %v", err)
	}
	if _, err := epB.Call(addrA, Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("b→a through partition: %v", err)
	}
	// Anonymous clients are outside the partition.
	if _, err := ft.Call(addrB, Message{Op: OpPing}); err != nil {
		t.Fatalf("client blocked by a↔b partition: %v", err)
	}
	if s := ft.Stats(); s.PartitionBlocked != 2 {
		t.Fatalf("PartitionBlocked = %d, want 2", s.PartitionBlocked)
	}
	ft.Heal()
	if _, err := epA.Call(addrB, Message{Op: OpPing}); err != nil {
		t.Fatalf("a→b after heal: %v", err)
	}
}

func TestFaultTransportAsymmetricPartition(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	epA, epB := ft.Endpoint(), ft.Endpoint()
	addrA, _, err := epA.Listen("mem:0", func(m Message) Message { return Message{Ok: true} })
	if err != nil {
		t.Fatal(err)
	}
	addrB, _, err := epB.Listen("mem:0", func(m Message) Message { return Message{Ok: true} })
	if err != nil {
		t.Fatal(err)
	}
	ft.PartitionOneWay(addrA, addrB)
	if _, err := epA.Call(addrB, Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("a→b through one-way partition: %v", err)
	}
	if _, err := epB.Call(addrA, Message{Op: OpPing}); err != nil {
		t.Fatalf("b→a should pass a one-way a→b partition: %v", err)
	}
}

func TestFaultTransportCrashStop(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 1)
	ep := ft.Endpoint()
	addr, _, err := ep.Listen("mem:0", func(m Message) Message { return Message{Ok: true} })
	if err != nil {
		t.Fatal(err)
	}
	other := echoListener(t, ft)

	ft.Crash(addr)
	if _, err := ft.Call(addr, Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to crashed node: %v", err)
	}
	// A crashed node's own traffic is blackholed too.
	if _, err := ep.Call(other, Message{Op: OpPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call from crashed node: %v", err)
	}
	if s := ft.Stats(); s.CrashBlocked != 2 {
		t.Fatalf("CrashBlocked = %d, want 2", s.CrashBlocked)
	}
	ft.Restore(addr)
	if _, err := ft.Call(addr, Message{Op: OpPing}); err != nil {
		t.Fatalf("call after Restore: %v", err)
	}
}

// TestFaultTransportSeededDeterminism: the same seed over the same call
// sequence yields the identical fault decisions.
func TestFaultTransportSeededDeterminism(t *testing.T) {
	run := func() FaultStats {
		ft := NewFaultTransport(NewMemTransport(), 99)
		addr := echoListener(t, ft)
		ft.SetDefaultRule(FaultRule{DropProb: 0.3, Latency: time.Microsecond, LatencyProb: 0.4})
		for i := 0; i < 300; i++ {
			_, _ = ft.Call(addr, Message{Op: OpPing})
		}
		return ft.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("seeded runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestFaultyRingSurvivesWithRetries is the fault/retry stack in one
// shot: a ring formed and used over a lossy network works because the
// retry layer absorbs the loss.
func TestFaultyRingSurvivesWithRetries(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 5)
	ft.SetDefaultRule(FaultRule{DropProb: 0.08})
	policy := RetryPolicy{Seed: 5}
	cluster := NewCluster(NewRetryingTransport(ft, policy), 5, 0)
	var nodes []*Node
	var bootstrap string
	for i := 0; i < 6; i++ {
		n, err := Start(Config{
			Transport:         ft.Endpoint(),
			Addr:              "mem:0",
			Retry:             &policy,
			SuccFailThreshold: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else {
			// Like a put, a join is retried at the operation level on top
			// of the RPC retries.
			for try := 0; ; try++ {
				if err = n.Join(bootstrap); err == nil {
					break
				}
				if try == 2 {
					t.Fatalf("join under 8%% loss (retried): %v", err)
				}
			}
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(30 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := keyOf(t, i)
		if !putWithRetry(cluster, key, entryOf(i), 6) {
			t.Fatalf("put %d never acked under loss", i)
		}
	}
	for i := 0; i < 20; i++ {
		entries, _, err := cluster.Get(keyOf(t, i))
		if err != nil || len(entries) == 0 {
			// One more chance: the storm is still on.
			entries, _, err = cluster.Get(keyOf(t, i))
			if err != nil || len(entries) == 0 {
				t.Fatalf("get %d under loss: %v %v", i, entries, err)
			}
		}
	}
	if s := ft.Stats(); s.DroppedRequests+s.DroppedResponses == 0 {
		t.Fatal("the lossy network never dropped anything — test proved nothing")
	}
}
