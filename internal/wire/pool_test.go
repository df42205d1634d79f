package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// echoHandler answers every request with a response derived from the
// request's Addr field, so a caller can detect a response that was meant
// for a different request.
func echoHandler(req Message) Message {
	return Message{Op: req.Op, Ok: true, Addr: "echo:" + req.Addr}
}

// TestPooledConcurrentCalls hammers one pooled server with concurrent
// callers and asserts every caller gets ITS response back — the request
// ID multiplexing must never deliver a response to the wrong call.
func TestPooledConcurrentCalls(t *testing.T) {
	tp := NewTCPTransport()
	addr, closer, err := tp.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()

	const workers = 16
	const callsPerWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				tag := fmt.Sprintf("w%d-c%d", w, i)
				resp, err := tp.Call(addr, Message{Op: OpPing, Addr: tag})
				if err != nil {
					errs <- fmt.Errorf("call %s: %v", tag, err)
					return
				}
				if resp.Addr != "echo:"+tag {
					errs <- fmt.Errorf("call %s got response for %q", tag, resp.Addr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := tp.PoolStats()
	if st.Dials > int64(DefaultMaxConnsPerPeer) {
		t.Errorf("dials = %d, want <= %d (pool must reuse connections)", st.Dials, DefaultMaxConnsPerPeer)
	}
	if st.Reuses == 0 {
		t.Errorf("reuses = 0, want > 0")
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after all calls returned, want 0", st.InFlight)
	}
}

// TestPooledCallsUnderFaults drives concurrent pooled calls through a
// FaultTransport injecting drops and latency: calls may fail, but a call
// that succeeds must carry its own response, and the pool must recover
// once the faults heal.
func TestPooledCallsUnderFaults(t *testing.T) {
	tp := NewTCPTransport()
	tp.CallTimeout = 500 * time.Millisecond
	ft := NewFaultTransport(tp, 42)
	addr, closer, err := ft.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()
	ft.SetDefaultRule(FaultRule{DropProb: 0.3, Latency: 5 * time.Millisecond, LatencyProb: 0.3})

	const workers = 8
	const callsPerWorker = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				tag := fmt.Sprintf("w%d-c%d", w, i)
				resp, err := ft.Call(addr, Message{Op: OpPing, Addr: tag})
				if err != nil {
					continue // drops are expected; correctness is about successes
				}
				if resp.Addr != "echo:"+tag {
					errs <- fmt.Errorf("call %s got response for %q", tag, resp.Addr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Healed network: the pool must serve cleanly again.
	ft.Heal()
	ft.SetDefaultRule(FaultRule{})
	for i := 0; i < 5; i++ {
		resp, err := ft.Call(addr, Message{Op: OpPing, Addr: "post-heal"})
		if err != nil {
			t.Fatalf("post-heal call %d: %v", i, err)
		}
		if resp.Addr != "echo:post-heal" {
			t.Fatalf("post-heal call %d got %q", i, resp.Addr)
		}
	}
}

// TestPoolBound holds many calls in flight against a slow handler and
// asserts the pool never opens more than MaxConnsPerPeer connections.
func TestPoolBound(t *testing.T) {
	tp := NewTCPTransport()
	tp.MaxConnsPerPeer = 2
	slow := func(req Message) Message {
		time.Sleep(30 * time.Millisecond)
		return echoHandler(req)
	}
	addr, closer, err := tp.Listen("127.0.0.1:0", slow)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := fmt.Sprintf("w%d", w)
			if resp, err := tp.Call(addr, Message{Op: OpPing, Addr: tag}); err != nil {
				t.Errorf("call %s: %v", tag, err)
			} else if resp.Addr != "echo:"+tag {
				t.Errorf("call %s got %q", tag, resp.Addr)
			}
		}(w)
	}
	wg.Wait()
	st := tp.PoolStats()
	if st.Dials > 2 {
		t.Errorf("dials = %d, want <= MaxConnsPerPeer=2", st.Dials)
	}
	if st.Conns > 2 {
		t.Errorf("pooled conns = %d, want <= 2", st.Conns)
	}
}

// TestPoolIdleReap lets a pooled connection go idle past IdleTimeout and
// asserts the reaper closes it (and counts it as a reap, not an
// eviction), after which the next call redials cleanly.
func TestPoolIdleReap(t *testing.T) {
	tp := NewTCPTransport()
	tp.IdleTimeout = 50 * time.Millisecond
	addr, closer, err := tp.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()

	if _, err := tp.Call(addr, Message{Op: OpPing, Addr: "a"}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for tp.PoolStats().IdleReaps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection never reaped: %+v", tp.PoolStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := tp.PoolStats()
	if st.Conns != 0 {
		t.Errorf("pooled conns = %d after reap, want 0", st.Conns)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (an idle reap is not an eviction)", st.Evictions)
	}
	if resp, err := tp.Call(addr, Message{Op: OpPing, Addr: "b"}); err != nil {
		t.Fatalf("call after reap: %v", err)
	} else if resp.Addr != "echo:b" {
		t.Fatalf("call after reap got %q", resp.Addr)
	}
	if got := tp.PoolStats().Dials; got < 2 {
		t.Errorf("dials = %d, want >= 2 (reap must force a redial)", got)
	}
}

// TestPoolDeadPeerEvictsAndRedials kills the server under a pooled
// connection: the next call must fail with an unreachable-style error and
// evict the connection, and once the server restarts ON THE SAME address
// the pool must redial and serve again.
func TestPoolDeadPeerEvictsAndRedials(t *testing.T) {
	tp := NewTCPTransport()
	tp.CallTimeout = 500 * time.Millisecond
	addr, closer, err := tp.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if _, err := tp.Call(addr, Message{Op: OpPing, Addr: "pre"}); err != nil {
		t.Fatalf("pre-kill call: %v", err)
	}

	closer.Close()
	// The pooled conn is now dead; calls must fail (either immediately on
	// the torn-down conn or after a redial refusal), not hang.
	failedDeadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := tp.Call(addr, Message{Op: OpPing, Addr: "down"}); err != nil {
			break
		}
		if time.Now().After(failedDeadline) {
			t.Fatal("calls kept succeeding against a closed server")
		}
	}

	// Same address back up: the pool must recover without intervention.
	if _, closer2, err := tp.Listen(addr, echoHandler); err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	} else {
		defer closer2.Close()
	}
	recoverDeadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := tp.Call(addr, Message{Op: OpPing, Addr: "post"})
		if err == nil && resp.Addr == "echo:post" {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("pool never recovered after server restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if tp.PoolStats().Evictions == 0 {
		t.Errorf("evictions = 0, want > 0 after killing the server under a pooled conn")
	}
}

// TestPooledRingEndToEnd runs a full live ring over the pooled transport
// and checks puts and gets route correctly — the stack above the
// transport (retry, cluster, node) must work unchanged.
func TestPooledRingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP ring")
	}
	tp := NewTCPTransport()
	cluster := NewCluster(NewRetryingTransport(tp, RetryPolicy{}), 7, 1)
	var nodes []*Node
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	var bootstrap string
	for i := 0; i < 4; i++ {
		n, err := Start(Config{
			Transport:         tp,
			Addr:              "127.0.0.1:0",
			StabilizeInterval: 20 * time.Millisecond,
			ReplicationFactor: 1,
		})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes = append(nodes, n)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
		cluster.Track(n.Addr())
	}
	if err := cluster.WaitConverged(20 * time.Second); err != nil {
		t.Fatalf("ring never converged: %v", err)
	}
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("pool-ring-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		entries, _, err := cluster.Get(key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(entries) == 0 || !strings.HasPrefix(entries[0].Value, "v") {
			t.Fatalf("get %d returned %v", i, entries)
		}
	}
	if st := tp.PoolStats(); st.Reuses == 0 {
		t.Errorf("ring traffic produced no connection reuse: %+v", st)
	}
}

// TestPoolWaitHonorsCtxCancel parks a getter on the pool's cond-var wait
// (every slot taken by a dial in progress) and cancels its context: the
// AfterFunc broadcast must wake it so it leaves the queue immediately
// instead of waiting for the dial to land.
func TestPoolWaitHonorsCtxCancel(t *testing.T) {
	tp := NewTCPTransport()
	tp.MaxConnsPerPeer = 1
	p := tp.pool()
	// Simulate a dial in progress holding the only slot, with no
	// established connection to pipeline onto.
	p.mu.Lock()
	p.dialing["peer:1"] = 1
	p.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.get(ctx, "peer:1")
		done <- err
	}()
	// The getter must park, not return: the slot never frees.
	select {
	case err := <-done:
		t.Fatalf("get returned before cancel: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get never returned after cancel: the ctx wakeup was lost")
	}
}

// TestPoolGetExpiredCtx: a caller arriving with an already-spent budget
// is turned away before it can queue for a slot.
func TestPoolGetExpiredCtx(t *testing.T) {
	tp := NewTCPTransport()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tp.pool().get(ctx, "peer:1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
