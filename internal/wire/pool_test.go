package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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
		logRingState(t, nodes, nil)
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

// TestWaiterReuseMixedEndings runs concurrent callers, each sending a
// unique tag, over waiters that are reused from call to call while calls
// end every way one can: a reply; a ctx cancelled before the call, while
// its request is on the wire, or about when its reply arrives; a call
// timeout on a reply the handler holds back past CallTimeout, or exactly
// to it; and CloseConnections tearing the pool down mid-traffic. A call
// that succeeds must carry its own reply, and one that fails must fail
// for one of those reasons.
func TestWaiterReuseMixedEndings(t *testing.T) {
	const callTimeout = 40 * time.Millisecond
	server := NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", func(req Message) Message {
		switch {
		case strings.HasPrefix(req.Addr, "slow"):
			time.Sleep(2 * callTimeout)
		case strings.HasPrefix(req.Addr, "edge"):
			time.Sleep(callTimeout)
		}
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	tp := NewTCPTransport()
	tp.CallTimeout = callTimeout
	defer tp.CloseConnections()

	stop := make(chan struct{})
	tornDown := make(chan struct{})
	go func() {
		defer close(tornDown)
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
				tp.CloseConnections()
			}
		}
	}()

	const callers, calls = 16, 60
	var ok atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				tag := fmt.Sprintf("c%d-%d", c, i)
				ctx, cancel := context.WithCancel(context.Background())
				switch i % 8 {
				case 1:
					tag = "slow-" + tag
				case 2:
					tag = "edge-" + tag
				case 3:
					cancel()
				case 4: // cancelled while the request is on the wire
					time.AfterFunc(time.Duration(i%4)*20*time.Microsecond, cancel)
				case 5: // cancelled about when the reply arrives
					time.AfterFunc(time.Duration(i%4)*100*time.Microsecond, cancel)
				}
				resp, err := tp.CallCtx(ctx, addr, Message{Op: OpPing, Addr: tag})
				cancel()
				switch {
				case err == nil:
					if resp.Addr != "echo:"+tag {
						errs <- fmt.Errorf("call %s got the reply for %q", tag, resp.Addr)
						return
					}
					ok.Add(1)
				case errors.Is(err, ErrUnreachable), errors.Is(err, context.Canceled):
					if i%8 == 3 && !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("call %s with a cancelled ctx: %v", tag, err)
						return
					}
				default:
					errs <- fmt.Errorf("call %s: %v", tag, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-tornDown
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ok.Load() == 0 {
		t.Fatal("no call succeeded")
	}
	if n := tp.PoolStats().InFlight; n != 0 {
		t.Errorf("%d calls still in flight after every caller returned", n)
	}
	// No waiter the pool hands out may hold a reply.
	for range callers {
		w := waiterPool.Get().(*waiter)
		select {
		case r := <-w.ch:
			t.Fatalf("a pooled waiter holds a reply: %+v", r)
		default:
		}
	}
}

// TestCallAfterTimeout: a call that times out gives its waiter back, and
// the next call, on the same goroutine and so most likely on the same
// waiter, succeeds instead of timing out on what the first left behind.
func TestCallAfterTimeout(t *testing.T) {
	const callTimeout = 50 * time.Millisecond
	server := NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", func(req Message) Message {
		if strings.HasPrefix(req.Addr, "slow") {
			time.Sleep(callTimeout + callTimeout/2)
		}
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	tp := NewTCPTransport()
	tp.CallTimeout = callTimeout
	defer tp.CloseConnections()
	for i := range 10 {
		if _, err := tp.Call(addr, Message{Op: OpPing, Addr: fmt.Sprintf("slow-%d", i)}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("round %d: a reply held past the call timeout: %v, want %v", i, err, ErrUnreachable)
		}
		tag := fmt.Sprintf("fast-%d", i)
		resp, err := tp.Call(addr, Message{Op: OpPing, Addr: tag})
		if err != nil || resp.Addr != "echo:"+tag {
			t.Fatalf("round %d: the call after a timeout: %+v, %v", i, resp, err)
		}
	}
}

// TestWaiterDropsFiredTimer: a call whose reply beat a timer that had
// already fired leaves the tick unreceived; under go 1.22's asynchronous
// timer channels it may even land after Stop returns. disarm must not
// block, and the next call on the waiter must not see that tick.
func TestWaiterDropsFiredTimer(t *testing.T) {
	w := waiterPool.New().(*waiter)
	for _, received := range []bool{false, true} {
		w.timer.Reset(time.Millisecond)
		time.Sleep(20 * time.Millisecond) // the tick fires
		if received {
			<-w.timer.C
		}
		done := make(chan struct{})
		go func() {
			w.disarm()
			close(done)
		}()
		waitDone(t, done, 5*time.Second, fmt.Sprintf("disarm (tick received %v)", received))
		go func() {
			time.Sleep(20 * time.Millisecond)
			w.ch <- poolResult{msg: Message{Ok: true}}
		}()
		r, err := w.await(context.Background(), time.Hour)
		if err != nil || !r.msg.Ok {
			t.Fatalf("the call after a fired timer (tick received %v): %+v, %v; want the reply", received, r, err)
		}
	}
}

// TestReleaseTakesCommittedSend: a caller leaving early whose request the
// reader already took must receive the reply deliver is committed to
// sending before its waiter is reused, or a later call would find it.
func TestReleaseTakesCommittedSend(t *testing.T) {
	pc := &persistConn{pending: make(map[uint64]*waiter)}
	w := waiterPool.New().(*waiter)
	id, ok := pc.register(w)
	if !ok {
		t.Fatal("register on a live connection failed")
	}
	pc.deliver(id, &Message{Addr: "late"})
	pc.release(id, w)
	select {
	case r := <-w.ch:
		t.Fatalf("a released waiter still holds %+v", r)
	default:
	}
	if n := pc.inflight.Load(); n != 0 {
		t.Fatalf("in-flight %d after deliver and release, want 0", n)
	}
}
