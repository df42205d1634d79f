package wire

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// funcTransport scripts a peer's behaviour per call: fn receives the
// 1-based call number for addr and decides the outcome.
type funcTransport struct {
	mu    sync.Mutex
	calls map[string]int
	fn    func(n int, addr string, req Message) (Message, error)
}

func newFuncTransport(fn func(n int, addr string, req Message) (Message, error)) *funcTransport {
	return &funcTransport{calls: make(map[string]int), fn: fn}
}

func (f *funcTransport) Listen(addr string, handler Handler) (string, io.Closer, error) {
	return addr, io.NopCloser(nil), nil
}

func (f *funcTransport) Call(addr string, req Message) (Message, error) {
	f.mu.Lock()
	f.calls[addr]++
	n := f.calls[addr]
	f.mu.Unlock()
	return f.fn(n, addr, req)
}

func (f *funcTransport) callCount(addr string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[addr]
}

// overloadNACK is what a peer's admission control answers with.
func overloadNACK(req Message) (Message, error) {
	return overloadResponse(req, ShedQueueFull), nil
}

// TestOverloadNACKNotRetried: an overload NACK ends the call on the
// first attempt — retrying into a saturated peer would feed the overload
// the NACK exists to relieve.
func TestOverloadNACKNotRetried(t *testing.T) {
	inner := newFuncTransport(func(n int, addr string, req Message) (Message, error) {
		return overloadNACK(req)
	})
	rt := NewRetryingTransport(inner, RetryPolicy{Seed: 1})
	_, err := rt.Call("hot", Message{Op: OpGet})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	if got := inner.callCount("hot"); got != 1 {
		t.Fatalf("wire sends = %d, want 1 (NACKs are non-retryable)", got)
	}
	s := rt.Stats()
	if s.Overloads != 1 || s.Retries != 0 || s.GaveUp != 0 {
		t.Fatalf("stats = %+v, want Overloads=1 Retries=0 GaveUp=0", s)
	}
}

// TestRetryBudgetCapsRetryStorm: under total peer failure, the token
// bucket bounds retry amplification near 1× instead of retryAttempts×.
func TestRetryBudgetCapsRetryStorm(t *testing.T) {
	inner := newFuncTransport(func(n int, addr string, req Message) (Message, error) {
		return Message{}, fmt.Errorf("%w: %s (down)", ErrUnreachable, addr)
	})
	rt := NewRetryingTransport(inner, RetryPolicy{Seed: 1, Budget: &RetryBudget{}})
	const calls = 200
	for i := 0; i < calls; i++ {
		if _, err := rt.Call("down", Message{Op: OpGet}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d: err = %v, want ErrUnreachable", i, err)
		}
	}
	s := rt.Stats()
	if s.BudgetExhausted == 0 {
		t.Fatalf("stats = %+v, want budget-suppressed retries", s)
	}
	// 10 banked tokens + 0.1 earned per call: at most 10 + 200×0.1 = 30
	// retries against 400 uncapped (200 calls × 2 re-sends each).
	const capped = retryBudgetBurst + calls*retryBudgetRatio
	if s.Retries > capped {
		t.Fatalf("retries = %d, want <= %d (budget must cap the storm)", s.Retries, int(capped))
	}
	if amp := s.Amplification(); amp > 1.2 {
		t.Fatalf("amplification = %.2f, want ~1.0 under exhausted budget", amp)
	}
	if s.GaveUp != calls {
		t.Fatalf("gave up = %d, want %d", s.GaveUp, calls)
	}
}

// TestRetryBudgetRefillsOnFreshTraffic: successful fresh calls earn the
// tokens that let the next isolated failure retry again.
func TestRetryBudgetRefillsOnFreshTraffic(t *testing.T) {
	down := false
	var mu sync.Mutex
	inner := newFuncTransport(func(n int, addr string, req Message) (Message, error) {
		mu.Lock()
		defer mu.Unlock()
		if down {
			return Message{}, fmt.Errorf("%w: %s (down)", ErrUnreachable, addr)
		}
		return Message{Op: req.Op, Ok: true}, nil
	})
	rt := NewRetryingTransport(inner, RetryPolicy{Seed: 1, Budget: &RetryBudget{}})
	// Drain the bucket with failures, then refill it with healthy calls.
	mu.Lock()
	down = true
	mu.Unlock()
	for i := 0; i < retryBudgetBurst; i++ {
		rt.Call("peer", Message{Op: OpGet})
	}
	drained := rt.Stats().BudgetExhausted
	if drained == 0 {
		t.Fatal("bucket never drained")
	}
	mu.Lock()
	down = false
	mu.Unlock()
	// Enough fresh calls to bank a token for each re-send of one call.
	for i := 0; i < retryAttempts/retryBudgetRatio; i++ {
		if _, err := rt.Call("peer", Message{Op: OpGet}); err != nil {
			t.Fatalf("healthy call: %v", err)
		}
	}
	mu.Lock()
	down = true
	mu.Unlock()
	rt.Call("peer", Message{Op: OpGet})
	s := rt.Stats()
	if s.BudgetExhausted != drained {
		t.Fatalf("budget exhausted again (%d -> %d): fresh traffic earned no tokens", drained, s.BudgetExhausted)
	}
	if s.Retries == 0 {
		t.Fatal("no retry after refill: fresh traffic earned no tokens")
	}
}

// TestBreakerTracksOverloadApartFromUnreachable: overload NACKs trip the
// circuit on their own (higher) threshold and their own counter, and a
// connectivity failure resets the overload streak rather than adding to
// it — the two signals mean different things and get different responses.
func TestBreakerTracksOverloadApartFromUnreachable(t *testing.T) {
	shedding := true
	var mu sync.Mutex
	inner := newFuncTransport(func(n int, addr string, req Message) (Message, error) {
		mu.Lock()
		defer mu.Unlock()
		if shedding {
			return overloadNACK(req)
		}
		return Message{}, fmt.Errorf("%w: %s (down)", ErrUnreachable, addr)
	})
	// The first call through the open circuit draws no probe, so it
	// fails fast.
	rt := NewRetryingTransport(inner, RetryPolicy{Breaker: &BreakerPolicy{Seed: seedWithoutProbes(1)}})

	// Sheds one short of the threshold: the circuit stays closed.
	for i := 0; i < breakerOverloadThreshold-1; i++ {
		if _, err := rt.Call("hot", Message{Op: singleShot}); !errors.Is(err, ErrOverload) {
			t.Fatalf("shed %d: err = %v", i, err)
		}
	}
	// A connectivity blip — one failure, far below breakerThreshold —
	// resets the overload streak.
	mu.Lock()
	shedding = false
	mu.Unlock()
	rt.Call("hot", Message{Op: singleShot})
	mu.Lock()
	shedding = true
	mu.Unlock()
	for i := 0; i < breakerOverloadThreshold-1; i++ {
		rt.Call("hot", Message{Op: singleShot})
	}
	if s := rt.BreakerStats(); s.OverloadTrips != 0 || s.Trips != 0 {
		t.Fatalf("stats after reset streak = %+v, want no trips yet", s)
	}
	// One more shed completes a fresh streak: overload trip.
	rt.Call("hot", Message{Op: singleShot})
	s := rt.BreakerStats()
	if s.OverloadTrips != 1 || s.Trips != 0 || s.Open != 1 {
		t.Fatalf("stats = %+v, want OverloadTrips=1 Trips=0 Open=1", s)
	}
	// Open circuit fails fast without touching the wire.
	sends := inner.callCount("hot")
	if _, err := rt.Call("hot", Message{Op: singleShot}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if inner.callCount("hot") != sends {
		t.Fatal("open circuit still sent on the wire")
	}
	if s := rt.BreakerStats(); s.FastFails != 1 {
		t.Fatalf("stats = %+v, want FastFails=1", s)
	}
}

// TestBreakerOverloadRecoveryUnderLoad: a circuit opened by overload
// probes again by breakerOverloadCooldown at the latest, closes on the first
// success, and sustained traffic then flows with no further fast-fails.
func TestBreakerOverloadRecoveryUnderLoad(t *testing.T) {
	shedding := true
	var mu sync.Mutex
	inner := newFuncTransport(func(n int, addr string, req Message) (Message, error) {
		mu.Lock()
		defer mu.Unlock()
		if shedding {
			return overloadNACK(req)
		}
		return Message{Op: req.Op, Ok: true}, nil
	})
	rt := NewRetryingTransport(inner, RetryPolicy{Breaker: &BreakerPolicy{Seed: 1}})
	for i := 0; i < breakerOverloadThreshold; i++ {
		rt.Call("hot", Message{Op: OpGet})
	}
	if s := rt.BreakerStats(); s.OverloadTrips != 1 || s.Open != 1 {
		t.Fatalf("stats = %+v, want the circuit open on overload", s)
	}
	// The peer recovers; a seeded probe, or the overload cooldown at the
	// latest, must get a call through and close the circuit.
	mu.Lock()
	shedding = false
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := rt.Call("hot", Message{Op: OpGet}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit never probed closed: %+v", rt.BreakerStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := rt.BreakerStats()
	if s.Closes != 1 || s.Open != 0 {
		t.Fatalf("stats = %+v, want Closes=1 Open=0", s)
	}
	// Sustained load after recovery: every call flows, no fast-fails.
	fastFails := s.FastFails
	for i := 0; i < 50; i++ {
		if _, err := rt.Call("hot", Message{Op: OpGet}); err != nil {
			t.Fatalf("post-recovery call %d: %v", i, err)
		}
	}
	if s := rt.BreakerStats(); s.FastFails != fastFails {
		t.Fatalf("fast fails grew after recovery: %+v", s)
	}
}

// TestOverloadedSuccessorNotAmputated: a successor that sheds stabilize
// traffic is alive — treating its NACKs as death would amputate the hot
// node, pile its keys onto neighbors, and make the hot spot worse.
func TestOverloadedSuccessorNotAmputated(t *testing.T) {
	transport := NewMemTransport()
	mk := func() *Node {
		n, err := Start(Config{
			Transport:         transport,
			Addr:              "mem:0",
			StabilizeInterval: time.Hour, // drive stabilize by hand
			SuccFailThreshold: 2,
			Retry:             &RetryPolicy{Seed: 1},
			Admission:         &AdmissionConfig{MaxInflight: 1, MaxQueue: 1, QueueTimeout: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		t.Cleanup(n.Stop)
		return n
	}
	a, b := mk(), mk()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	// Converge the two-node ring by hand.
	for i := 0; i < 4; i++ {
		a.stabilizeOnce()
		b.stabilizeOnce()
	}
	if a.Successor() != b.Addr() || b.Successor() != a.Addr() {
		t.Fatalf("ring not converged: a->%s b->%s", a.Successor(), b.Successor())
	}

	// Saturate b's single inflight slot directly, as a long-running
	// client op would, so its admission control sheds a's maintenance
	// traffic.
	b.admit.slots <- struct{}{}

	// Stabilize rounds well past SuccFailThreshold: every contact is
	// shed with ErrOverload, yet b must stay a's successor.
	for i := 0; i < 6; i++ {
		a.stabilizeOnce()
	}
	if b.AdmissionStats().ShedPriority == 0 {
		t.Fatal("b never shed a's stabilize traffic: the scenario did not engage")
	}
	if got := a.Successor(); got != b.Addr() {
		t.Fatalf("a amputated its overloaded successor: successor = %s, want %s", got, b.Addr())
	}

	// Once the hot op drains, stabilize proceeds normally again.
	<-b.admit.slots
	a.stabilizeOnce()
	if got := a.Successor(); got != b.Addr() {
		t.Fatalf("successor after recovery = %s, want %s", got, b.Addr())
	}
}
