package wire

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// flakyTransport is a scriptable Transport: it fails every Call while
// failing is set and counts the wire sends that actually reach it, so
// tests can prove a fast-fail never touched the network.
type flakyTransport struct {
	mu      sync.Mutex
	failing bool
	calls   int
}

func (f *flakyTransport) Call(addr string, req Message) (Message, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failing {
		return Message{}, errors.New("flaky: down")
	}
	return Message{Op: req.Op, Ok: true}, nil
}

func (f *flakyTransport) Listen(addr string, handler Handler) (string, io.Closer, error) {
	return addr, io.NopCloser(nil), nil
}

func (f *flakyTransport) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

func (f *flakyTransport) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// singleShot is the op the breaker tests call with: the retry layer
// never repeats it, so each logical failure is exactly one transport
// failure.
const singleShot = OpRemove

// probes replays a breaker seed's draws: probes(seed, n)[i] reports
// whether the i-th call through an open circuit is let through as a
// half-open probe before the cooldown has elapsed.
func probes(seed int64, n int) []bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < breakerProbeProb
	}
	return out
}

// seedWithoutProbes returns the smallest seed whose first n draws all
// fast-fail, so that within those calls only the cooldown can half-open
// a circuit.
func seedWithoutProbes(n int) int64 {
	for seed := int64(0); ; seed++ {
		if !slices.Contains(probes(seed, n), true) {
			return seed
		}
	}
}

func TestBreakerTripsAndFastFails(t *testing.T) {
	const seed = 1
	ft := &flakyTransport{failing: true}
	rt := NewRetryingTransport(ft, RetryPolicy{Breaker: &BreakerPolicy{Seed: seed}})

	for i := 0; i < breakerThreshold; i++ {
		if _, err := rt.Call("peer-a", Message{Op: singleShot}); err == nil {
			t.Fatalf("call %d: expected failure", i)
		}
	}
	if got := ft.callCount(); got != breakerThreshold {
		t.Fatalf("wire sends before trip = %d, want %d", got, breakerThreshold)
	}
	if s := rt.BreakerStats(); s.Trips != 1 || s.Open != 1 {
		t.Fatalf("after threshold: stats = %+v, want 1 trip and 1 open circuit", s)
	}

	// Inside the cooldown, a call through the open circuit goes to the
	// wire exactly when the seeded draw makes it a probe (which fails
	// and keeps the circuit open); every other call fails fast with
	// ErrCircuitOpen without a wire send.
	const calls = 40
	var fastFails int64
	for i, probe := range probes(seed, calls) {
		before := ft.callCount()
		_, err := rt.Call("peer-a", Message{Op: singleShot})
		sent := ft.callCount() - before
		switch {
		case probe && (sent != 1 || err == nil || errors.Is(err, ErrCircuitOpen)):
			t.Fatalf("call %d draws a probe: %d wire sends, err %v; want 1 send and a transport error", i, sent, err)
		case !probe && (sent != 0 || !errors.Is(err, ErrCircuitOpen)):
			t.Fatalf("call %d draws no probe: %d wire sends, err %v; want a fast-fail", i, sent, err)
		case !probe:
			fastFails++
		}
	}
	if fastFails == 0 || fastFails == calls {
		t.Fatalf("seed %d draws %d fast-fails in %d calls; the test needs both kinds", seed, fastFails, calls)
	}
	if s := rt.BreakerStats(); s.FastFails != fastFails || s.Probes != calls-fastFails || s.Open != 1 {
		t.Fatalf("stats = %+v, want %d fast-fails, %d probes, the circuit still open", s, fastFails, calls-fastFails)
	}

	// Other peers are unaffected: the breaker is per-peer.
	ft.setFailing(false)
	if _, err := rt.Call("peer-b", Message{Op: singleShot}); err != nil {
		t.Fatalf("healthy peer blocked by another peer's circuit: %v", err)
	}
}

// callUntil calls addr until done accepts a call's outcome, failing the
// test after max calls.
func callUntil(t *testing.T, rt *RetryingTransport, ft *flakyTransport, max int, done func(sent int, err error) bool) error {
	t.Helper()
	for i := 0; i < max; i++ {
		before := ft.callCount()
		_, err := rt.Call("peer-a", Message{Op: singleShot})
		if done(ft.callCount()-before, err) {
			return err
		}
	}
	t.Fatalf("no call in %d met the condition: %+v", max, rt.BreakerStats())
	return nil
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	ft := &flakyTransport{failing: true}
	rt := NewRetryingTransport(ft, RetryPolicy{Breaker: &BreakerPolicy{Seed: 2}})

	for i := 0; i < breakerThreshold; i++ {
		rt.Call("peer-a", Message{Op: singleShot})
	}
	if s := rt.BreakerStats(); s.Open != 1 {
		t.Fatalf("circuit not open after threshold: %+v", s)
	}

	// Still failing: the first probe the seed draws reaches the wire and
	// fails, and the circuit stays open.
	err := callUntil(t, rt, ft, 200, func(sent int, _ error) bool { return sent > 0 })
	if err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe should reach the wire and fail, got %v", err)
	}
	if s := rt.BreakerStats(); s.Open != 1 || s.Probes != 1 {
		t.Fatalf("after failed probe: %+v, want circuit still open with one probe counted", s)
	}

	// Peer heals: the next probe succeeds and closes the circuit.
	ft.setFailing(false)
	callUntil(t, rt, ft, 200, func(_ int, err error) bool { return err == nil })
	s := rt.BreakerStats()
	if s.Open != 0 || s.Closes != 1 {
		t.Fatalf("after healed probe: %+v, want closed circuit", s)
	}
	// And normal traffic flows again without fast-fails.
	fastFails := s.FastFails
	for i := 0; i < 3; i++ {
		if _, err := rt.Call("peer-a", Message{Op: singleShot}); err != nil {
			t.Fatalf("post-close call %d failed: %v", i, err)
		}
	}
	if s := rt.BreakerStats(); s.FastFails != fastFails {
		t.Fatalf("fast-fails grew after close: %+v", s)
	}
}

func TestBreakerCooldownAllowsProbe(t *testing.T) {
	// Neither call through the open circuit draws a probe: the first
	// fast-fails, and only the elapsed cooldown lets the second through.
	ft := &flakyTransport{failing: true}
	rt := NewRetryingTransport(ft, RetryPolicy{Breaker: &BreakerPolicy{Seed: seedWithoutProbes(2)}})
	for i := 0; i < breakerThreshold; i++ {
		rt.Call("peer-a", Message{Op: singleShot})
	}
	if _, err := rt.Call("peer-a", Message{Op: singleShot}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("inside cooldown: err = %v, want ErrCircuitOpen", err)
	}
	ft.setFailing(false)
	time.Sleep(breakerCooldown + 20*time.Millisecond)
	if _, err := rt.Call("peer-a", Message{Op: singleShot}); err != nil {
		t.Fatalf("post-cooldown probe failed: %v", err)
	}
	if s := rt.BreakerStats(); s.Open != 0 || s.Closes != 1 {
		t.Fatalf("circuit did not close after cooldown probe: %+v", s)
	}
}

func TestBreakerIgnoresSpentBudget(t *testing.T) {
	ft := &flakyTransport{failing: true}
	rt := NewRetryingTransport(ft, RetryPolicy{Breaker: &BreakerPolicy{}})
	// Calls that die because the CALLER's budget expired must not count
	// against the peer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2*breakerThreshold; i++ {
		if _, err := rt.CallCtx(ctx, "peer-a", Message{Op: singleShot}); err == nil {
			t.Fatalf("expected ctx error")
		}
	}
	if s := rt.BreakerStats(); s.Trips != 0 || s.Open != 0 {
		t.Fatalf("spent budget tripped the breaker: %+v", s)
	}
}

// callsWithoutLocks reports whether a successful call to addr returns
// while the breaker's and the budget's locks are held elsewhere, that
// is, whether the healthy path takes neither.
func callsWithoutLocks(t *testing.T, rt *RetryingTransport, addr string) bool {
	t.Helper()
	rt.breaker.mu.Lock()
	rt.budget.mu.Lock()
	defer rt.breaker.mu.Unlock()
	defer rt.budget.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := rt.Call(addr, Message{Op: singleShot})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy call: %v", err)
		}
		return true
	case <-time.After(2 * time.Second):
		// Unlocking lets the call finish before the test returns.
		return false
	}
}

// TestBreakerClosedCircuitTakesNoLock opens a circuit under concurrent
// callers, heals the peer so that a probe closes it, and checks that
// the breaker is then back on its lock-free path: no circuit open, no
// peer tracked, and a healthy call completes while the breaker's and
// the budget's locks are held.
func TestBreakerClosedCircuitTakesNoLock(t *testing.T) {
	const callers = 4
	ft := &flakyTransport{}
	rt := NewRetryingTransport(ft, RetryPolicy{Breaker: &BreakerPolicy{Seed: 3}, Budget: &RetryBudget{}})
	if !callsWithoutLocks(t, rt, "peer-a") {
		t.Fatal("a healthy call on a fresh transport took the breaker's or the budget's lock")
	}

	ft.setFailing(true)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*breakerThreshold; i++ {
				rt.Call("peer-a", Message{Op: singleShot})
			}
		}()
	}
	wg.Wait()
	if s := rt.BreakerStats(); s.Trips != 1 || s.Open != 1 || rt.breaker.tracked.Load() != 1 {
		t.Fatalf("after concurrent failures: %+v, %d peers tracked; want one open circuit", s, rt.breaker.tracked.Load())
	}

	ft.setFailing(false)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if _, err := rt.Call("peer-a", Message{Op: singleShot}); err == nil {
					return
				}
			}
			t.Errorf("caller %d: no call got through in 1000", c)
		}(c)
	}
	wg.Wait()
	if s := rt.BreakerStats(); s.Open != 0 || s.Closes != 1 || rt.breaker.tracked.Load() != 0 {
		t.Fatalf("after a probe closed the circuit: %+v, %d peers tracked; want it closed once and nothing tracked",
			s, rt.breaker.tracked.Load())
	}
	if !callsWithoutLocks(t, rt, "peer-a") {
		t.Fatal("a healthy call after the circuit closed took the breaker's or the budget's lock")
	}
}
