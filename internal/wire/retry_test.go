package wire

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// scriptedTransport fails the first failures calls to each address, then
// succeeds — the canonical transiently-flaky peer.
type scriptedTransport struct {
	mu       sync.Mutex
	failures int
	calls    map[string]int
}

func newScriptedTransport(failures int) *scriptedTransport {
	return &scriptedTransport{failures: failures, calls: make(map[string]int)}
}

func (s *scriptedTransport) Listen(addr string, handler Handler) (string, io.Closer, error) {
	return addr, io.NopCloser(nil), nil
}

func (s *scriptedTransport) Call(addr string, req Message) (Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[addr]++
	if s.calls[addr] <= s.failures {
		return Message{}, fmt.Errorf("%w: %s (scripted)", ErrUnreachable, addr)
	}
	return Message{Op: req.Op, Ok: true}, nil
}

func (s *scriptedTransport) callCount(addr string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[addr]
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	inner := newScriptedTransport(2)
	rt := NewRetryingTransport(inner, RetryPolicy{Seed: 1})
	resp, err := rt.Call("peer", Message{Op: OpPing})
	if err != nil || !resp.Ok {
		t.Fatalf("call should recover on attempt 3: %+v, %v", resp, err)
	}
	if got := inner.callCount("peer"); got != 3 {
		t.Fatalf("wire sends = %d, want 3 (2 failures + 1 success)", got)
	}
	s := rt.Stats()
	if s.Calls != 1 || s.Attempts != 3 || s.Retries != 2 || s.Recovered != 1 || s.GaveUp != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	inner := newScriptedTransport(100)
	rt := NewRetryingTransport(inner, RetryPolicy{Seed: 1})
	_, err := rt.Call("peer", Message{Op: OpGet})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want the final ErrUnreachable, got %v", err)
	}
	if got := inner.callCount("peer"); got != retryAttempts {
		t.Fatalf("wire sends = %d, want exactly retryAttempts (%d)", got, retryAttempts)
	}
	if s := rt.Stats(); s.GaveUp != 1 || s.Recovered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestRetryNonIdempotentSingleShot: OpRemove flips its answer on repeats,
// so the retry layer must never resend it.
func TestRetryNonIdempotentSingleShot(t *testing.T) {
	inner := newScriptedTransport(100)
	rt := NewRetryingTransport(inner, RetryPolicy{})
	if _, err := rt.Call("peer", Message{Op: OpRemove}); err == nil {
		t.Fatal("scripted failure swallowed")
	}
	if got := inner.callCount("peer"); got != 1 {
		t.Fatalf("OpRemove sent %d times, want 1", got)
	}
	if _, err := rt.Call("peer", Message{Op: OpRemoveReplica}); err == nil {
		t.Fatal("scripted failure swallowed")
	}
	if got := inner.callCount("peer"); got != 2 {
		t.Fatalf("OpRemoveReplica resent: %d total sends, want 2", got)
	}
}

// TestRetryAndAdmissionTablesCoverEveryOp walks every opcode and pins
// the two tables each one must be entered in: how many times the retry
// layer tries it (the idempotent set retryAttempts, the removes whose
// result flips on a repeat once) and the admission class it is
// scheduled in. A new opcode fails here until it is placed in both.
func TestRetryAndAdmissionTablesCoverEveryOp(t *testing.T) {
	const r, once = retryAttempts, 1
	const client, maint = classClient, classMaintenance
	want := map[Op]struct {
		attempts int
		class    admissionClass
	}{
		OpPing:           {r, maint},
		OpFindSuccessor:  {r, client},
		OpGetPredecessor: {r, maint},
		OpGetSuccessor:   {r, maint},
		OpNotify:         {r, maint},
		OpPut:            {r, client},
		OpGet:            {r, client},
		OpRemove:         {once, client},
		OpTransfer:       {r, maint},
		OpStats:          {r, maint},
		OpPutReplica:     {r, client},
		OpRemoveReplica:  {once, client},
		OpRepairSync:     {r, maint},
		OpPutBatch:       {r, client},
		OpRemoveBatch:    {once, client},
		OpMerge:          {once, client},
		OpGetBatch:       {r, client},
	}
	walked := 0
	// Values past the last opcode, and retired ones, name no operation.
	for op := OpPing; op < OpPing+64; op++ {
		if op.String() == "unknown" {
			continue
		}
		walked++
		w, ok := want[op]
		if !ok {
			t.Errorf("%v: new opcode; enter it in retryable and classOf, then here", op)
			continue
		}
		if got := attemptsFor(op); got != w.attempts {
			t.Errorf("%v: %d attempt(s), want %d", op, got, w.attempts)
		}
		if got := classOf(op); got != w.class {
			t.Errorf("%v: admission class %d, want %d", op, got, w.class)
		}
	}
	if walked != len(want) {
		t.Errorf("walked %d opcodes, the table has %d", walked, len(want))
	}
}

func TestRetryBackoffGrowsAndIsCapped(t *testing.T) {
	rt := NewRetryingTransport(newScriptedTransport(0), RetryPolicy{Seed: 3})
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := rt.backoff(attempt)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, d)
		}
		if d > retryMaxDelay {
			t.Fatalf("attempt %d: backoff %v exceeds retryMaxDelay", attempt, d)
		}
		prevMax = max(prevMax, d)
	}
	// Jitter spreads a delay down to half its nominal value, so only a
	// grown delay reaches twice the base.
	if prevMax < 2*retryBaseDelay {
		t.Fatalf("backoff never grew beyond %v despite multiplier %d", prevMax, retryMultiplier)
	}
}

// TestNodeExposesRetryStats: a node started with a retry policy surfaces
// its retry counters (the observability half of the acceptance bar).
func TestNodeExposesRetryStats(t *testing.T) {
	ft := NewFaultTransport(NewMemTransport(), 11)
	policy := RetryPolicy{Seed: 11}
	a, err := Start(Config{Transport: ft.Endpoint(), Addr: "mem:0", Retry: &policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	b, err := Start(Config{Transport: ft.Endpoint(), Addr: "mem:0", Retry: &policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	// Drop every first send on the join path, then let retries through.
	ft.SetDefaultRule(FaultRule{DropProb: 0.5})
	deadline := time.Now().Add(10 * time.Second)
	for b.RetryStats().Retries == 0 {
		_ = b.Join(a.Addr())
		if time.Now().After(deadline) {
			t.Fatal("no retry ever recorded under 50% drop")
		}
	}
	s := b.RetryStats()
	if s.Attempts <= s.Calls {
		t.Fatalf("attempts %d should exceed calls %d once retries fired", s.Attempts, s.Calls)
	}
}

// TestRetryBudgetEarnsStayWithinBurst runs earns from several
// goroutines against spends from another: the bucket never holds more
// than retryBudgetBurst tokens, and once the spends stop the earns fill
// it to exactly the burst.
func TestRetryBudgetEarnsStayWithinBurst(t *testing.T) {
	b := newRetryBudget()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.earn()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			b.spend()
			b.mu.Lock()
			tokens, full := b.tokens, b.full.Load()
			b.mu.Unlock()
			if tokens > retryBudgetBurst || full != (tokens == retryBudgetBurst) {
				t.Errorf("spend %d: %v tokens, full %v", i, tokens, full)
				return
			}
		}
	}()
	wg.Wait()
	for i := 0; i < 10*retryBudgetBurst/retryBudgetRatio; i++ {
		b.earn()
	}
	if b.tokens != retryBudgetBurst || !b.full.Load() {
		t.Fatalf("after the earns: %v tokens, full %v; want %d and full", b.tokens, b.full.Load(), retryBudgetBurst)
	}
}

// TestRetryBudgetSpendAfterFastEarn spends right after an earn that
// found the bucket full and returned without locking: the spend sees
// every token, and the next earn credits the bucket again.
func TestRetryBudgetSpendAfterFastEarn(t *testing.T) {
	b := newRetryBudget()
	b.earn()
	spent := 0
	for b.spend() {
		spent++
	}
	if spent != retryBudgetBurst {
		t.Fatalf("a full bucket gave %d retries after a fast earn, want %d", spent, retryBudgetBurst)
	}
	b.earn()
	if b.tokens != retryBudgetRatio || b.full.Load() {
		t.Fatalf("an earn on an empty bucket left %v tokens, full %v; want %v", b.tokens, b.full.Load(), retryBudgetRatio)
	}
}
