package wire

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/telemetry"
)

// The retry stack's constants: how many times an idempotent operation
// is attempted and how the backoff between attempts grows.
const (
	// retryAttempts is the total number of tries per idempotent call;
	// every other op is tried once.
	retryAttempts = 3
	// retryBaseDelay is the backoff before the first retry.
	retryBaseDelay = 5 * time.Millisecond
	// retryMaxDelay caps the grown backoff.
	retryMaxDelay = 250 * time.Millisecond
	// retryMultiplier grows the backoff per attempt.
	retryMultiplier = 2
	// retryJitter randomizes each backoff by ±retryJitter/2 of its value.
	// Jitter decorrelates retry storms.
	retryJitter = 0.5
	// retryBudgetRatio is the number of tokens a fresh logical call earns:
	// retries are capped at ~10% of fresh traffic.
	retryBudgetRatio = 0.1
	// retryBudgetBurst caps the bucket, bounding how many retries a quiet
	// period can bank for the next failure burst.
	retryBudgetBurst = 10
)

// RetryPolicy switches on the RPC retry stack and its two optional
// guards. The zero value retries idempotent ops with jittered
// exponential backoff.
type RetryPolicy struct {
	// Seed makes the jitter sequence reproducible.
	Seed int64
	// Breaker, when non-nil, enables the per-peer circuit breaker: a
	// peer whose calls keep failing gets further calls refused with
	// ErrCircuitOpen (fail fast) until a half-open probe succeeds. Nil
	// keeps the PR 1 retry behaviour byte-for-byte.
	Breaker *BreakerPolicy
	// Budget, when non-nil, enables the retry budget: a token bucket in
	// which every fresh logical call earns retryBudgetRatio tokens and
	// every retry spends one, capping retry traffic at roughly that
	// fraction of the fresh traffic. Under widespread failure, uncapped
	// retries multiply offered load by retryAttempts exactly when
	// capacity is scarcest — the retry-storm feedback loop the budget
	// breaks. Nil keeps retries uncapped.
	Budget *RetryBudget
}

// RetryBudget switches on the retry token bucket: its presence in a
// RetryPolicy is the whole setting.
type RetryBudget struct{}

// retryBudget is the live token bucket behind a RetryBudget.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	// full says tokens == retryBudgetBurst. It is stored under mu
	// whenever tokens changes, so that earn on a full bucket, the
	// healthy path, returns without taking mu.
	full atomic.Bool
}

func newRetryBudget() *retryBudget {
	// Start full: the first failures after startup may retry.
	b := &retryBudget{tokens: retryBudgetBurst}
	b.full.Store(true)
	return b
}

// earn credits a fresh logical call.
func (b *retryBudget) earn() {
	if b.full.Load() {
		return
	}
	b.mu.Lock()
	b.tokens = min(b.tokens+retryBudgetRatio, retryBudgetBurst)
	b.full.Store(b.tokens == retryBudgetBurst)
	b.mu.Unlock()
}

// spend takes one token for a retry, reporting whether one was available.
func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	b.full.Store(false)
	return true
}

// retryable holds the ops that are safe to repeat: pure reads,
// and writes whose handlers deduplicate (Put/PutReplica/Transfer add an
// entry only once; Notify recomputes the same predecessor decision).
// OpRemove and OpRemoveReplica are excluded — their Ok result flips on a
// repeat, so the caller would misreport "not found".
var retryable = map[Op]bool{
	OpPing:           true,
	OpFindSuccessor:  true,
	OpGetPredecessor: true,
	OpGetSuccessor:   true,
	OpNotify:         true,
	OpPut:            true,
	OpGet:            true,
	OpTransfer:       true,
	OpStats:          true,
	OpPutReplica:     true,
	OpRepairSync:     true,
	// OpPutBatch is a batch of idempotent puts: retrying after a NACK or
	// a lost ack re-applies entries the store deduplicates, so partial
	// application converges. OpRemoveBatch is excluded for the same
	// reason as OpRemove: its Ok/count result flips on a repeat.
	OpPutBatch: true,
	// OpGetBatch is a pure read of the keys the receiver owns.
	OpGetBatch: true,
}

// attemptsFor is how many times op may be tried: retryAttempts for the
// idempotent set, once for everything else.
func attemptsFor(op Op) int {
	if retryable[op] {
		return retryAttempts
	}
	return 1
}

// RetryStats is a point-in-time snapshot of the retry layer's work,
// making recovery observable: Attempts/Calls is the retry amplification
// a fault schedule induced. Snapshots are plain values; the live
// counters behind them are atomic (see RetryingTransport.Stats), so
// reading a snapshot while the node is live is race-free.
type RetryStats struct {
	// Calls is the number of logical RPCs issued.
	Calls int64
	// Attempts is the number of wire sends, including first tries.
	Attempts int64
	// Retries is the number of re-sends after a transport error.
	Retries int64
	// Recovered counts calls that failed at least once and then
	// succeeded on a retry.
	Recovered int64
	// GaveUp counts calls that exhausted every attempt.
	GaveUp int64
	// BudgetExhausted counts retries suppressed because the retry budget
	// had no token — the call failed without further attempts.
	BudgetExhausted int64
	// Overloads counts calls NACKed by the peer's admission control
	// (ErrOverload). Overload NACKs are never retried against the same
	// peer, so each also ends its call.
	Overloads int64
}

// Merge accumulates another snapshot into s (for fleet-wide totals).
func (s *RetryStats) Merge(o RetryStats) {
	s.Calls += o.Calls
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Recovered += o.Recovered
	s.GaveUp += o.GaveUp
	s.BudgetExhausted += o.BudgetExhausted
	s.Overloads += o.Overloads
}

// Amplification is wire sends per logical call (1.0 = no retries).
func (s RetryStats) Amplification() float64 {
	if s.Calls == 0 {
		return 1
	}
	return float64(s.Attempts) / float64(s.Calls)
}

// RetryingTransport wraps a Transport with the retry/backoff policy:
// transport-level failures of idempotent operations are retried with
// exponential backoff and jitter, while non-idempotent ops and remote
// application errors pass straight through. It composes with
// FaultTransport (retry outside, faults inside) to model a lossy network
// being survived.
type RetryingTransport struct {
	inner   Transport
	breaker *breakerSet
	budget  *retryBudget

	mu  sync.Mutex
	rng *rand.Rand

	calls           *telemetry.Counter
	attempts        *telemetry.Counter
	retries         *telemetry.Counter
	recovered       *telemetry.Counter
	gaveUp          *telemetry.Counter
	budgetExhausted *telemetry.Counter
	overloads       *telemetry.Counter
}

// NewRetryingTransport wraps inner with policy.
func NewRetryingTransport(inner Transport, policy RetryPolicy) *RetryingTransport {
	t := &RetryingTransport{
		inner:     inner,
		rng:       rand.New(rand.NewSource(policy.Seed)),
		calls:     telemetry.NewCounter("wire_retry_calls_total", "Logical RPCs issued through the retry layer."),
		attempts:  telemetry.NewCounter("wire_retry_attempts_total", "Wire sends, including first tries."),
		retries:   telemetry.NewCounter("wire_retry_resends_total", "Re-sends after a transport error."),
		recovered: telemetry.NewCounter("wire_retry_recovered_total", "Calls that failed at least once then succeeded on a retry."),
		gaveUp:    telemetry.NewCounter("wire_retry_gave_up_total", "Calls that exhausted every attempt."),
		budgetExhausted: telemetry.NewCounter("wire_retry_budget_exhausted_total",
			"Retries suppressed because the retry budget had no token."),
		overloads: telemetry.NewCounter("wire_retry_overloads_total",
			"Calls NACKed by peer admission control (never retried)."),
	}
	if policy.Breaker != nil {
		t.breaker = newBreakerSet(*policy.Breaker)
	}
	if policy.Budget != nil {
		t.budget = newRetryBudget()
	}
	return t
}

// Listen implements Transport (pass-through: retries apply to calls).
func (t *RetryingTransport) Listen(addr string, handler Handler) (string, io.Closer, error) {
	return t.inner.Listen(addr, handler)
}

// inProcess implements inProcessTransport: the retry layer adds no
// network of its own, so the inner transport decides.
func (t *RetryingTransport) inProcess() bool { return deliversInProcess(t.inner) }

// Stats returns a snapshot of the retry counters. The counters are
// atomic, so this is safe to call while the transport is live.
func (t *RetryingTransport) Stats() RetryStats {
	return RetryStats{
		Calls:           t.calls.Value(),
		Attempts:        t.attempts.Value(),
		Retries:         t.retries.Value(),
		Recovered:       t.recovered.Value(),
		GaveUp:          t.gaveUp.Value(),
		BudgetExhausted: t.budgetExhausted.Value(),
		Overloads:       t.overloads.Value(),
	}
}

// BreakerStats returns a snapshot of the circuit-breaker counters, or a
// zero snapshot when no breaker policy is configured.
func (t *RetryingTransport) BreakerStats() BreakerStats {
	if t.breaker == nil {
		return BreakerStats{}
	}
	return t.breaker.stats()
}

// Instrument attaches the transport's retry counters to reg. Several
// transports may attach to the same registry: the snapshot then reports
// fleet-wide sums while each transport keeps its per-instance Stats.
func (t *RetryingTransport) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Attach(t.calls, t.attempts, t.retries, t.recovered, t.gaveUp, t.budgetExhausted, t.overloads)
	if t.breaker != nil {
		t.breaker.instrument(reg)
	}
}

// Call implements Transport.
func (t *RetryingTransport) Call(addr string, req Message) (Message, error) {
	return t.CallCtx(context.Background(), addr, req)
}

// CallCtx is Call with a deadline budget: retries stop once ctx is done,
// so a multi-hop lookup stops burning backoff time on a dead peer when
// its caller's budget has run out. The in-flight wire send itself is not
// interrupted (transports are synchronous); only further retries are.
func (t *RetryingTransport) CallCtx(ctx context.Context, addr string, req Message) (Message, error) {
	if t.breaker != nil && !t.breaker.allow(addr) {
		return Message{}, ErrCircuitOpen
	}
	attempts := attemptsFor(req.Op)
	t.calls.Inc()
	if t.budget != nil {
		t.budget.earn()
	}
	innerCtx, hasCtx := t.inner.(ctxCaller)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		// Stamp the remaining deadline budget onto the request so the
		// peer's admission control can shed work the caller would discard
		// anyway. Re-stamped per attempt — backoff eats into the budget.
		if deadline, ok := ctx.Deadline(); ok {
			req.BudgetMicros = time.Until(deadline).Microseconds()
		}
		t.attempts.Inc()
		var resp Message
		var err error
		if hasCtx {
			resp, err = innerCtx.CallCtx(ctx, addr, req)
		} else {
			resp, err = t.inner.Call(addr, req)
		}
		if err == nil && resp.Code == CodeOverload {
			// The peer shed the request: it is alive but saturated.
			// Retrying against it would feed the overload, so the NACK
			// ends this call (the caller's replica failover may divert
			// elsewhere). The breaker tracks the overload streak apart
			// from connectivity failures.
			t.overloads.Inc()
			if t.breaker != nil {
				t.breaker.onOverload(addr)
			}
			return resp, remoteError(resp)
		}
		if err == nil {
			if attempt > 1 {
				t.recovered.Inc()
			}
			if t.breaker != nil {
				t.breaker.onResult(addr, nil)
			}
			return resp, nil
		}
		lastErr = err
		if attempt >= attempts {
			break
		}
		if t.budget != nil && !t.budget.spend() {
			t.budgetExhausted.Inc()
			break
		}
		t.retries.Inc()
		if !sleepCtx(ctx, t.backoff(attempt)) {
			lastErr = ctx.Err()
			break
		}
	}
	if attempts > 1 {
		t.gaveUp.Inc()
	}
	// A spent caller budget is not the peer's fault: only transport
	// failures feed the breaker.
	if t.breaker != nil && ctx.Err() == nil {
		t.breaker.onResult(addr, lastErr)
	}
	return Message{}, lastErr
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoff computes the jittered exponential delay before retry number
// attempt (1-based).
func (t *RetryingTransport) backoff(attempt int) time.Duration {
	d := float64(retryBaseDelay)
	for i := 1; i < attempt; i++ {
		d *= retryMultiplier
		if d >= float64(retryMaxDelay) {
			d = float64(retryMaxDelay)
			break
		}
	}
	t.mu.Lock()
	r := t.rng.Float64()
	t.mu.Unlock()
	// Spread over [1-J/2, 1+J/2] of the nominal delay.
	d *= 1 - retryJitter/2 + retryJitter*r
	return time.Duration(min(d, float64(retryMaxDelay)))
}
