package wire

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/telemetry"
)

// The circuit breaker's constants.
const (
	// breakerThreshold is the number of consecutive failed calls that
	// opens a peer's circuit.
	breakerThreshold = 5
	// breakerProbeProb is the probability an open circuit lets a
	// half-open probe through. Probes are driven by the policy's seeded
	// RNG, so fault schedules stay reproducible.
	breakerProbeProb = 0.125
	// breakerCooldown is the open duration after which a probe is always
	// allowed, bounding how long a recovered peer waits for the dice.
	breakerCooldown = 500 * time.Millisecond
	// breakerOverloadThreshold is the number of consecutive ErrOverload
	// NACKs that opens the circuit. Overload is tracked separately from
	// connectivity failure: an overloaded peer is alive and making
	// progress, so it takes far more sheds — and a shorter open period —
	// before the caller backs off from it entirely.
	breakerOverloadThreshold = 3 * breakerThreshold
	// breakerOverloadCooldown is the open duration used for circuits
	// opened by overload. Overload typically clears in milliseconds once
	// callers divert, so probing resumes sooner than after a crash.
	breakerOverloadCooldown = breakerCooldown / 4
)

// BreakerPolicy switches on the per-peer circuit breaker in the retry
// layer. A peer whose calls fail breakerThreshold times in a row has its
// circuit opened: further calls to it fail fast with ErrCircuitOpen
// instead of re-spending the full retry budget on every hop through a
// dead node. While open, seeded half-open probes (probability
// breakerProbeProb per call, and always once breakerCooldown has elapsed
// since the circuit opened or last probed) let a recovered peer close
// its circuit again.
type BreakerPolicy struct {
	// Seed makes the probe sequence reproducible.
	Seed int64
}

// BreakerStats is a point-in-time snapshot of the breaker layer's work.
// The live counters behind it are atomic, so snapshots are race-free.
type BreakerStats struct {
	// Trips counts circuits opened (consecutive failures hit
	// breakerThreshold).
	Trips int64
	// OverloadTrips counts circuits opened by consecutive ErrOverload
	// NACKs hitting breakerOverloadThreshold (tracked apart from Trips:
	// the peer was alive, just saturated).
	OverloadTrips int64
	// FastFails counts calls refused without touching the wire because
	// the peer's circuit was open.
	FastFails int64
	// Probes counts half-open probe calls let through an open circuit.
	Probes int64
	// Closes counts circuits closed again by a successful probe.
	Closes int64
	// Open is the number of circuits currently open.
	Open int64
}

// Merge accumulates another snapshot into s (for fleet-wide totals).
func (s *BreakerStats) Merge(o BreakerStats) {
	s.Trips += o.Trips
	s.OverloadTrips += o.OverloadTrips
	s.FastFails += o.FastFails
	s.Probes += o.Probes
	s.Closes += o.Closes
	s.Open += o.Open
}

// breakerState tracks one peer's circuit.
type breakerState struct {
	fails      int  // consecutive failures while closed
	overloads  int  // consecutive overload NACKs while closed
	open       bool // circuit open: fail fast, probe occasionally
	byOverload bool // opened by overload → shorter cooldown
	lastOpen   time.Time
}

// breakerSet is the per-transport collection of peer circuits.
type breakerSet struct {
	mu    sync.Mutex
	rng   *rand.Rand
	peers map[string]*breakerState
	// tracked is len(peers), stored under mu whenever peers changes. While
	// it reads 0 no peer has breaker state, so allow and a success's
	// onResult return without taking mu: the healthy path shares no lock.
	tracked atomic.Int64

	trips         *telemetry.Counter
	overloadTrips *telemetry.Counter
	fastFails     *telemetry.Counter
	probes        *telemetry.Counter
	closes        *telemetry.Counter
}

func newBreakerSet(policy BreakerPolicy) *breakerSet {
	return &breakerSet{
		rng:   rand.New(rand.NewSource(policy.Seed)),
		peers: make(map[string]*breakerState),
		trips: telemetry.NewCounter("wire_breaker_trips_total",
			"Peer circuits opened after consecutive call failures."),
		overloadTrips: telemetry.NewCounter("wire_breaker_overload_trips_total",
			"Peer circuits opened after consecutive overload NACKs."),
		fastFails: telemetry.NewCounter("wire_breaker_fast_fails_total",
			"Calls refused without a wire send because the peer's circuit was open."),
		probes: telemetry.NewCounter("wire_breaker_probes_total",
			"Half-open probe calls let through an open circuit."),
		closes: telemetry.NewCounter("wire_breaker_closes_total",
			"Circuits closed again by a successful probe."),
	}
}

// allow reports whether a call to addr may proceed. A false return means
// the circuit is open and no probe was drawn — the caller must fail fast.
func (b *breakerSet) allow(addr string) bool {
	if b.tracked.Load() == 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.peers[addr]
	if st == nil || !st.open {
		return true
	}
	cooldown := breakerCooldown
	if st.byOverload {
		cooldown = breakerOverloadCooldown
	}
	if b.rng.Float64() < breakerProbeProb || time.Since(st.lastOpen) >= cooldown {
		st.lastOpen = time.Now() // space cooldown-driven probes apart
		b.probes.Inc()
		return true
	}
	b.fastFails.Inc()
	return false
}

// onResult records a completed call's outcome (after retries) for addr.
func (b *breakerSet) onResult(addr string, err error) {
	if err == nil && b.tracked.Load() == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if st := b.peers[addr]; st != nil {
			if st.open {
				b.closes.Inc()
			}
			delete(b.peers, addr)
			b.tracked.Store(int64(len(b.peers)))
		}
		return
	}
	st := b.state(addr)
	st.overloads = 0 // a connectivity failure ends any overload streak
	if st.open {
		st.lastOpen = time.Now()
		st.byOverload = false // failed probe: treat as a real outage now
		return
	}
	st.fails++
	if st.fails >= breakerThreshold {
		st.open = true
		st.lastOpen = time.Now()
		b.trips.Inc()
	}
}

// state returns addr's breaker state, creating it if addr has none. The
// caller holds mu.
func (b *breakerSet) state(addr string) *breakerState {
	st := b.peers[addr]
	if st == nil {
		st = &breakerState{}
		b.peers[addr] = st
		b.tracked.Store(int64(len(b.peers)))
	}
	return st
}

// onOverload records an overload NACK from addr. Overload streaks are
// tracked apart from connectivity failures: they need a (much higher)
// breakerOverloadThreshold to open the circuit, and the opened circuit
// uses the shorter breakerOverloadCooldown, because a saturated peer
// recovers as soon as load diverts — unlike a crashed one.
func (b *breakerSet) onOverload(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state(addr)
	st.fails = 0 // the peer answered: it is reachable
	if st.open {
		st.lastOpen = time.Now()
		return
	}
	st.overloads++
	if st.overloads >= breakerOverloadThreshold {
		st.open = true
		st.byOverload = true
		st.lastOpen = time.Now()
		b.overloadTrips.Inc()
	}
}

// openCount returns the number of circuits currently open.
func (b *breakerSet) openCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, st := range b.peers {
		if st.open {
			n++
		}
	}
	return n
}

// stats returns a snapshot of the breaker counters.
func (b *breakerSet) stats() BreakerStats {
	return BreakerStats{
		Trips:         b.trips.Value(),
		OverloadTrips: b.overloadTrips.Value(),
		FastFails:     b.fastFails.Value(),
		Probes:        b.probes.Value(),
		Closes:        b.closes.Value(),
		Open:          b.openCount(),
	}
}

// instrument attaches the breaker counters and the open-circuit gauge to
// reg. Several breaker sets (one per node) may attach to one registry;
// the snapshot then reports fleet-wide sums.
func (b *breakerSet) instrument(reg *telemetry.Registry) {
	reg.Attach(b.trips, b.overloadTrips, b.fastFails, b.probes, b.closes)
	reg.GaugeFunc("wire_breaker_open",
		"Peer circuits currently open (fleet-wide when several nodes attach).",
		func() float64 { return float64(b.openCount()) })
}
