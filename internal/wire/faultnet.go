package wire

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"dhtindex/internal/telemetry"
)

// FaultRule describes the fault mix injected into a class of messages.
// The zero rule injects nothing.
type FaultRule struct {
	// DropProb is the probability a message is lost. A dropped message
	// surfaces to the caller as ErrUnreachable; with probability ½ the
	// request is lost before the handler runs, otherwise the response is
	// lost after it (so the side effect happened — exactly the ambiguity
	// real networks force retry logic to cope with).
	DropProb float64
	// Latency is the extra round-trip delay injected when a latency
	// fault fires, split evenly across the request and response legs.
	Latency time.Duration
	// LatencyProb is the probability Latency is injected. If Latency > 0
	// and LatencyProb == 0, every message is delayed.
	LatencyProb float64
}

func (r FaultRule) active() bool {
	return r.DropProb > 0 || r.Latency > 0
}

// latProb normalizes the "Latency set but LatencyProb zero" shorthand.
func (r FaultRule) latProb() float64 {
	if r.Latency <= 0 {
		return 0
	}
	if r.LatencyProb == 0 {
		return 1
	}
	return r.LatencyProb
}

// FaultStats counts the faults a FaultTransport injected. Every counter
// is observable so a soak run can prove its schedule actually fired.
type FaultStats struct {
	// Calls is the number of messages that entered the fault layer.
	Calls int64
	// DroppedRequests were lost before reaching the handler.
	DroppedRequests int64
	// DroppedResponses were lost after the handler ran.
	DroppedResponses int64
	// Delayed counts messages that had latency injected.
	Delayed int64
	// DelayTotal is the summed injected latency.
	DelayTotal time.Duration
	// PartitionBlocked counts messages refused by an active partition.
	PartitionBlocked int64
	// CrashBlocked counts messages to or from a crashed address.
	CrashBlocked int64
	// PartitionEvents counts partition episodes started (Partition,
	// PartitionOneWay and PartitionGroups calls).
	PartitionEvents int64
	// LinksCut counts directed links newly blocked by partitions.
	LinksCut int64
	// HealEvents counts heal operations (Heal and HealLink calls).
	HealEvents int64
	// LinksHealed counts directed links unblocked by heals.
	LinksHealed int64
}

// link is a directed src→dst edge ("" src means an external client).
type link struct{ from, to string }

// FaultTransport wraps any Transport and injects seeded, deterministic
// faults: message drops, latency, asymmetric partitions and crash-stop
// blackholes, with per-op rule overrides. It is the chaos half of the
// wire layer's failure model; RetryingTransport is the recovery half.
//
// Source attribution: the FaultTransport itself implements Transport
// with an anonymous ("") source, which is all destination-only faults
// need. Partitions need to know who is calling, so each node should
// listen and call through its own Endpoint() view — the view learns its
// address from Listen and stamps outgoing calls with it.
type FaultTransport struct {
	inner Transport

	mu      sync.Mutex
	rng     *rand.Rand
	def     FaultRule
	perOp   map[Op]FaultRule
	crashed map[string]bool
	blocked map[link]bool
	stats   FaultStats
}

// NewFaultTransport wraps inner with a fault layer seeded for
// reproducible fault schedules. No faults are injected until a rule is
// set (SetDefaultRule / SetOpRule / Partition / Crash).
func NewFaultTransport(inner Transport, seed int64) *FaultTransport {
	return &FaultTransport{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		perOp:   make(map[Op]FaultRule),
		crashed: make(map[string]bool),
		blocked: make(map[link]bool),
	}
}

// SetDefaultRule sets the fault mix applied to every message that has no
// per-op rule.
func (f *FaultTransport) SetDefaultRule(r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.def = r
}

// SetOpRule overrides the default rule for one protocol operation.
func (f *FaultTransport) SetOpRule(op Op, r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perOp[op] = r
}

// ClearOpRule removes a per-op override.
func (f *FaultTransport) ClearOpRule(op Op) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.perOp, op)
}

// Partition blocks traffic between a and b in both directions until
// healed.
func (f *FaultTransport) Partition(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.PartitionEvents++
	f.blockLocked(a, b)
	f.blockLocked(b, a)
}

// PartitionOneWay blocks only from→to, modelling an asymmetric fault
// (from's messages vanish; to can still reach from).
func (f *FaultTransport) PartitionOneWay(from, to string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.PartitionEvents++
	f.blockLocked(from, to)
}

// PartitionGroups cuts the network into the given node groups: every
// link between members of two different groups is blocked in both
// directions, while links within a group — and to addresses in no
// group, such as anonymous clients — stay up. This is the true
// split-brain schedule: each side keeps stabilizing into its own ring
// and serving its own clients. Implemented on the same per-link blocked
// set as Partition, so HealLink and Heal apply unchanged.
func (f *FaultTransport) PartitionGroups(sides ...[]string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.PartitionEvents++
	for i := range sides {
		for j := i + 1; j < len(sides); j++ {
			for _, a := range sides[i] {
				for _, b := range sides[j] {
					f.blockLocked(a, b)
					f.blockLocked(b, a)
				}
			}
		}
	}
}

// blockLocked blocks one directed link, counting it only when it was
// not already cut. Callers hold f.mu.
func (f *FaultTransport) blockLocked(from, to string) {
	if !f.blocked[link{from, to}] {
		f.blocked[link{from, to}] = true
		f.stats.LinksCut++
	}
}

// Heal removes every active partition.
func (f *FaultTransport) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.HealEvents++
	f.stats.LinksHealed += int64(len(f.blocked))
	f.blocked = make(map[link]bool)
}

// HealLink restores the single pair a↔b (both directions), leaving
// every other partition in place — the targeted counterpart of Heal for
// schedules that mend a split one link at a time.
func (f *FaultTransport) HealLink(a, b string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.HealEvents++
	for _, l := range []link{{a, b}, {b, a}} {
		if f.blocked[l] {
			delete(f.blocked, l)
			f.stats.LinksHealed++
		}
	}
}

// Crash blackholes an address: every message to or from it is refused
// until Restore. The process behind the address keeps running — this is
// the network's view of a crash-stop, so a test can separate "dead" from
// "merely unreachable".
func (f *FaultTransport) Crash(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed[addr] = true
}

// Restore lifts a Crash.
func (f *FaultTransport) Restore(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.crashed, addr)
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultTransport) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Instrument exports the injected-fault counters on reg via the
// collector pattern: the series read Stats() at snapshot time, so the
// existing mutex-guarded struct needs no restructuring.
func (f *FaultTransport) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("wire_fault_calls_total",
		"Messages that entered the fault layer.",
		func() float64 { return float64(f.Stats().Calls) })
	reg.CounterFunc("wire_fault_dropped_requests_total",
		"Messages lost before reaching the handler.",
		func() float64 { return float64(f.Stats().DroppedRequests) })
	reg.CounterFunc("wire_fault_dropped_responses_total",
		"Messages lost after the handler ran.",
		func() float64 { return float64(f.Stats().DroppedResponses) })
	reg.CounterFunc("wire_fault_delayed_total",
		"Messages that had latency injected.",
		func() float64 { return float64(f.Stats().Delayed) })
	reg.CounterFunc("wire_fault_delay_micros_total",
		"Summed injected latency, in microseconds.",
		func() float64 { return float64(f.Stats().DelayTotal.Microseconds()) })
	reg.CounterFunc("wire_fault_partition_blocked_total",
		"Messages refused by an active partition.",
		func() float64 { return float64(f.Stats().PartitionBlocked) })
	reg.CounterFunc("wire_fault_crash_blocked_total",
		"Messages to or from a crashed address.",
		func() float64 { return float64(f.Stats().CrashBlocked) })
	reg.CounterFunc("wire_partition_events_total",
		"Partition episodes started (Partition/PartitionOneWay/PartitionGroups).",
		func() float64 { return float64(f.Stats().PartitionEvents) })
	reg.CounterFunc("wire_partition_links_cut_total",
		"Directed links newly blocked by partitions.",
		func() float64 { return float64(f.Stats().LinksCut) })
	reg.CounterFunc("wire_partition_heal_events_total",
		"Heal operations applied (Heal/HealLink).",
		func() float64 { return float64(f.Stats().HealEvents) })
	reg.CounterFunc("wire_partition_links_healed_total",
		"Directed links unblocked by heals.",
		func() float64 { return float64(f.Stats().LinksHealed) })
}

// Listen implements Transport (anonymous view).
func (f *FaultTransport) Listen(addr string, handler Handler) (string, io.Closer, error) {
	return f.inner.Listen(addr, handler)
}

// Call implements Transport (anonymous source "").
func (f *FaultTransport) Call(addr string, req Message) (Message, error) {
	return f.call(nil, "", addr, req)
}

// CallCtx passes the caller's context through the fault layer so a
// deadline set above it still reaches a ctx-aware inner transport (e.g.
// the TCP pool's connection wait).
func (f *FaultTransport) CallCtx(ctx context.Context, addr string, req Message) (Message, error) {
	return f.call(ctx, "", addr, req)
}

// Endpoint returns a Transport view that attributes its traffic to the
// address it listens on, enabling partitions. Give each node its own
// endpoint:
//
//	ft := NewFaultTransport(NewMemTransport(), seed)
//	n, _ := Start(Config{Transport: ft.Endpoint(), Addr: "mem:0"})
func (f *FaultTransport) Endpoint() Transport {
	return &faultEndpoint{f: f}
}

type faultEndpoint struct {
	f  *FaultTransport
	mu sync.Mutex
	// local is the first address bound through this endpoint; it becomes
	// the source of every call made through it.
	local string
}

func (e *faultEndpoint) Listen(addr string, handler Handler) (string, io.Closer, error) {
	actual, closer, err := e.f.inner.Listen(addr, handler)
	if err != nil {
		return actual, closer, err
	}
	e.mu.Lock()
	if e.local == "" {
		e.local = actual
	}
	e.mu.Unlock()
	return actual, closer, nil
}

func (e *faultEndpoint) Call(addr string, req Message) (Message, error) {
	e.mu.Lock()
	src := e.local
	e.mu.Unlock()
	return e.f.call(nil, src, addr, req)
}

// CallCtx is Call with the caller's context threaded through to a
// ctx-aware inner transport.
func (e *faultEndpoint) CallCtx(ctx context.Context, addr string, req Message) (Message, error) {
	e.mu.Lock()
	src := e.local
	e.mu.Unlock()
	return e.f.call(ctx, src, addr, req)
}

// verdict is one seeded fault decision, taken under the lock so the
// sequence of decisions is a pure function of the seed and the message
// order.
type verdict struct {
	blocked  error
	dropReq  bool
	dropResp bool
	delay    time.Duration
}

func (f *FaultTransport) decide(src, dst string, op Op) verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Calls++
	if f.crashed[src] || f.crashed[dst] {
		f.stats.CrashBlocked++
		return verdict{blocked: fmt.Errorf("%w: %s (crashed)", ErrUnreachable, dst)}
	}
	if f.blocked[link{src, dst}] {
		f.stats.PartitionBlocked++
		return verdict{blocked: fmt.Errorf("%w: %s (partitioned from %s)", ErrUnreachable, dst, src)}
	}
	rule, ok := f.perOp[op]
	if !ok {
		rule = f.def
	}
	if !rule.active() {
		return verdict{}
	}
	var v verdict
	if rule.DropProb > 0 && f.rng.Float64() < rule.DropProb {
		if f.rng.Float64() < 0.5 {
			v.dropReq = true
			f.stats.DroppedRequests++
		} else {
			v.dropResp = true
			f.stats.DroppedResponses++
		}
	}
	if p := rule.latProb(); p > 0 && f.rng.Float64() < p {
		v.delay = rule.Latency
		f.stats.Delayed++
		f.stats.DelayTotal += rule.Latency
	}
	return v
}

func (f *FaultTransport) call(ctx context.Context, src, dst string, req Message) (Message, error) {
	v := f.decide(src, dst, req.Op)
	if v.blocked != nil {
		return Message{}, v.blocked
	}
	if v.delay > 0 {
		time.Sleep(v.delay / 2)
	}
	if v.dropReq {
		return Message{}, fmt.Errorf("%w: %s (request dropped)", ErrUnreachable, dst)
	}
	var resp Message
	var err error
	if cc, ok := f.inner.(ctxCaller); ok && ctx != nil {
		resp, err = cc.CallCtx(ctx, dst, req)
	} else {
		resp, err = f.inner.Call(dst, req)
	}
	if v.delay > 0 {
		time.Sleep(v.delay - v.delay/2)
	}
	if err != nil {
		return Message{}, err
	}
	if v.dropResp {
		return Message{}, fmt.Errorf("%w: %s (response dropped)", ErrUnreachable, dst)
	}
	return resp, nil
}
