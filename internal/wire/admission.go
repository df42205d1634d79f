package wire

import (
	"fmt"
	"sync/atomic"
	"time"

	"dhtindex/internal/telemetry"
)

// AdmissionConfig bounds the work a node accepts. A node with admission
// control sheds excess requests with a typed, non-retryable overload NACK
// (ErrOverload on the caller side) instead of queueing without bound: under
// sustained overload the queue would only add latency until every request
// times out — the classic collapse this layer exists to prevent.
//
// Three shedding mechanisms compose:
//
//   - Concurrency bound: at most MaxInflight requests execute at once; at
//     most MaxQueue more wait at most QueueTimeout for a slot.
//   - Deadline-aware shedding: once the node is saturated, a queued
//     request whose remaining deadline budget (Message.BudgetMicros,
//     stamped by the retry layer) cannot cover the observed per-class
//     service time is NACKed instead of waiting — a slot it wins would
//     only produce an answer the caller has already abandoned. The check
//     engages only past saturation: on an unsaturated node the estimate
//     (inflated by queue waits during the last burst) would shed healthy
//     traffic from idle slots.
//   - Priority classes: when all slots are busy, maintenance RPCs (ping,
//     notify, stabilize queries, repair, transfers) are shed immediately
//     instead of queueing, so they never starve the client operations
//     the node exists to serve.
type AdmissionConfig struct {
	// MaxInflight is the maximum number of concurrently executing
	// requests (default 64).
	MaxInflight int
	// MaxQueue is the maximum number of requests waiting for an inflight
	// slot (default 128). Arrivals beyond it are shed with reason
	// "queue_full".
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before being shed with reason "queue_timeout" (default 250ms).
	QueueTimeout time.Duration
}

// ewmaAlpha weights the exponentially-weighted moving average of
// per-class service time used for deadline-aware shedding, in (0, 1].
// Higher values track load shifts faster.
const ewmaAlpha = 0.2

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 250 * time.Millisecond
	}
	return c
}

// Shed reasons reported in AdmissionStats and the wire_shed_total metric.
const (
	// ShedQueueFull: the pending queue was at MaxQueue.
	ShedQueueFull = "queue_full"
	// ShedQueueTimeout: a queued request waited out QueueTimeout.
	ShedQueueTimeout = "queue_timeout"
	// ShedDeadline: the request's remaining budget could not cover the
	// observed service time.
	ShedDeadline = "deadline"
	// ShedPriority: all slots busy and the request was maintenance.
	ShedPriority = "priority"
)

// admissionClass partitions ops for priority scheduling.
type admissionClass int

const (
	classClient admissionClass = iota
	classMaintenance
	numClasses
)

// classOf assigns each op to a priority class. Maintenance covers the
// background protocol traffic a node generates on its own schedule;
// everything a client waits on — single-key operations and the three
// batch opcodes, OpGetBatch included — is classClient.
func classOf(op Op) admissionClass {
	switch op {
	case OpPing, OpNotify, OpGetPredecessor, OpGetSuccessor, OpRepairSync, OpTransfer, OpStats:
		return classMaintenance
	default:
		return classClient
	}
}

// admission is the per-node admission controller. It wraps the node's
// handler: requests acquire an inflight slot (possibly waiting, bounded)
// or are NACKed with CodeOverload.
type admission struct {
	cfg   AdmissionConfig
	slots chan struct{}
	queue atomic.Int64

	admitted atomic.Int64
	waited   atomic.Int64
	sheds    [numShedReasons]atomic.Int64

	// ewmaMicros[class] is the moving average service time, in
	// microseconds, used for deadline-aware shedding. 0 = no samples yet.
	ewmaMicros [numClasses]atomic.Int64

	shedCounters [numShedReasons]*telemetry.Counter
}

// shed reason indices for the counter array.
const (
	shedIdxQueueFull = iota
	shedIdxQueueTimeout
	shedIdxDeadline
	shedIdxPriority
	numShedReasons
)

var shedReasonNames = [numShedReasons]string{
	ShedQueueFull, ShedQueueTimeout, ShedDeadline, ShedPriority,
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.withDefaults()
	a := &admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInflight),
	}
	for i, reason := range shedReasonNames {
		a.shedCounters[i] = telemetry.NewCounter("wire_shed_total",
			"Requests shed by admission control, by reason.",
			telemetry.L("reason", reason))
	}
	return a
}

// wrap returns a Handler that applies admission control before inner.
func (a *admission) wrap(inner Handler) Handler {
	return func(req Message) Message {
		reason, ok := a.acquire(req)
		if !ok {
			return overloadResponse(req, reason)
		}
		start := time.Now()
		resp := inner(req)
		a.release(classOf(req.Op), time.Since(start))
		return resp
	}
}

// acquire claims an inflight slot or reports the shed reason.
func (a *admission) acquire(req Message) (reason string, ok bool) {
	class := classOf(req.Op)

	// Fast path: a free slot. An unsaturated node never sheds — even a
	// request whose deadline looks hopeless only wastes a slot nobody
	// else wanted, whereas shedding it on an EWMA estimate (inflated by
	// queue waits and nested routing during the last burst) turns one
	// congestion episode into a self-sustaining shed spiral.
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		return "", true
	default:
	}

	// Saturated. Maintenance never queues: shedding it immediately keeps
	// the whole queue budget for client operations.
	if class == classMaintenance {
		a.shed(shedIdxPriority)
		return ShedPriority, false
	}

	if a.queue.Add(1) > int64(a.cfg.MaxQueue) {
		a.queue.Add(-1)
		a.shed(shedIdxQueueFull)
		return ShedQueueFull, false
	}
	defer a.queue.Add(-1)

	// Bound the wait by both the queue timeout and, when the caller sent
	// a budget, the slack it has left after the expected service time.
	wait := a.cfg.QueueTimeout
	expect := a.ewmaMicros[class].Load()
	if req.BudgetMicros > 0 {
		slack := time.Duration(req.BudgetMicros-expect) * time.Microsecond
		if slack <= 0 {
			a.shed(shedIdxDeadline)
			return ShedDeadline, false
		}
		if slack < wait {
			wait = slack
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.waited.Add(1)
		return "", true
	case <-timer.C:
		a.shed(shedIdxQueueTimeout)
		return ShedQueueTimeout, false
	}
}

// release frees the slot and folds the service time into the class EWMA.
func (a *admission) release(class admissionClass, took time.Duration) {
	<-a.slots
	sample := took.Microseconds()
	if sample < 1 {
		sample = 1
	}
	for {
		old := a.ewmaMicros[class].Load()
		next := sample
		if old > 0 {
			next = old + int64(ewmaAlpha*float64(sample-old))
		}
		if a.ewmaMicros[class].CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *admission) shed(idx int) {
	a.sheds[idx].Add(1)
	a.shedCounters[idx].Inc()
}

// overloadResponse builds the typed NACK for a shed request.
func overloadResponse(req Message, reason string) Message {
	return Message{
		Op:   req.Op,
		Code: CodeOverload,
		Err:  fmt.Sprintf("admission shed (%s)", reason),
	}
}

// instrument attaches the shed counters and load gauges to reg.
func (a *admission) instrument(reg *telemetry.Registry) {
	for _, c := range a.shedCounters {
		reg.Attach(c)
	}
	reg.CounterFunc("wire_admitted_total",
		"Requests admitted past admission control.",
		func() float64 { return float64(a.admitted.Load()) })
	reg.GaugeFunc("wire_inflight",
		"Requests currently executing on the node.",
		func() float64 { return float64(len(a.slots)) })
	reg.GaugeFunc("wire_queue_depth",
		"Requests waiting for an inflight slot.",
		func() float64 { return float64(a.queue.Load()) })
}

// AdmissionStats is a point-in-time snapshot of a node's admission
// controller.
type AdmissionStats struct {
	// Admitted counts requests that acquired a slot.
	Admitted int64
	// Waited counts admitted requests that had to queue first.
	Waited int64
	// ShedQueueFull counts sheds with reason "queue_full".
	ShedQueueFull int64
	// ShedQueueTimeout counts sheds with reason "queue_timeout".
	ShedQueueTimeout int64
	// ShedDeadline counts sheds with reason "deadline".
	ShedDeadline int64
	// ShedPriority counts sheds with reason "priority".
	ShedPriority int64
	// Inflight is the number of requests executing right now.
	Inflight int
	// QueueDepth is the number of requests waiting right now.
	QueueDepth int
}

// Shed returns the total sheds across all reasons.
func (s AdmissionStats) Shed() int64 {
	return s.ShedQueueFull + s.ShedQueueTimeout + s.ShedDeadline + s.ShedPriority
}

// Merge accumulates another snapshot into s (for fleet-wide totals). The
// point-in-time gauges (Inflight, QueueDepth) sum across nodes.
func (s *AdmissionStats) Merge(o AdmissionStats) {
	s.Admitted += o.Admitted
	s.Waited += o.Waited
	s.ShedQueueFull += o.ShedQueueFull
	s.ShedQueueTimeout += o.ShedQueueTimeout
	s.ShedDeadline += o.ShedDeadline
	s.ShedPriority += o.ShedPriority
	s.Inflight += o.Inflight
	s.QueueDepth += o.QueueDepth
}

func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		Admitted:         a.admitted.Load(),
		Waited:           a.waited.Load(),
		ShedQueueFull:    a.sheds[shedIdxQueueFull].Load(),
		ShedQueueTimeout: a.sheds[shedIdxQueueTimeout].Load(),
		ShedDeadline:     a.sheds[shedIdxDeadline].Load(),
		ShedPriority:     a.sheds[shedIdxPriority].Load(),
		Inflight:         len(a.slots),
		QueueDepth:       int(a.queue.Load()),
	}
}
