package wire

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// occupy fills every inflight slot of a with handlers blocked on the
// returned release function, so subsequent acquires exercise the
// saturated paths. It returns once all slots are held.
func occupy(t *testing.T, a *admission, op Op) (release func(), done *sync.WaitGroup) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, a.cfg.MaxInflight)
	blocked := a.wrap(func(req Message) Message {
		started <- struct{}{}
		<-gate
		return Message{Op: req.Op, Ok: true}
	})
	var wg sync.WaitGroup
	for i := 0; i < a.cfg.MaxInflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocked(Message{Op: op})
		}()
	}
	for i := 0; i < a.cfg.MaxInflight; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("slot holder never started")
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, &wg
}

func TestAdmissionQueueFullShed(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second})
	h := a.wrap(func(req Message) Message { return Message{Op: req.Op, Ok: true} })
	release, holders := occupy(t, a, OpGet)
	defer release()

	// One request may queue; it parks waiting for the slot.
	queuedDone := make(chan Message, 1)
	go func() { queuedDone <- h(Message{Op: OpGet}) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next arrival is shed immediately.
	resp := h(Message{Op: OpGet})
	if resp.Code != CodeOverload {
		t.Fatalf("third request code = %v, want CodeOverload", resp.Code)
	}
	if !strings.Contains(resp.Err, ShedQueueFull) {
		t.Fatalf("shed reason = %q, want %q", resp.Err, ShedQueueFull)
	}
	if s := a.stats(); s.ShedQueueFull != 1 {
		t.Fatalf("stats = %+v, want ShedQueueFull=1", s)
	}

	// Releasing the slot admits the queued request: shedding is load
	// dependent, not sticky.
	release()
	select {
	case resp := <-queuedDone:
		if !resp.Ok || resp.Code == CodeOverload {
			t.Fatalf("queued request after release = %+v, want Ok", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never admitted after release")
	}
	holders.Wait()
	if s := a.stats(); s.Admitted != 2 || s.Waited != 1 {
		t.Fatalf("stats = %+v, want Admitted=2 Waited=1", s)
	}
}

func TestAdmissionQueueTimeoutShed(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	h := a.wrap(func(req Message) Message { return Message{Op: req.Op, Ok: true} })
	release, holders := occupy(t, a, OpGet)
	defer release()

	start := time.Now()
	resp := h(Message{Op: OpGet})
	if resp.Code != CodeOverload || !strings.Contains(resp.Err, ShedQueueTimeout) {
		t.Fatalf("resp = %+v, want queue_timeout shed", resp)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("shed after %v, want >= QueueTimeout", waited)
	}
	if s := a.stats(); s.ShedQueueTimeout != 1 {
		t.Fatalf("stats = %+v, want ShedQueueTimeout=1", s)
	}
	release()
	holders.Wait()
}

func TestAdmissionPriorityShed(t *testing.T) {
	// Maintenance yields to clients: a saturated node sheds maintenance
	// immediately — no queue slot, no wait.
	a := newAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 8, QueueTimeout: 5 * time.Second})
	h := a.wrap(func(req Message) Message { return Message{Op: req.Op, Ok: true} })
	release, holders := occupy(t, a, OpGet)
	defer release()

	start := time.Now()
	resp := h(Message{Op: OpNotify})
	if resp.Code != CodeOverload || !strings.Contains(resp.Err, ShedPriority) {
		t.Fatalf("maintenance on saturated node = %+v, want priority shed", resp)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("priority shed took %v, want immediate", waited)
	}
	if s := a.stats(); s.ShedPriority != 1 {
		t.Fatalf("stats = %+v, want ShedPriority=1", s)
	}
	release()
	holders.Wait()
}

func TestAdmissionDeadlineShedWhenSaturated(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 8, QueueTimeout: 5 * time.Second})
	h := a.wrap(func(req Message) Message { return Message{Op: req.Op, Ok: true} })
	release, holders := occupy(t, a, OpGet)
	defer release()

	// The node has observed ~50ms service times; a request with 10ms of
	// budget left cannot be served in time, so queueing it only delays
	// the answer past the caller's abandonment.
	a.ewmaMicros[classClient].Store(50_000)
	resp := h(Message{Op: OpGet, BudgetMicros: 10_000})
	if resp.Code != CodeOverload || !strings.Contains(resp.Err, ShedDeadline) {
		t.Fatalf("hopeless-deadline request = %+v, want deadline shed", resp)
	}
	if s := a.stats(); s.ShedDeadline != 1 {
		t.Fatalf("stats = %+v, want ShedDeadline=1", s)
	}

	// A request with generous slack queues instead and is served once
	// the slot frees.
	servedDone := make(chan Message, 1)
	go func() { servedDone <- h(Message{Op: OpGet, BudgetMicros: 10_000_000}) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("generous-budget request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	select {
	case resp := <-servedDone:
		if !resp.Ok {
			t.Fatalf("generous-budget request = %+v, want served", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("generous-budget request never served")
	}
	holders.Wait()
}

// TestAdmissionUnsaturatedNeverSheds is the shed-spiral regression guard:
// an idle node must admit even a request whose deadline looks hopeless
// against the EWMA. The estimate is inflated by queue waits and nested
// routing during the last burst, so shedding on it from idle slots turns
// one congestion episode into a self-sustaining spiral.
func TestAdmissionUnsaturatedNeverSheds(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInflight: 2, MaxQueue: 2})
	a.ewmaMicros[classClient].Store(10_000_000) // 10s: absurdly pessimistic
	h := a.wrap(func(req Message) Message { return Message{Op: req.Op, Ok: true} })
	resp := h(Message{Op: OpGet, BudgetMicros: 100})
	if !resp.Ok || resp.Code == CodeOverload {
		t.Fatalf("idle node shed a request: %+v", resp)
	}
	if s := a.stats(); s.Shed() != 0 || s.Admitted != 1 {
		t.Fatalf("stats = %+v, want one admit, zero sheds", s)
	}
}

func TestAdmissionStatsMerge(t *testing.T) {
	a := AdmissionStats{Admitted: 1, Waited: 1, ShedQueueFull: 2, ShedDeadline: 3, Inflight: 1}
	b := AdmissionStats{Admitted: 4, ShedQueueTimeout: 5, ShedPriority: 6, QueueDepth: 2}
	a.Merge(b)
	if a.Admitted != 5 || a.Shed() != 16 || a.Inflight != 1 || a.QueueDepth != 2 {
		t.Fatalf("merged = %+v", a)
	}
}
