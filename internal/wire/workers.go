package wire

import (
	"sync"
	"sync/atomic"
	"time"
)

// workerIdle is how long a worker waits for its next task before it
// exits.
const workerIdle = time.Second

// workers runs request-scoped tasks on warm goroutines (DESIGN.md §30).
// A fresh goroutine starts on a small stack and grows it, by copying,
// every time the request's call chain outgrows it; a worker pays for
// that growth once and then serves request after request on the grown
// stack. run never waits and has no bound: a task may itself hand off
// and wait (a handler replicating to a peer whose handlers wait on this
// node), which a bounded pool would deadlock.
//
// The most recently parked worker takes the next task. Its stack and
// cache lines are the warmest, and the workers a lull leaves unused are
// the ones that reach the idle timeout and exit.
type workers struct {
	idle time.Duration

	mu      sync.Mutex
	parked  []chan func() // idle workers' hand-offs, most recently parked last
	stopped bool

	wg sync.WaitGroup
	// started counts workers ever started and live those running; tests
	// read them.
	started atomic.Int64
	live    atomic.Int64
}

func newWorkers() *workers {
	return &workers{idle: workerIdle}
}

// run hands fn to the most recently parked worker, or starts a new
// worker for it when none is parked.
func (w *workers) run(fn func()) {
	w.mu.Lock()
	if n := len(w.parked); n > 0 {
		hand := w.parked[n-1]
		w.parked[n-1] = nil
		w.parked = w.parked[:n-1]
		w.mu.Unlock()
		hand <- fn // buffered: never blocks
		return
	}
	w.mu.Unlock()
	w.started.Add(1)
	w.live.Add(1)
	w.wg.Add(1)
	go w.work(fn)
}

// work runs fn and then every task handed to it, until it has been
// parked for w.idle or stop is called.
func (w *workers) work(fn func()) {
	defer func() {
		w.live.Add(-1)
		w.wg.Done()
	}()
	hand := make(chan func(), 1)
	idle := time.NewTimer(w.idle)
	defer idle.Stop()
	for ok := true; ok; {
		fn()
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		w.parked = append(w.parked, hand)
		w.mu.Unlock()
		// A tick that fired while fn ran is drained here. One that the
		// drain misses ends this worker's wait early, which is harmless.
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(w.idle)
		select {
		case fn, ok = <-hand:
			continue
		case <-idle.C:
		}
		if w.unpark(hand) {
			return
		}
		// A run took this worker off the stack before the timeout did:
		// its task is in the hand-off, or about to be.
		fn, ok = <-hand
	}
}

// unpark takes hand off the parked stack and reports whether it was
// still there.
func (w *workers) unpark(hand chan func()) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, h := range w.parked {
		if h == hand {
			w.parked = append(w.parked[:i], w.parked[i+1:]...)
			return true
		}
	}
	return false
}

// stop ends the parked workers and waits until every worker has exited,
// busy ones once their task returns. No run may follow or race it.
func (w *workers) stop() {
	w.mu.Lock()
	w.stopped = true
	for _, hand := range w.parked {
		close(hand)
	}
	w.parked = nil
	w.mu.Unlock()
	w.wg.Wait()
}
