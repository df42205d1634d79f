package wire

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// waitFor fails t unless cond holds within d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s not within %v", what, d)
		}
	}
}

// waitDone fails t unless ch is closed within d.
func waitDone(t *testing.T, ch <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(d):
		t.Fatalf("%s not within %v", what, d)
	}
}

// parkedWorkers is how many of w's workers wait for a task.
func parkedWorkers(w *workers) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.parked)
}

// TestWorkersReuseOneWorker runs tasks one after another, each once the
// previous task's worker has parked again: only one worker ever starts.
func TestWorkersReuseOneWorker(t *testing.T) {
	w := newWorkers()
	defer w.stop()
	for i := 0; i < 100; i++ {
		done := make(chan struct{})
		w.run(func() { close(done) })
		waitDone(t, done, 5*time.Second, "task")
		waitFor(t, 5*time.Second, "worker parked", func() bool { return parkedWorkers(w) == 1 })
	}
	if got := w.started.Load(); got != 1 {
		t.Fatalf("%d workers started for sequential tasks, want 1", got)
	}
}

// TestWorkersLastParkedTakesNext parks two workers and runs one task:
// the worker that parked last takes it, and the first one stays parked
// (and is the one a lull would let exit).
func TestWorkersLastParkedTakesNext(t *testing.T) {
	w := newWorkers()
	defer w.stop()
	releases := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var running sync.WaitGroup
	running.Add(2)
	for _, release := range releases {
		w.run(func() { running.Done(); <-release })
	}
	running.Wait()
	close(releases[0])
	waitFor(t, 5*time.Second, "first worker parked", func() bool { return parkedWorkers(w) == 1 })
	w.mu.Lock()
	first := w.parked[0]
	w.mu.Unlock()
	close(releases[1])
	waitFor(t, 5*time.Second, "second worker parked", func() bool { return parkedWorkers(w) == 2 })
	done := make(chan struct{})
	w.run(func() { close(done) })
	waitDone(t, done, 5*time.Second, "task")
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.parked) == 0 || w.parked[0] != first {
		t.Fatal("the first-parked worker took the task; want the last-parked one")
	}
}

// TestWorkersNestedRun runs a task that hands a second task to the same
// pool and waits for it. A pool bounded at one worker would deadlock.
func TestWorkersNestedRun(t *testing.T) {
	w := newWorkers()
	defer w.stop()
	done := make(chan struct{})
	w.run(func() {
		inner := make(chan struct{})
		w.run(func() { close(inner) })
		<-inner
		close(done)
	})
	waitDone(t, done, 5*time.Second, "outer task")
	if got := w.started.Load(); got != 2 {
		t.Fatalf("%d workers started, want 2", got)
	}
}

// TestWorkersConcurrentBlockedTasks runs n tasks that all block until
// every one of them has started: each needs its own worker.
func TestWorkersConcurrentBlockedTasks(t *testing.T) {
	const n = 64
	w := newWorkers()
	defer w.stop()
	var started sync.WaitGroup
	started.Add(n)
	release := make(chan struct{})
	var finished sync.WaitGroup
	finished.Add(n)
	for i := 0; i < n; i++ {
		w.run(func() {
			defer finished.Done()
			started.Done()
			<-release
		})
	}
	allStarted := make(chan struct{})
	go func() { started.Wait(); close(allStarted) }()
	waitDone(t, allStarted, 5*time.Second, "every blocked task running")
	close(release)
	allFinished := make(chan struct{})
	go func() { finished.Wait(); close(allFinished) }()
	waitDone(t, allFinished, 5*time.Second, "every task finished")
	if got := w.started.Load(); got != n {
		t.Fatalf("%d workers started for %d concurrently blocked tasks", got, n)
	}
}

// TestWorkersIdleExit checks that workers left without tasks exit on
// their own, without stop, and that the pool starts new ones after.
func TestWorkersIdleExit(t *testing.T) {
	w := newWorkers()
	w.idle = 20 * time.Millisecond
	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(3)
	for i := 0; i < 3; i++ {
		w.run(func() { running.Done(); <-release })
	}
	running.Wait()
	close(release)
	waitFor(t, 5*time.Second, "idle workers exiting", func() bool { return w.live.Load() == 0 })
	if n := parkedWorkers(w); n != 0 {
		t.Fatalf("%d exited workers still parked", n)
	}
	done := make(chan struct{})
	w.run(func() { close(done) })
	waitDone(t, done, 5*time.Second, "task after the idle exit")
	if got := w.started.Load(); got != 4 {
		t.Fatalf("%d workers started, want 4", got)
	}
	w.stop()
	if got := w.live.Load(); got != 0 {
		t.Fatalf("%d workers running after stop", got)
	}
}

// TestStopNodeEndsServerWorkers stops a node of a TCP ring that has
// served requests: its server's workers must all have exited when Stop
// returns, not a worker idle period later.
func TestStopNodeEndsServerWorkers(t *testing.T) {
	transport := NewTCPTransport()
	cluster := NewCluster(transport, 1, 1)
	var nodes []*Node
	for i := 0; i < 3; i++ {
		n, err := Start(Config{Transport: transport, Addr: "127.0.0.1:0", ReplicationFactor: 1})
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		if i > 0 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(15 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("worker-doc-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "data", Value: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	srv := nodes[1].listener.(*tcpServer)
	if srv.workers.started.Load() == 0 {
		t.Fatal("the node's server never ran a request")
	}
	nodes[1].Stop()
	if got := srv.workers.live.Load(); got != 0 {
		t.Fatalf("%d server workers still running after Stop", got)
	}
}
