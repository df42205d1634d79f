package wire_test

// The cluster's fan-out helper (DESIGN.md §40) on both of its paths:
// in turn on the caller over a transport that delivers in process, on
// the cluster's workers over one whose calls wait on a network.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// fanOutPath is a cluster over a transport that selects one path.
type fanOutPath struct {
	name      string
	inProcess bool
	cluster   *wire.Cluster
}

// fanOutPaths are clusters over the transports that select each path.
// None has members: the tests hand the helper tasks of their own.
func fanOutPaths() []fanOutPath {
	mem := wire.NewMemTransport()
	return []fanOutPath{
		{"in-process", true, wire.NewCluster(mem, 1, 0)},
		{"in-process-retrying", true, wire.NewCluster(wire.NewRetryingTransport(mem, wire.RetryPolicy{}), 1, 0)},
		{"workers-fault", false, wire.NewCluster(wire.NewFaultTransport(mem, 1), 1, 0)},
		{"workers-retrying-fault", false, wire.NewCluster(wire.NewRetryingTransport(wire.NewFaultTransport(mem, 1), wire.RetryPolicy{}), 1, 0)},
	}
}

// TestFanOutAttemptsEveryTask: a task's error stops none of the others,
// and the error returned is the first by index, on either path.
func TestFanOutAttemptsEveryTask(t *testing.T) {
	for _, p := range fanOutPaths() {
		t.Run(p.name, func(t *testing.T) {
			const n = 7
			var ran [n]atomic.Int32
			errs := [n]error{2: errors.New("task 2"), 5: errors.New("task 5")}
			err := p.cluster.FanOut(n, 2, func(i int) error {
				ran[i].Add(1)
				return errs[i]
			})
			if err != errs[2] {
				t.Fatalf("FanOut returned %v, want %v", err, errs[2])
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("task %d ran %d times, want once", i, got)
				}
			}
			if err := p.cluster.FanOut(0, 2, func(int) error { return errors.New("never") }); err != nil {
				t.Fatalf("no tasks: %v", err)
			}
		})
	}
}

// TestFanOutPathFollowsTransport: the in-process path runs its tasks one
// at a time and starts no worker; the network path runs them at once,
// up to parallel, on workers.
func TestFanOutPathFollowsTransport(t *testing.T) {
	for _, p := range fanOutPaths() {
		t.Run(p.name, func(t *testing.T) {
			var running, peak atomic.Int32
			const n, parallel = 6, 3
			_ = p.cluster.FanOut(n, parallel, func(int) error {
				now := running.Add(1)
				for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
				}
				// On the network path, hold each task until parallel of them
				// have run at once, so the peak does not depend on timing.
				for deadline := time.Now().Add(5 * time.Second); !p.inProcess && peak.Load() < parallel && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				running.Add(-1)
				return nil
			})
			if p.inProcess {
				if got := peak.Load(); got != 1 {
					t.Fatalf("%d tasks ran at once, want 1", got)
				}
				if got := p.cluster.WorkersStarted(); got != 0 {
					t.Fatalf("in-process fan-out started %d workers, want 0", got)
				}
				return
			}
			if got := peak.Load(); got != parallel {
				t.Fatalf("%d tasks ran at once, want %d", got, parallel)
			}
			if got := p.cluster.WorkersStarted(); got == 0 {
				t.Fatal("network fan-out started no worker")
			}
		})
	}
}

// TestInProcessBatchesStartNoWorker: a MemTransport ring's batched
// writes, reads and removes touch every owner without handing a group
// to a worker.
func TestInProcessBatchesStartNoWorker(t *testing.T) {
	mt := wire.NewMemTransport()
	cluster := wire.NewCluster(wire.NewRetryingTransport(mt, wire.RetryPolicy{}), 1, 1)
	nodes := startFanOutRing(t, mt, cluster, 6)
	items, keys := spreadItems(t, cluster, "in-process", len(nodes))
	ctx := context.Background()
	if err := cluster.PutBatch(ctx, items); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, r := range cluster.GetBatch(ctx, keys, nil, 8) {
		if r.Err != nil || len(r.Entries) != 1 {
			t.Fatalf("key %d: %v %v", i, r.Entries, r.Err)
		}
	}
	if _, err := cluster.RemoveBatch(ctx, items); err != nil {
		t.Fatalf("RemoveBatch: %v", err)
	}
	if got := cluster.WorkersStarted(); got != 0 {
		t.Fatalf("in-process batches started %d workers, want 0", got)
	}
}

// TestNetworkGroupsOverlap: over a FaultTransport that delays every
// call by a fixed latency, a GetBatch whose keys fall on k owners takes
// less than twice one call, not k calls.
func TestNetworkGroupsOverlap(t *testing.T) {
	const latency = 150 * time.Millisecond
	mt := wire.NewMemTransport()
	ft := wire.NewFaultTransport(mt, 3)
	cluster := wire.NewCluster(ft, 1, 0)
	nodes := startFanOutRing(t, mt, cluster, 6)
	_, keys := spreadItems(t, cluster, "overlap", len(nodes))
	ft.SetDefaultRule(wire.FaultRule{Latency: latency})
	start := time.Now()
	for i, r := range cluster.GetBatch(context.Background(), keys, nil, 8) {
		if r.Err != nil {
			t.Fatalf("key %d: %v", i, r.Err)
		}
	}
	if took := time.Since(start); took >= 2*latency {
		t.Fatalf("%d owner groups took %v, want under %v", len(nodes), took, 2*latency)
	}
}

// startFanOutRing boots n nodes on mt, tracked by cluster, and waits
// for the ring to converge.
func startFanOutRing(t *testing.T, mt *wire.MemTransport, cluster *wire.Cluster, n int) []*wire.Node {
	t.Helper()
	var nodes []*wire.Node
	for i := 0; i < n; i++ {
		nd, err := wire.Start(wire.Config{Transport: mt, Addr: "mem:0", StabilizeInterval: 10 * time.Millisecond, ReplicationFactor: 1})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		t.Cleanup(nd.Stop)
		if i > 0 {
			if err := nd.Join(nodes[0].Addr()); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
		cluster.Track(nd.Addr())
		nodes = append(nodes, nd)
	}
	if err := cluster.WaitConverged(20 * time.Second); err != nil {
		wire.LogRingState(t, nodes, nil)
		t.Fatalf("ring never converged: %v", err)
	}
	return nodes
}

// spreadItems returns one item per member of cluster, each keyed into
// that member's arc, so a batch of them is one group per owner.
func spreadItems(t *testing.T, cluster *wire.Cluster, prefix string, owners int) ([]overlay.KeyEntry, []keyspace.Key) {
	t.Helper()
	var items []overlay.KeyEntry
	var keys []keyspace.Key
	seen := make(map[string]bool)
	for i := 0; len(seen) < owners; i++ {
		if i == 10000 {
			t.Fatalf("%d keys reach only %d of %d owners", i, len(seen), owners)
		}
		key := keyspace.NewKey(fmt.Sprintf("%s-%d", prefix, i))
		route, err := cluster.FindOwner(key)
		if err != nil {
			t.Fatalf("find owner: %v", err)
		}
		if seen[route.Node] {
			continue
		}
		seen[route.Node] = true
		items = append(items, overlay.KeyEntry{Key: key, Entry: overlay.Entry{Kind: "d", Value: prefix}})
		keys = append(keys, key)
	}
	return items, keys
}
