package wire

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// startBatchRing boots a converged ring over MemTransport and returns
// its cluster. replication 0 keeps per-node state deterministic for
// exact-count assertions.
func startBatchRing(t *testing.T, n, replication int) (*Cluster, []*Node, Transport) {
	t.Helper()
	mt := NewMemTransport()
	cluster := NewCluster(NewRetryingTransport(mt, RetryPolicy{}), 11, replication)
	var nodes []*Node
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	var bootstrap string
	for i := 0; i < n; i++ {
		nd, err := Start(Config{
			Transport:         mt,
			Addr:              "mem:0",
			StabilizeInterval: 10 * time.Millisecond,
			ReplicationFactor: replication,
		})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes = append(nodes, nd)
		if bootstrap == "" {
			bootstrap = nd.Addr()
		} else if err := nd.Join(bootstrap); err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
		cluster.Track(nd.Addr())
	}
	if err := cluster.WaitConverged(20 * time.Second); err != nil {
		logRingState(t, nodes, nil)
		t.Fatalf("ring never converged: %v", err)
	}
	return cluster, nodes, mt
}

// batchItems builds n distinct (key, entry) items, with every key
// repeated rep times under distinct entries.
func batchItems(prefix string, n, rep int) []overlay.KeyEntry {
	var items []overlay.KeyEntry
	for i := 0; i < n; i++ {
		key := keyspace.NewKey(fmt.Sprintf("%s-%d", prefix, i))
		for r := 0; r < rep; r++ {
			items = append(items, overlay.KeyEntry{
				Key:   key,
				Entry: overlay.Entry{Kind: "index", Value: fmt.Sprintf("v%d-%d", i, r)},
			})
		}
	}
	return items
}

// TestClusterPutBatchRoundTrip batches a mixed put across the ring and
// reads every entry back through routed Gets, then removes the batch and
// verifies the removed count and the empty read-back.
func TestClusterPutBatchRoundTrip(t *testing.T) {
	cluster, _, _ := startBatchRing(t, 5, 0)
	items := batchItems("batch-rt", 12, 2)

	if err := cluster.PutBatch(context.Background(), items); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i := 0; i < 12; i++ {
		key := keyspace.NewKey(fmt.Sprintf("batch-rt-%d", i))
		entries, _, err := cluster.Get(key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(entries) != 2 {
			t.Fatalf("key %d: got %d entries, want 2: %v", i, len(entries), entries)
		}
	}

	// Idempotency: re-putting the same batch must not duplicate entries.
	if err := cluster.PutBatch(context.Background(), items); err != nil {
		t.Fatalf("PutBatch again: %v", err)
	}
	entries, _, err := cluster.Get(keyspace.NewKey("batch-rt-0"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("after re-put: entries=%v err=%v, want exactly 2", entries, err)
	}

	removed, err := cluster.RemoveBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("RemoveBatch: %v", err)
	}
	if removed != len(items) {
		t.Fatalf("removed %d, want %d", removed, len(items))
	}
	for i := 0; i < 12; i++ {
		key := keyspace.NewKey(fmt.Sprintf("batch-rt-%d", i))
		entries, _, err := cluster.Get(key)
		if err != nil {
			t.Fatalf("get after remove %d: %v", i, err)
		}
		if len(entries) != 0 {
			t.Fatalf("key %d still has %v after RemoveBatch", i, entries)
		}
	}
}

// TestClusterPutBatchReplicates runs a replicated ring and verifies a
// batched put settles at the full replica count for every key — the
// OpPutBatch handler must fan the whole KV out to its successor set.
func TestClusterPutBatchReplicates(t *testing.T) {
	const replication = 1
	cluster, _, mt := startBatchRing(t, 4, replication)
	items := batchItems("batch-repl", 8, 1)
	if err := cluster.PutBatch(context.Background(), items); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, it := range items {
		for {
			if got := countCopies(mt, cluster.Addrs(), it.Key); got >= replication+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %v never reached %d copies", it.Key, replication+1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestPutBatchForwardsMisrouted drives a batch through a cluster handle
// whose membership view is maximally stale — it tracks a single ring
// member — so every key's presumed owner is that one node, and the
// node's handler must forward the foreign keys through real Chord
// routing. A fully-informed cluster then reads every key back through
// routed Gets, proving the entries landed at their true owners.
func TestPutBatchForwardsMisrouted(t *testing.T) {
	full, nodes, _ := startBatchRing(t, 5, 0)
	stale := NewCluster(nodes[0].cfg.Transport, 7, 0)
	stale.Track(nodes[0].Addr())

	items := batchItems("batch-fwd", 10, 1)
	if err := stale.PutBatch(context.Background(), items); err != nil {
		t.Fatalf("PutBatch via stale cluster: %v", err)
	}
	for i := 0; i < 10; i++ {
		key := keyspace.NewKey(fmt.Sprintf("batch-fwd-%d", i))
		entries, _, err := full.Get(key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(entries) != 1 {
			t.Fatalf("key %d: got %d entries, want 1 (forwarding lost or duplicated it): %v",
				i, len(entries), entries)
		}
	}

	removed, err := stale.RemoveBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("RemoveBatch via stale cluster: %v", err)
	}
	if removed != len(items) {
		t.Fatalf("removed %d, want %d (forwarded counts must sum)", removed, len(items))
	}
}

// TestPutBatchFallbackOnDeadPresumedOwner tracks a phantom member that
// owns a slice of the ring but answers nothing: groups presumed to it
// must fall back to Chord-routed resolution through the live entry
// points and still land every entry.
func TestPutBatchFallbackOnDeadPresumedOwner(t *testing.T) {
	cluster, _, _ := startBatchRing(t, 4, 0)
	// A tracked address nobody listens on: presumed owner for every key
	// in its arc, unreachable for every call.
	cluster.Track("mem:dead-phantom")
	defer cluster.Untrack("mem:dead-phantom")

	items := batchItems("batch-fb", 16, 1)
	if err := cluster.PutBatch(context.Background(), items); err != nil {
		t.Fatalf("PutBatch with dead presumed owner: %v", err)
	}
	cluster.Untrack("mem:dead-phantom")
	for i := 0; i < 16; i++ {
		key := keyspace.NewKey(fmt.Sprintf("batch-fb-%d", i))
		entries, _, err := cluster.Get(key)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if len(entries) != 1 {
			t.Fatalf("key %d: got %d entries, want 1: %v", i, len(entries), entries)
		}
	}
}

// TestRemoveBatchReportsCount verifies the removed-count plumbing: a
// batch that removes a mix of present and absent entries reports exactly
// the present ones.
func TestRemoveBatchReportsCount(t *testing.T) {
	cluster, _, _ := startBatchRing(t, 3, 0)
	present := batchItems("rm-count", 5, 1)
	if err := cluster.PutBatch(context.Background(), present); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	absent := batchItems("rm-count-missing", 3, 1)
	removed, err := cluster.RemoveBatch(context.Background(), append(present, absent...))
	if err != nil {
		t.Fatalf("RemoveBatch: %v", err)
	}
	if removed != len(present) {
		t.Fatalf("removed = %d, want %d (absent entries must not count)", removed, len(present))
	}
}
