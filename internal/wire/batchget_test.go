package wire

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// opCounts tallies logged requests by opcode.
func opCounts(sent []sentRequest) map[Op]int {
	counts := make(map[Op]int)
	for _, s := range sent {
		counts[s.req.Op]++
	}
	return counts
}

// storedKeys puts one entry under each of n seeded keys and returns the
// keys with the entry each holds.
func storedKeys(t *testing.T, c *Cluster, prefix string, n int) ([]keyspace.Key, map[keyspace.Key]overlay.Entry) {
	t.Helper()
	items := batchItems(prefix, n, 1)
	if err := c.PutBatch(context.Background(), items); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	keys := make([]keyspace.Key, n)
	want := make(map[keyspace.Key]overlay.Entry, n)
	for i, it := range items {
		keys[i], want[it.Key] = it.Key, it.Entry
	}
	return keys, want
}

// TestGetBatchOneRPCPerOwner: over a converged, fully tracked ring a
// batched read of stored keys, never-written keys and repeated keys
// costs exactly one OpGetBatch per owning node and nothing else; every
// position carries what a single Get returns for its key, a repeat
// carries its first occurrence's answer, and a key that holds nothing
// is ANSWERED empty by its owner rather than left to the single-key
// path.
func TestGetBatchOneRPCPerOwner(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 5, 0)
	rec := &recordingTransport{Transport: mt}
	cluster := NewCluster(rec, 3, 0)
	cluster.Instrument(telemetry.NewRegistry())
	for _, n := range nodes {
		cluster.Track(n.Addr())
	}
	stored, want := storedKeys(t, full, "get-batch", 24)
	keys := append([]keyspace.Key(nil), stored...)
	for i := 0; i < 6; i++ {
		keys = append(keys, keyspace.NewKey(fmt.Sprintf("get-batch-never-written-%d", i)))
	}
	distinct := len(keys)
	keys = append(keys, stored[0], stored[7], keys[distinct-1]) // repeats
	owners := make(map[string]bool)
	for _, k := range keys {
		route, err := full.FindOwner(k)
		if err != nil {
			t.Fatal(err)
		}
		owners[route.Node] = true
	}

	got := cluster.GetBatch(context.Background(), keys, nil, 8)

	sent := rec.take()
	if counts := opCounts(sent); len(sent) != len(owners) || counts[OpGetBatch] != len(owners) {
		t.Fatalf("sent %v, want exactly %d OpGetBatch (one per owner)", counts, len(owners))
	}
	if len(got) != len(keys) {
		t.Fatalf("%d results for %d keys", len(got), len(keys))
	}
	for i, k := range keys {
		entries, route, err := full.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		r := got[i]
		if r.Err != nil || r.Route != route || !reflect.DeepEqual(r.Entries, entries) {
			t.Fatalf("position %d: batch = %+v, single get = %v via %+v", i, r, entries, route)
		}
		if e, ok := want[k]; ok != (len(r.Entries) == 1) || (ok && r.Entries[0] != e) {
			t.Fatalf("position %d: entries %v, want %v (stored: %v)", i, r.Entries, e, ok)
		}
	}
	if rpcs, carried := cluster.batchGetRPCs.Value(), cluster.batchGetKeys.Value(); rpcs != int64(len(owners)) || carried != int64(distinct) {
		t.Fatalf("wire_batch_get_rpcs_total = %d, wire_batch_get_keys_total = %d; want %d and %d", rpcs, carried, len(owners), distinct)
	}
	if h := cluster.hops.Load(); h.Count() != int64(distinct) || h.Sum() != 0 {
		t.Fatalf("dht_lookup_hops: %d observations summing to %v, want %d of 0 hops", h.Count(), h.Sum(), distinct)
	}

	if got := cluster.GetBatch(context.Background(), nil, nil, 8); len(got) != 0 || len(rec.take()) != 0 {
		t.Fatalf("an empty batch returned %v or sent something", got)
	}
	empty := NewCluster(mt, 1, 0)
	for _, r := range empty.GetBatch(context.Background(), keys[:2], nil, 8) {
		if !errors.Is(r.Err, errNoMembers) {
			t.Fatalf("a memberless cluster answered %+v", r)
		}
	}
}

// TestGetBatchStaleView: a node that joined the ring but was never
// Tracked owns some of the keys. Its presumed owner answers only what
// it owns; the keys it leaves out come back through the single-key
// path — forwarded to the true owner, with the right entries — and the
// rest of the batch is untouched.
func TestGetBatchStaleView(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 5, 1)
	untracked := nodes[4]
	rec := &recordingTransport{Transport: mt}
	stale := NewCluster(rec, 3, 1)
	for _, n := range nodes[:4] {
		stale.Track(n.Addr())
	}
	keys, want := storedKeys(t, full, "stale-batch", 40)
	foreign := 0
	for _, k := range keys {
		if route, err := full.FindOwner(k); err != nil {
			t.Fatal(err)
		} else if route.Node == untracked.Addr() {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("no key landed on the untracked node; the test needs another prefix")
	}
	before := totalForwards(nodes)

	got := stale.GetBatch(context.Background(), keys, nil, 8)

	for i, k := range keys {
		route, _ := full.FindOwner(k)
		r := got[i]
		if r.Err != nil || len(r.Entries) != 1 || r.Entries[0] != want[k] || r.Route.Node != route.Node {
			t.Fatalf("key %d: %+v, want %v from %s", i, r, want[k], route.Node)
		}
		if wantHops := route.Node == untracked.Addr(); (r.Route.Hops > 0) != wantHops {
			t.Fatalf("key %d owned by %s came back with %d hops", i, route.Node, r.Route.Hops)
		}
	}
	if counts := opCounts(rec.take()); counts[OpGet] != foreign || counts[OpGetBatch] > 4 || counts[OpFindSuccessor] != 0 {
		t.Fatalf("sent %v, want ≤ 4 OpGetBatch, %d single gets for the disclaimed keys and no routing", counts, foreign)
	}
	if moved := totalForwards(nodes) - before; moved != int64(foreign) {
		t.Fatalf("wire_owner_forwards_total moved by %d, want %d", moved, foreign)
	}
}

// TestGetBatchCrashedOwner crash-stops an owner under FaultTransport.
// Its keys fail over exactly as single Gets do — at replication 1 the
// replica serves them — while the other owners' groups are served as
// usual; and when every node that could hold a copy is down (at
// replication 0 the owner and the one slot of migration slack behind
// it) the keys report an error, never an empty success.
func TestGetBatchCrashedOwner(t *testing.T) {
	for _, replication := range []int{1, 0} {
		t.Run(fmt.Sprintf("replication-%d", replication), func(t *testing.T) {
			ft := NewFaultTransport(NewMemTransport(), 7)
			ring, _ := startRingCfg(t, ft.Endpoint, 6, Config{
				StabilizeInterval: 10 * time.Millisecond,
				ReplicationFactor: replication,
			})
			cluster := NewCluster(NewRetryingTransport(ft, RetryPolicy{}), 5, replication)
			for _, addr := range ring.Addrs() {
				cluster.Track(addr)
			}
			keys, want := storedKeys(t, cluster, "crashed-owner", 36)
			owner := cluster.replicaFollowers(keys[0], "", 1)[0]
			down := map[string]bool{owner: true}
			if replication == 0 {
				down[cluster.replicaFollowers(keys[0], owner, 1)[0]] = true
			}
			for addr := range down {
				ft.Crash(addr)
			}

			got := cluster.GetBatch(context.Background(), keys, nil, 8)

			lost := 0
			for i, k := range keys {
				r := got[i]
				switch holder := cluster.replicaFollowers(k, "", 1)[0]; {
				case replication == 1 || !down[holder]:
					// A node holding the key is up: the entry is served.
					if r.Err != nil || len(r.Entries) != 1 || r.Entries[0] != want[k] || down[r.Route.Node] {
						t.Fatalf("key %d owned by %s: %+v, want %v", i, holder, r, want[k])
					}
				case holder == owner:
					lost++
					if r.Err == nil {
						t.Fatalf("key %d: every node that could hold it is down, yet the read succeeded with %v via %+v", i, r.Entries, r.Route)
					}
				}
				entries, _, err := cluster.GetCtx(context.Background(), k)
				if (err == nil) != (r.Err == nil) || !reflect.DeepEqual(entries, r.Entries) {
					t.Fatalf("key %d: batch %+v disagrees with the single get %v, %v", i, r, entries, err)
				}
			}
			if replication == 0 && lost == 0 {
				t.Fatal("the crashed owner held none of the keys; the test needs another prefix")
			}
			if replication == 1 && cluster.Metrics().FailoverReads+cluster.ownerFallbacks.Value() == 0 {
				t.Fatal("no read took the failover or the routed path")
			}
		})
	}
}

// shedding NACKs every request to one address the way admission control
// does, and passes the rest through.
type shedding struct {
	Transport
	addr string
}

func (s shedding) Call(addr string, req Message) (Message, error) {
	if addr == s.addr {
		return overloadNACK(req)
	}
	return s.Transport.Call(addr, req)
}

// TestGetBatchOverloadedOwner: an owner that sheds the batch is alive.
// It is asked exactly once — not once more per key — and not routed
// around; its keys are read from the replica, like a single Get's.
func TestGetBatchOverloadedOwner(t *testing.T) {
	full, _, mt := startBatchRing(t, 5, 1)
	keys, want := storedKeys(t, full, "overloaded-owner", 30)
	hot := full.replicaFollowers(keys[0], "", 1)[0]
	rec := &recordingTransport{Transport: shedding{mt, hot}}
	cluster := NewCluster(rec, 3, 1)
	for _, addr := range full.Addrs() {
		cluster.Track(addr)
	}

	got := cluster.GetBatch(context.Background(), keys, nil, 8)

	shed := 0
	for i, k := range keys {
		r := got[i]
		if r.Err != nil || len(r.Entries) != 1 || r.Entries[0] != want[k] || r.Route.Node == hot {
			t.Fatalf("key %d: %+v, want %v from a node other than %s", i, r, want[k], hot)
		}
		if cluster.replicaFollowers(k, "", 1)[0] == hot {
			shed++
		}
	}
	sent := rec.take()
	toHot := 0
	for _, s := range sent {
		if s.addr == hot {
			toHot++
		}
	}
	if counts := opCounts(sent); toHot != 1 || counts[OpFindSuccessor] != 0 || counts[OpGet] != shed {
		t.Fatalf("%d requests reached the overloaded owner, sent %v; want 1, no routing and %d replica reads", toHot, counts, shed)
	}
	if m := cluster.Metrics(); m.FailoverReads != int64(shed) || cluster.ownerFallbacks.Value() != 0 {
		t.Fatalf("failover reads %d, owner fallbacks %d; want %d and 0", m.FailoverReads, cluster.ownerFallbacks.Value(), shed)
	}

	// With the replicas shedding too there is no copy to read: the keys
	// fail with the overload, they do not read as empty.
	all := NewCluster(newFuncTransport(func(_ int, _ string, req Message) (Message, error) {
		return overloadNACK(req)
	}), 3, 1)
	for _, addr := range full.Addrs() {
		all.Track(addr)
	}
	for i, r := range all.GetBatch(context.Background(), keys[:4], nil, 8) {
		if !errors.Is(r.Err, ErrOverload) {
			t.Fatalf("key %d on an all-shedding ring: %+v, want ErrOverload", i, r)
		}
	}
}

// TestGetBatchIgnoresUnaskedReplyKeys: a reply is matched against the
// request in order, so a node answering keys nobody asked for cannot
// plant entries under them — and the keys it skipped are re-read.
func TestGetBatchIgnoresUnaskedReplyKeys(t *testing.T) {
	asked := []keyspace.Key{keyspace.NewKey("asked-1"), keyspace.NewKey("asked-2")}
	planted := overlay.Entry{Kind: "index", Value: "planted"}
	real := overlay.Entry{Kind: "index", Value: "real"}
	ft := newFuncTransport(func(_ int, addr string, req Message) (Message, error) {
		if req.Op == OpGetBatch {
			return Message{Op: req.Op, Ok: true, Addr: addr, KV: []KeyEntries{
				{Key: keyspace.NewKey("never-asked"), Entries: []overlay.Entry{planted}},
				{Key: asked[1], Entries: []overlay.Entry{planted}},
			}}, nil
		}
		return Message{Op: req.Op, Ok: true, Addr: addr, Entries: []overlay.Entry{real}}, nil
	})
	cluster := NewCluster(ft, 1, 0)
	cluster.Track("only-member")
	for i, r := range cluster.GetBatch(context.Background(), asked, nil, 8) {
		if r.Err != nil || len(r.Entries) != 1 || r.Entries[0] != real {
			t.Fatalf("key %d: %+v, want the single-key path's entry", i, r)
		}
	}
}

// TestOpGetBatchIsAClientRead pins the two tables a new opcode has to be
// entered in: the retry layer repeats it (it is a read) and admission
// schedules it with the operations a client waits on.
func TestOpGetBatchIsAClientRead(t *testing.T) {
	if got := attemptsFor(OpGetBatch); got < 2 {
		t.Fatalf("OpGetBatch gets %d attempt(s); a read is retryable", got)
	}
	if classOf(OpGetBatch) != classClient {
		t.Fatal("OpGetBatch is not scheduled as client traffic")
	}
	if OpGetBatch.String() != "get-batch" {
		t.Fatalf("OpGetBatch prints as %q", OpGetBatch)
	}
}
