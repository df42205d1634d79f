package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

func TestEntriesDigest(t *testing.T) {
	a := []overlay.Entry{{Kind: "k1", Value: "v1"}, {Kind: "k2", Value: "v2"}}
	b := []overlay.Entry{{Kind: "k2", Value: "v2"}, {Kind: "k1", Value: "v1"}}
	if overlay.Digest(a) != overlay.Digest(b) {
		t.Errorf("digest is order-dependent")
	}
	if overlay.Digest(nil) != 0 {
		t.Errorf("empty set must digest to 0")
	}
	c := []overlay.Entry{{Kind: "k1", Value: "v1"}}
	if overlay.Digest(a) == overlay.Digest(c) {
		t.Errorf("different sets collided")
	}
	// The kind's length prefix keeps (Kind, Value) boundaries unambiguous.
	d := []overlay.Entry{{Kind: "k1v", Value: "1"}}
	e := []overlay.Entry{{Kind: "k1", Value: "v1"}}
	if overlay.Digest(d) == overlay.Digest(e) {
		t.Errorf("kind/value boundary ambiguity")
	}
}

// referenceEntryHash is overlay.EntryHash written with hash/fnv: FNV-1a
// over the kind's uvarint length, the kind and the value, then
// MurmurHash3's fmix64.
func referenceEntryHash(e overlay.Entry) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(binary.AppendUvarint(nil, uint64(len(e.Kind))))
	_, _ = h.Write([]byte(e.Kind))
	_, _ = h.Write([]byte(e.Value))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb53cc5a49e63
	x ^= x >> 33
	return x
}

// TestStateDigestOnePass: sorted or shuffled, a key's repair digest is
// the sum of its entries' reference hashes plus its tombstones' salted
// ones, and a stored set's digest — read off the store, as ownedState
// reads it once per owned key per repair round — costs no allocation
// and no hashing of the set.
func TestStateDigestOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 200; round++ {
		var entries []overlay.Entry
		for range rng.Intn(12) {
			e := overlay.Entry{Kind: []string{"index", "data"}[rng.Intn(2)], Value: fmt.Sprintf("/q[v=%d]", rng.Intn(1000))}
			if !slices.Contains(entries, e) {
				entries = append(entries, e)
			}
		}
		tombs := make([]Tombstone, rng.Intn(4))
		for i := range tombs {
			tombs[i] = TombstoneOf(overlay.Entry{Kind: "index", Value: fmt.Sprintf("/dead[v=%d]", rng.Intn(1000))}, rng.Int63())
		}
		var want uint64
		for _, e := range entries {
			want += referenceEntryHash(e)
		}
		for _, tb := range tombs {
			want += tb.Hash * tombSalt
		}
		if got := itemDigest(KeyEntries{Entries: entries, Tombs: tombs}); got != want {
			t.Fatalf("shuffled: digest %d, reference %d (%v %v)", got, want, entries, tombs)
		}
		st := NewMemStore()
		key := keyspace.NewKey(fmt.Sprint(round))
		if err := st.Replace(key, entries, tombs); err != nil {
			t.Fatal(err)
		}
		if got := heldDigest(st, key); got != want {
			t.Fatalf("stored: digest %d, reference %d (%v %v)", got, want, entries, tombs)
		}
		if allocs := testing.AllocsPerRun(1, func() { _ = st.Digest(key) }); allocs != 0 {
			t.Fatalf("reading a stored digest allocated %v times", allocs)
		}
	}
}

// TestRepairConvergence is the table-driven acceptance test for the
// anti-entropy repair loop: after an arbitrary mix of joins, graceful
// leaves and crashes, every key must settle at exactly
// min(ReplicationFactor+1, live) physical copies, placed on the key's
// current owner and its successors — newcomers gain the copies they now
// owe, survivors re-replicate what crashes ate, and stale copies left
// behind by ownership changes are dropped.
func TestRepairConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("repair convergence skipped in -short mode")
	}
	cases := []struct {
		name    string
		nodes   int
		rf      int
		keys    int
		joins   int
		leaves  int
		crashes int
	}{
		{name: "joins-only", nodes: 6, rf: 2, keys: 16, joins: 3},
		{name: "leaves-only", nodes: 8, rf: 2, keys: 16, leaves: 3},
		{name: "crashes-only", nodes: 8, rf: 2, keys: 16, crashes: 2},
		{name: "mixed-churn", nodes: 8, rf: 2, keys: 20, joins: 2, leaves: 1, crashes: 2},
		{name: "rf1-churn", nodes: 6, rf: 1, keys: 12, joins: 1, crashes: 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			transport := NewMemTransport()
			cfg := Config{
				Transport:         transport,
				Addr:              "mem:0",
				StabilizeInterval: 10 * time.Millisecond,
				ReplicationFactor: tc.rf,
			}
			cluster := NewCluster(transport, 1, tc.rf)
			alive := map[string]*Node{}
			var bootstrap string
			boot := func(i int) *Node {
				n, err := Start(cfg)
				if err != nil {
					t.Fatalf("start node %d: %v", i, err)
				}
				t.Cleanup(n.Stop)
				if bootstrap == "" {
					bootstrap = n.Addr()
				} else if err := n.Join(bootstrap); err != nil {
					t.Fatalf("join node %d: %v", i, err)
				}
				cluster.Track(n.Addr())
				alive[n.Addr()] = n
				return n
			}
			for i := 0; i < tc.nodes; i++ {
				boot(i)
			}
			var departed []string
			if err := cluster.WaitConverged(10 * time.Second); err != nil {
				logRingState(t, nodesOf(alive), departed)
				t.Fatal(err)
			}

			keys := make([]keyspace.Key, tc.keys)
			for i := range keys {
				keys[i] = keyspace.NewKey(fmt.Sprintf("%s-key-%d", tc.name, i))
				e := overlay.Entry{Kind: "repair", Value: fmt.Sprintf("v%d", i)}
				if _, err := cluster.Put(keys[i], e); err != nil {
					t.Fatalf("put key %d: %v", i, err)
				}
			}
			// Churn: joins first, then graceful leaves, then crashes. Each
			// event mutates the ideal replica set of some keys; no repair
			// round is awaited in between — the loop must untangle the
			// aggregate.
			for i := 0; i < tc.joins; i++ {
				boot(tc.nodes + i)
			}
			victims := drawVictims(t, transport, cluster, alive, keys, tc.rf, tc.leaves+tc.crashes)
			for i, victim := range victims {
				cluster.Untrack(victim.Addr())
				delete(alive, victim.Addr())
				departed = append(departed, victim.Addr())
				if i >= tc.leaves {
					victim.Stop() // no handoff: a crash loses the local store
				} else if err := victim.Leave(); err != nil {
					logRingState(t, nodesOf(alive), departed)
					t.Fatalf("leave %s: %v", victim.Addr(), err)
				}
			}
			if err := cluster.WaitConverged(10 * time.Second); err != nil {
				logRingState(t, nodesOf(alive), departed)
				t.Fatalf("ring did not re-converge after churn: %v", err)
			}

			expected := tc.rf + 1
			if len(alive) < expected {
				expected = len(alive)
			}
			waitReplicaCounts(t, transport, cluster, alive, keys, expected)
		})
	}
}

// pickAnyAlive returns an arbitrary live node (map order is fine — the
// scenario must hold for any victim).
func pickAnyAlive(alive map[string]*Node) *Node {
	for _, n := range alive {
		return n
	}
	return nil
}

// drawVictims picks count churn victims from alive, in map order, such
// that every key keeps a holder outside them inside its replica window:
// its ideal owner and the rf members after it on the tracked ring. A
// holder there never drops the key — dropStaleCopies keeps what falls in
// (p_{rf+1}, self], and churn only widens that — so however the leaves
// and crashes interleave with repair rounds, every key keeps a copy, and
// the churn tests the repair loop rather than a draw that takes every
// holder of a key at once (rf+1 victims can, a leave handing its keys to
// a successor that crashes next).
func drawVictims(t *testing.T, transport Transport, cluster *Cluster, alive map[string]*Node, keys []keyspace.Key, rf, count int) []*Node {
	t.Helper()
	holders := make([][]string, len(keys))
	for i, k := range keys {
		for _, addr := range cluster.replicaFollowers(k, "", rf+1) {
			if len(localEntries(t, transport, addr, k)) > 0 {
				holders[i] = append(holders[i], addr)
			}
		}
	}
	taken := make(map[string]bool)
	kept := func(h string) bool { return !taken[h] }
	var victims []*Node
	for addr, n := range alive {
		if len(victims) == count {
			break
		}
		taken[addr] = true
		if slices.ContainsFunc(holders, func(hs []string) bool { return !slices.ContainsFunc(hs, kept) }) {
			delete(taken, addr)
			continue
		}
		victims = append(victims, n)
	}
	if len(victims) < count {
		t.Fatalf("only %d of %d victims leave every key a holder in its window", len(victims), count)
	}
	return victims
}

// waitReplicaCounts polls until every key has exactly expected physical
// copies across the live nodes AND the key's routed owner is one of the
// holders, failing the test with a per-key report on timeout.
func waitReplicaCounts(t *testing.T, transport Transport, cluster *Cluster, alive map[string]*Node, keys []keyspace.Key, expected int) {
	t.Helper()
	anyNode := pickAnyAlive(alive)
	deadline := time.Now().Add(30 * time.Second)
	for {
		badKey := ""
		for _, k := range keys {
			if got := countCopies(transport, cluster.Addrs(), k); got != expected {
				badKey = fmt.Sprintf("%s: %d copies, want %d", k, got, expected)
				break
			}
			r := anyNode.route(k)
			if r.Err != "" {
				badKey = fmt.Sprintf("%s: routing failed: %s", k, r.Err)
				break
			}
			owner := r.Addr
			resp, err := transport.Call(owner, Message{Op: OpGet, Key: k})
			if err != nil || len(resp.Entries) == 0 {
				badKey = fmt.Sprintf("%s: owner %s holds no copy", k, owner)
				break
			}
		}
		if badKey == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica sets did not converge: %s", badKey)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// convergedIdleRing boots count idle nodes at replication rf, joins them
// back to back and runs the stabilize round that makes every pointer
// ideal. It returns them in ring order.
func convergedIdleRing(t *testing.T, transport func() Transport, count, rf int) []*Node {
	t.Helper()
	ring := idleNodesAt(t, transport, count, rf)
	burstJoin(t, startOrder(ring))
	stabilizeRound(ring, 1)
	if err := ringErr(ring); err != nil {
		t.Fatal(err)
	}
	return ring
}

// putKeys writes count keys, one entry each, through a cluster over
// ring, and returns the cluster and the keys.
func putKeys(t *testing.T, transport Transport, ring []*Node, rf, count int) (*Cluster, []keyspace.Key) {
	t.Helper()
	cluster := NewCluster(transport, 1, rf)
	for _, n := range ring {
		cluster.Track(n.addr)
	}
	keys := make([]keyspace.Key, count)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("key-%d", i))
		if _, err := cluster.Put(keys[i], overlay.Entry{Kind: "d", Value: fmt.Sprint(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	return cluster, keys
}

// TestRepairKeepsReplicaOnlyEntry: an entry only the replica holds — a
// write the owner lost, a partition's far side — survives the owner's
// repair round and reaches the owner. The owner adopts the replica's
// answer before it ships; shipping its own smaller set with replace
// semantics would erase the entry everywhere.
func TestRepairKeepsReplicaOnlyEntry(t *testing.T) {
	mt := NewMemTransport()
	ring := convergedIdleRing(t, func() Transport { return mt }, 3, 1)
	o, r := ring[1], ring[2]
	key := keyWhere(t, "replica-only", func(k keyspace.Key) bool { return k.Between(ring[0].id, o.id) })
	e1, e2 := overlay.Entry{Kind: "d", Value: "e1"}, overlay.Entry{Kind: "d", Value: "e2"}
	for _, put := range []struct {
		n *Node
		e overlay.Entry
	}{{o, e1}, {r, e1}, {r, e2}} {
		if _, err := put.n.store.Put(key, put.e); err != nil {
			t.Fatal(err)
		}
	}
	o.syncReplicas()
	for _, n := range []*Node{o, r} {
		if got := localEntries(t, mt, n.addr, key); !slices.Equal(got, []overlay.Entry{e1, e2}) {
			t.Fatalf("%s holds %v after the owner's repair round, want [e1 e2]", n.addr, got)
		}
	}
	if got := o.RepairStats().Pulls; got != 1 {
		t.Fatalf("owner counted %d pulled keys, want 1", got)
	}
}

// notifyBytes counts the encoded frames of every notify and its reply,
// and the replies that carried keys.
type notifyBytes struct {
	Transport
	bytes, withKeys atomic.Int64
}

func (c *notifyBytes) Call(addr string, req Message) (Message, error) {
	resp, err := c.Transport.Call(addr, req)
	if req.Op == OpNotify && err == nil {
		c.bytes.Add(int64(2*frameHeaderSize + len(appendMessage(nil, &req)) + len(appendMessage(nil, &resp))))
		if len(resp.KV) > 0 {
			c.withKeys.Add(1)
		}
	}
	return resp, err
}

// TestIdleNotifyCarriesNoKeys: on a converged ring, whose predecessors
// do not change, no notify carries keys, and an idle maintenance
// period's notifies (RepairEvery stabilize rounds) cost the same bytes
// whether the ring stores nothing or 2,000 keys.
func TestIdleNotifyCarriesNoKeys(t *testing.T) {
	period := func(keys int) int64 {
		nb := &notifyBytes{Transport: NewMemTransport()}
		ring := convergedIdleRing(t, func() Transport { return nb }, 8, 1)
		putKeys(t, nb.Transport, ring, 1, keys)
		nb.bytes.Store(0)
		for round := range (Config{}).withDefaults().RepairEvery {
			stabilizeRound(ring, int64(round))
		}
		if got := nb.withKeys.Load(); got > 0 {
			t.Fatalf("%d notify replies carried keys at %d stored keys", got, keys)
		}
		return nb.bytes.Load()
	}
	if empty, full := period(0), period(2000); empty != full {
		t.Fatalf("an idle period's notifies cost %d B at 0 keys and %d B at 2,000", empty, full)
	}
}

// TestJoinerHoldsItsRangeOnReturn: Join pulls the joiner's range before
// it returns — no maintenance tick runs in between — at replication 0,
// where the successor held the range alone, and at 1. Every key written
// under the joiner's range, live entries and tombstones both, is on the
// joiner when Join returns.
func TestJoinerHoldsItsRangeOnReturn(t *testing.T) {
	for _, rf := range []int{0, 1} {
		t.Run(fmt.Sprintf("R=%d", rf), func(t *testing.T) {
			mt := NewMemTransport()
			ring := convergedIdleRing(t, func() Transport { return mt }, 4, rf)
			cluster, keys := putKeys(t, mt, ring, rf, 200)
			dead := overlay.Entry{Kind: "d", Value: "removed"}
			for _, k := range keys[:20] {
				if _, err := cluster.Remove(k, dead); err != nil {
					t.Fatal(err)
				}
			}
			j := idleNodesAt(t, func() Transport { return mt }, 1, rf)[0]
			if err := j.Join(ring[0].addr); err != nil {
				t.Fatal(err)
			}
			pred := j.Predecessor()
			if pred == "" {
				t.Fatal("the joiner learned no predecessor from its notify reply")
			}
			owned := 0
			for i, k := range keys {
				if !k.Between(idOf(pred), j.id) {
					continue
				}
				owned++
				want := []overlay.Entry{{Kind: "d", Value: fmt.Sprint(i)}}
				if got := localEntries(t, mt, j.addr, k); !slices.Equal(got, want) {
					t.Fatalf("key %d: the joiner holds %v when Join returns, want %v", i, got, want)
				}
				if i < 20 && !j.store.Tombstoned(k, dead) {
					t.Fatalf("key %d: the joiner lacks the key's tombstone when Join returns", i)
				}
			}
			if owned == 0 {
				t.Fatal("no key falls in the joiner's range")
			}
		})
	}
}

// BenchmarkOwnedState times the digest walk that opens every repair
// round (ownedState): a node owning 3,500 keys of eight index entries
// each, one key in ten also holding a tombstone.
func BenchmarkOwnedState(b *testing.B) {
	const keys = 3500
	n, err := Start(Config{Transport: NewMemTransport(), Addr: "mem:0", StabilizeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Stop()
	for i := 0; i < keys; i++ {
		key := keyspace.NewKey(fmt.Sprintf("owned-%d", i))
		for j := 0; j < 8; j++ {
			if _, err := n.store.Put(key, overlay.Entry{Kind: "index", Value: fmt.Sprintf("/article[conf=C%04d][year=%d]", i, 1990+j)}); err != nil {
				b.Fatal(err)
			}
		}
		if i%10 == 0 {
			if _, err := n.store.Remove(key, overlay.Entry{Kind: "index", Value: "/article[gone]"}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := n.ownedState(""); len(got) != keys {
			b.Fatalf("%d owned keys, want %d", len(got), keys)
		}
	}
}
