package wire

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// sweepRing is a cluster of five tracked members at replication 2 over
// a scripted transport, with four items whose keys one member owns: the
// owner answers a remove the way reply says, everybody acks a sweep,
// and rec logs what the cluster sent.
type sweepRing struct {
	cluster   *Cluster
	rec       *recordingTransport
	owner     string
	followers []string
	items     []overlay.KeyEntry
}

func newSweepRing(t *testing.T, reply func(owner string, req Message) Message) *sweepRing {
	t.Helper()
	r := &sweepRing{}
	ft := newFuncTransport(func(_ int, addr string, req Message) (Message, error) {
		if addr == r.owner && (req.Op == OpRemoveBatch || req.Op == OpRemove) {
			return reply(addr, req), nil
		}
		return Message{Op: req.Op, Ok: true, Addr: addr}, nil
	})
	r.rec = &recordingTransport{Transport: ft}
	r.cluster = NewCluster(r.rec, 1, 2)
	for i := 1; i <= 5; i++ {
		r.cluster.Track(fmt.Sprintf("member-%d", i))
	}
	members := r.cluster.ring()
	r.owner = members[2].addr
	for i := 0; len(r.items) < 4; i++ {
		k := keyspace.NewKey(fmt.Sprintf("sweep-%d", i))
		if members[ownerIndex(members, k)].addr == r.owner {
			r.items = append(r.items, overlay.KeyEntry{Key: k, Entry: overlay.Entry{Kind: "index", Value: fmt.Sprint(i)}})
		}
	}
	r.followers = r.cluster.replicaFollowers(r.items[0].Key, r.owner, 2)
	if len(r.followers) != 2 {
		t.Fatalf("followers of %s: %v", r.owner, r.followers)
	}
	return r
}

// batchKeys lists the distinct keys a batch request names, whole in KV
// or by digest in Digests, in request order.
func batchKeys(req Message) []keyspace.Key {
	var keys []keyspace.Key
	for _, item := range req.KV {
		if !slices.Contains(keys, item.Key) {
			keys = append(keys, item.Key)
		}
	}
	for _, d := range req.Digests {
		if !slices.Contains(keys, d.Key) {
			keys = append(keys, d.Key)
		}
	}
	return keys
}

// sweepCases are the sweep rule's outcomes: a tracked follower is sent
// the delete by the client exactly when the owner's reply does not name
// it as having acknowledged the owner's own propagation.
var sweepCases = []struct {
	name string
	// removed is what the owner says it removed; acked picks the reply's
	// Addrs and swept the followers the client must then sweep itself.
	removed      bool
	acked, swept func(followers []string) []string
}{
	{"owner reached every follower", true,
		func(f []string) []string { return f },
		func(f []string) []string { return nil }},
	{"propagation to one follower failed", true,
		func(f []string) []string { return f[:1] },
		func(f []string) []string { return f[1:] }},
	{"the owner's other successor is untracked", true,
		func(f []string) []string { return []string{"a-stranger", f[1]} },
		func(f []string) []string { return f[:1] }},
	{"owner removed nothing, so propagated nothing", false,
		func(f []string) []string { return nil },
		func(f []string) []string { return f }},
	{"owner forwarded a foreign key, so names nobody", true,
		func(f []string) []string { return nil },
		func(f []string) []string { return f }},
}

// sweeps splits the requests logged since the remove began into the one
// to the owner and the replica sweeps, failing on anything else.
func (r *sweepRing) sweeps(t *testing.T, ownerOp Op) map[string]Message {
	t.Helper()
	sent := r.rec.take()
	if len(sent) == 0 || sent[0].addr != r.owner || sent[0].req.Op != ownerOp || sent[0].req.TTL <= 0 {
		t.Fatalf("sent %+v; want an owner-addressed %s to %s first", sent, ownerOp, r.owner)
	}
	swept := make(map[string]Message)
	for _, s := range sent[1:] {
		if _, twice := swept[s.addr]; twice || s.req.Op != OpRemoveReplica || s.req.TTL != 0 {
			t.Fatalf("after the owner's reply the client sent %s (TTL %d) to %s; want at most one local OpRemoveReplica per follower",
				s.req.Op, s.req.TTL, s.addr)
		}
		swept[s.addr] = s.req
	}
	return swept
}

// TestRemoveBatchSweepsEachFollowerOnce: every tracked follower of a
// group's keys is sent the group's deletes once — by the owner, whose
// reply then names it, or else by the client in one KV-carrying
// OpRemoveReplica holding every item of the group — never by both and
// never by neither. RemoveBatch and Prune are one code path and must
// agree.
func TestRemoveBatchSweepsEachFollowerOnce(t *testing.T) {
	for _, tc := range sweepCases {
		for _, form := range []string{"RemoveBatch", "Prune"} {
			t.Run(tc.name+"/"+form, func(t *testing.T) {
				var r *sweepRing
				r = newSweepRing(t, func(_ string, req Message) Message {
					resp := Message{Op: req.Op, Ok: tc.removed, Addrs: tc.acked(r.followers)}
					if tc.removed {
						resp.Keys = len(batchKeys(req))
					}
					return resp
				})
				var err error
				if form == "Prune" {
					_, err = r.cluster.Prune(context.Background(), r.items)
				} else {
					var removed int
					removed, err = r.cluster.RemoveBatch(context.Background(), r.items)
					if want := map[bool]int{true: len(r.items)}[tc.removed]; removed != want {
						t.Fatalf("RemoveBatch counted %d removed entries, want %d", removed, want)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				swept := r.sweeps(t, OpRemoveBatch)
				want := tc.swept(r.followers)
				if len(swept) != len(want) {
					t.Fatalf("client swept %d followers, want %v", len(swept), want)
				}
				for _, f := range want {
					if req, ok := swept[f]; !ok || len(req.KV) != len(r.items) {
						t.Fatalf("follower %s was sent %d of the group's %d items (swept: %v)", f, len(req.KV), len(r.items), ok)
					}
				}
			})
		}
	}
}

// TestRemoveSweepsEachFollowerOnce is the same rule for the single-key
// Remove: the follower the owner's reply names is left alone, any other
// tracked follower gets exactly one OpRemoveReplica carrying the key and
// entry in KV, the form a batch's sweep takes.
func TestRemoveSweepsEachFollowerOnce(t *testing.T) {
	for _, tc := range sweepCases {
		t.Run(tc.name, func(t *testing.T) {
			var r *sweepRing
			r = newSweepRing(t, func(owner string, req Message) Message {
				return Message{Op: req.Op, Ok: tc.removed, Addr: owner, Addrs: tc.acked(r.followers)}
			})
			it := r.items[0]
			removed, err := r.cluster.Remove(it.Key, it.Entry)
			if err != nil || removed != tc.removed {
				t.Fatalf("Remove = %v, %v; want %v", removed, err, tc.removed)
			}
			swept := r.sweeps(t, OpRemove)
			want := tc.swept(r.followers)
			if len(swept) != len(want) {
				t.Fatalf("client swept %d followers, want %v", len(swept), want)
			}
			wantKV := []KeyEntries{{Key: it.Key, Entries: []overlay.Entry{it.Entry}}}
			for _, f := range want {
				if req, ok := swept[f]; !ok || !reflect.DeepEqual(req.KV, wantKV) {
					t.Fatalf("follower %s was sent %+v (swept: %v); want the removed key and entry in KV", f, req, ok)
				}
			}
		})
	}
}

// TestPruneOrdersAndFiltersTheVerdicts: Prune reports the emptied keys
// of every owner's reply in the order the caller first named them,
// whatever order the replies list them in, and drops a key a reply
// names that was never part of the batch.
func TestPruneOrdersAndFiltersTheVerdicts(t *testing.T) {
	items := batchItems("prune-order", 12, 2) // every key twice, under two entries
	stillHeld := items[4].Key
	ft := newFuncTransport(func(_ int, addr string, req Message) (Message, error) {
		keys := batchKeys(req)
		resp := Message{Op: req.Op, Ok: true, Addr: addr, Keys: len(keys)}
		if req.Op == OpRemoveBatch {
			resp.KV = []KeyEntries{{Key: keyspace.NewKey("never-asked")}}
			for i := len(keys) - 1; i >= 0; i-- {
				if keys[i] != stillHeld {
					resp.KV = append(resp.KV, KeyEntries{Key: keys[i]})
				}
			}
		}
		return resp, nil
	})
	cluster := NewCluster(ft, 1, 0)
	for i := 1; i <= 4; i++ {
		cluster.Track(fmt.Sprintf("member-%d", i))
	}
	var want []keyspace.Key
	for _, it := range items {
		if it.Key != stillHeld && !slices.Contains(want, it.Key) {
			want = append(want, it.Key)
		}
	}
	got, err := cluster.Prune(context.Background(), items)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Prune = %v, %v; want the %d emptied keys in request order", got, err, len(want))
	}
	if got, err := cluster.Prune(context.Background(), nil); err != nil || len(got) != 0 {
		t.Fatalf("an empty prune returned %v, %v", got, err)
	}
}

// TestRemoveReplyNamesEmptiedKeysAndAckedReplicas drives the node side
// of the contract on a live replicated ring. An origin OpRemoveBatch
// lists, in request order, the keys holding nothing once the batch is
// applied: one it emptied, one that was empty all along, one a
// forwarded owner emptied — and not one that keeps another entry.
// Addrs names the successor that acknowledged the propagated delete
// only when nothing was forwarded and something was removed; the
// replica form of the message reports neither. OpRemove does the same
// for one key, and whoever is named really holds no copy any more.
func TestRemoveReplyNamesEmptiedKeysAndAckedReplicas(t *testing.T) {
	cluster, nodes, mt := startBatchRing(t, 4, 1) // converged: which keys a node disclaims is settled
	here, successor := nodes[0].Addr(), nodes[0].Successor()
	members := cluster.ring()
	last, other := overlay.Entry{Kind: "index", Value: "last"}, overlay.Entry{Kind: "index", Value: "other"}
	var emptiedHere, keptHere, neverWritten, emptiedThere, keptThere keyspace.Key
	// store draws the phase's own keys (a removed entry's tombstone would
	// suppress writing it again) and stores last under the four written
	// ones, other beside it under the two that are to stay in use.
	store := func(phase string) {
		t.Helper()
		key := func(name string, local bool) keyspace.Key {
			return keyWhere(t, phase+name, func(k keyspace.Key) bool {
				return (members[ownerIndex(members, k)].addr == here) == local
			})
		}
		emptiedHere, keptHere, neverWritten = key("emptied", true), key("kept", true), key("never", true)
		emptiedThere, keptThere = key("emptied-there", false), key("kept-there", false)
		var items []overlay.KeyEntry
		for _, k := range []keyspace.Key{emptiedHere, keptHere, emptiedThere, keptThere} {
			items = append(items, overlay.KeyEntry{Key: k, Entry: last})
		}
		items = append(items, overlay.KeyEntry{Key: keptHere, Entry: other}, overlay.KeyEntry{Key: keptThere, Entry: other})
		if err := cluster.PutBatch(context.Background(), items); err != nil {
			t.Fatal(err)
		}
	}
	removeLast := func(keys ...keyspace.Key) []KeyEntries {
		kv := make([]KeyEntries, len(keys))
		for i, k := range keys {
			kv[i] = KeyEntries{Key: k, Entries: []overlay.Entry{last}}
		}
		return kv
	}
	call := func(req Message) Message {
		t.Helper()
		resp, err := mt.Call(here, req)
		if err != nil || resp.Err != "" {
			t.Fatalf("%s at %s: %v %s", req.Op, here, err, resp.Err)
		}
		return resp
	}
	keysOf := func(kv []KeyEntries) []keyspace.Key {
		var keys []keyspace.Key
		for _, item := range kv {
			if len(item.Entries) != 0 || len(item.Tombs) != 0 {
				t.Fatalf("reply KV carries more than the key: %+v", item)
			}
			keys = append(keys, item.Key)
		}
		return keys
	}

	store("local-")
	// Everything owned here: the reply names the emptied keys and the
	// successor that took the propagated delete.
	resp := call(Message{Op: OpRemoveBatch, TTL: 8, KV: removeLast(neverWritten, keptHere, emptiedHere)})
	if got, want := keysOf(resp.KV), []keyspace.Key{neverWritten, emptiedHere}; !reflect.DeepEqual(got, want) || resp.Keys != 2 {
		t.Fatalf("local batch: emptied %v, removed %d; want %v and 2", got, resp.Keys, want)
	}
	if !reflect.DeepEqual(resp.Addrs, []string{successor}) {
		t.Fatalf("local batch: Addrs %v, want the acking successor %s", resp.Addrs, successor)
	}
	for _, k := range []keyspace.Key{emptiedHere, keptHere} {
		if got := localEntries(t, mt, successor, k); slices.Contains(got, last) {
			t.Fatalf("successor %s, named as acked, still holds %v", successor, got)
		}
	}
	// The same batch again removes nothing, so nothing is propagated and
	// nobody is named — but emptiness is state, and is reported again.
	resp = call(Message{Op: OpRemoveBatch, TTL: 8, KV: removeLast(neverWritten, keptHere, emptiedHere)})
	if got, want := keysOf(resp.KV), []keyspace.Key{neverWritten, emptiedHere}; !reflect.DeepEqual(got, want) || resp.Keys != 0 || resp.Addrs != nil {
		t.Fatalf("repeated batch: emptied %v, removed %d, Addrs %v; want %v, 0 and none", got, resp.Keys, resp.Addrs, want)
	}

	store("forwarding-")
	// Foreign keys in the batch: their owners' verdicts are merged into
	// request order, and Addrs is withheld although this node propagated
	// its own share.
	resp = call(Message{Op: OpRemoveBatch, TTL: 8, KV: removeLast(emptiedThere, keptHere, keptThere, emptiedHere)})
	if got, want := keysOf(resp.KV), []keyspace.Key{emptiedThere, emptiedHere}; !reflect.DeepEqual(got, want) || resp.Keys != 4 {
		t.Fatalf("forwarding batch: emptied %v, removed %d; want %v and 4", got, resp.Keys, want)
	}
	if resp.Addrs != nil {
		t.Fatalf("forwarding batch named %v as acked; a reply that forwarded anything names nobody", resp.Addrs)
	}

	store("replica-")
	// The replica form acts on this node's copy and reports nothing.
	resp = call(Message{Op: OpRemoveReplica, KV: removeLast(emptiedHere)})
	if resp.Keys != 1 || resp.KV != nil || resp.Addrs != nil {
		t.Fatalf("replica form replied %+v; want the count alone", resp)
	}

	store("single-")
	// Single key: named when removed and propagated, not otherwise, and
	// a forwarded remove relays the true owner's own reply.
	resp = call(Message{Op: OpRemove, TTL: 8, Key: emptiedHere, Entry: last})
	if !resp.Ok || !reflect.DeepEqual(resp.Addrs, []string{successor}) {
		t.Fatalf("remove: %+v; want Ok with Addrs [%s]", resp, successor)
	}
	if got := localEntries(t, mt, successor, emptiedHere); len(got) != 0 {
		t.Fatalf("successor %s, named as acked, still holds %v", successor, got)
	}
	if resp = call(Message{Op: OpRemove, TTL: 8, Key: emptiedHere, Entry: last}); resp.Ok || resp.Addrs != nil {
		t.Fatalf("remove of an absent entry: %+v; want neither Ok nor Addrs", resp)
	}
	resp = call(Message{Op: OpRemove, TTL: 8, Key: emptiedThere, Entry: last})
	if !resp.Ok || resp.Addr == here || len(resp.Addrs) != 1 {
		t.Fatalf("forwarded remove: %+v; want the true owner's reply with its one acked successor", resp)
	}
	if got := localEntries(t, mt, resp.Addrs[0], emptiedThere); len(got) != 0 {
		t.Fatalf("%s, named as acked by %s, still holds %v", resp.Addrs[0], resp.Addr, got)
	}
}

// TestPruneOnALiveRingIsOneRPCPerOwner: over a converged, fully tracked
// replicated ring the owners reach their followers themselves, so a
// prune is one OpRemoveBatch per owner and nothing else — and no node,
// owner or replica, holds a removed entry afterwards.
func TestPruneOnALiveRingIsOneRPCPerOwner(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 4, 1)
	rec := &recordingTransport{Transport: mt}
	cluster := NewCluster(rec, 3, 1)
	for _, n := range nodes {
		cluster.Track(n.Addr())
	}
	items := batchItems("live-prune", 16, 2)
	if err := cluster.PutBatch(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	members := cluster.ring()
	owners := make(map[string]bool)
	for _, it := range items {
		owners[members[ownerIndex(members, it.Key)].addr] = true
	}
	rec.take()
	half := items[:len(items)/2] // whole keys: batchItems lists a key's entries together
	emptied, err := cluster.Prune(context.Background(), half)
	if err != nil || len(emptied) != len(half)/2 {
		t.Fatalf("Prune emptied %d keys, %v; want %d", len(emptied), err, len(half)/2)
	}
	if sent := rec.take(); opCounts(sent)[OpRemoveBatch] != len(sent) || len(sent) > len(owners) {
		t.Fatalf("sent %v; want nothing but one OpRemoveBatch per owner (%d owners)", opCounts(sent), len(owners))
	}
	for _, it := range half {
		for _, n := range nodes {
			if got := localEntries(t, mt, n.Addr(), it.Key); len(got) != 0 {
				t.Fatalf("%s still holds %v after the prune", n.Addr(), got)
			}
		}
	}
	for _, it := range items[len(half):] {
		if entries, _, err := full.Get(it.Key); err != nil || len(entries) != 2 {
			t.Fatalf("an untouched key reads %v, %v", entries, err)
		}
	}
}

// refuseWhole NACKs every whole (KV-carrying) OpRemoveReplica sent to
// the address it is armed with.
type refuseWhole struct {
	Transport
	mu   sync.Mutex
	addr string
}

func (r *refuseWhole) arm(addr string) {
	r.mu.Lock()
	r.addr = addr
	r.mu.Unlock()
}

func (r *refuseWhole) Call(addr string, req Message) (Message, error) {
	r.mu.Lock()
	refuse := addr == r.addr && req.Op == OpRemoveReplica && len(req.KV) > 0
	r.mu.Unlock()
	if refuse {
		return Message{Op: req.Op, Err: "refused"}, nil
	}
	return r.Transport.Call(addr, req)
}

// newDigestRing is a converged, idle four-node ring at replication 1
// and a client tracking every node, all sending through rec.
func newDigestRing(t *testing.T) (cluster *Cluster, ring []*Node, rec *recordingTransport, refuse *refuseWhole) {
	t.Helper()
	refuse = &refuseWhole{Transport: NewMemTransport()}
	rec = &recordingTransport{Transport: refuse}
	ring = idleNodesAt(t, func() Transport { return rec }, 4, 1)
	burstJoin(t, startOrder(ring))
	stabilizeRound(ring, 1)
	if err := ringErr(ring); err != nil {
		t.Fatal(err)
	}
	cluster = NewCluster(rec, 1, 1)
	for _, n := range ring {
		cluster.Track(n.Addr())
	}
	rec.take()
	return cluster, ring, rec, refuse
}

// holdOnly stores e under key in n's own copy and nowhere else.
func holdOnly(t *testing.T, n *Node, key keyspace.Key, entries ...overlay.Entry) {
	t.Helper()
	if resp := n.handle(Message{Op: OpPutReplica, KV: []KeyEntries{{Key: key, Entries: entries}}}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
}

// tombstoned reports whether n holds a tombstone for e under key.
func tombstoned(n *Node, key keyspace.Key, e overlay.Entry) bool {
	return slices.ContainsFunc(n.store.Tombstones(key), func(ts Tombstone) bool { return ts.Hash == entryHash(e) })
}

// TestRemoveBeforePutPlantsTombstone: a removal that reaches the owner
// before the put it undoes names, by digest, entries the owner does not
// hold. A tombstone is a digest, so the owner plants one for each digest
// at once — nothing is listed back, nothing re-sent whole — and the late
// put is refused everywhere.
func TestRemoveBeforePutPlantsTombstone(t *testing.T) {
	cluster, ring, rec, _ := newDigestRing(t)
	owner, follower := ring[1], ring[2]
	var items []overlay.KeyEntry
	for i := 0; i < 3; i++ {
		key := keyWhere(t, fmt.Sprint("early-remove-", i), func(k keyspace.Key) bool { return k.Between(ring[0].id, owner.id) })
		items = append(items, overlay.KeyEntry{Key: key, Entry: overlay.Entry{Kind: "index", Value: fmt.Sprint("early-", i)}})
	}
	removed, err := cluster.RemoveBatch(context.Background(), items)
	if err != nil || removed != 0 {
		t.Fatalf("RemoveBatch = %d, %v; want 0 removed", removed, err)
	}
	var toOwner []Message
	for _, s := range rec.take() {
		if s.addr == owner.Addr() && s.req.Op == OpRemoveBatch {
			toOwner = append(toOwner, s.req)
		}
	}
	if len(toOwner) != 1 || len(toOwner[0].Digests) != 3 || toOwner[0].KV != nil {
		t.Fatalf("the owner was sent %+v; want the three digests alone", toOwner)
	}
	if got, planted := owner.digestsUnresolved.Value(), owner.digestsResolved.Value(); got != 0 || planted != 3 {
		t.Fatalf("the owner listed %d digests unresolved and settled %d, want 0 and 3", got, planted)
	}
	if err := cluster.PutBatch(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		for _, n := range []*Node{owner, follower} {
			if !tombstoned(n, it.Key, it.Entry) {
				t.Fatalf("%s holds no tombstone for %v", n.Addr(), it.Entry)
			}
			if got := localEntries(t, rec, n.Addr(), it.Key); len(got) != 0 {
				t.Fatalf("%s took the late put: holds %v", n.Addr(), got)
			}
		}
	}
}

// collide makes entryHash give b the hash of a until the test ends. It
// runs before the test starts a node, and the hash is restored after
// they have stopped.
func collide(t *testing.T, a, b overlay.Entry) {
	t.Helper()
	entryHash = func(e overlay.Entry) uint64 {
		if e == b {
			e = a
		}
		return overlay.EntryHash(e)
	}
	t.Cleanup(func() { entryHash = overlay.EntryHash })
}

// TestDigestMatchingTwoEntriesIsUnresolved: two live entries of one key
// that share a digest (made to, here: EntryHash length-prefixes the
// kind, so only a 64-bit collision could) make that digest ambiguous. It
// is listed back unresolved and removes nothing; the client re-sends its
// entry whole, which removes that entry alone. Once one live entry
// answers the digest, it settles to that entry. A client batch holding
// both names them whole from the start.
func TestDigestMatchingTwoEntriesIsUnresolved(t *testing.T) {
	e1, e2 := overlay.Entry{Kind: "a", Value: "x1"}, overlay.Entry{Kind: "a", Value: "x2"}
	collide(t, e1, e2)
	cluster, ring, rec, _ := newDigestRing(t)
	owner := ring[1]
	h := entryHash(e1)
	if entryHash(e2) != h || e1 == e2 {
		t.Fatal("the entries do not collide")
	}
	key := keyWhere(t, "collide", func(k keyspace.Key) bool { return k.Between(ring[0].id, owner.id) })
	holdOnly(t, owner, key, e1, e2)
	named := []KeyDigest{{Key: key, Digest: h}}
	resp := owner.handle(Message{Op: OpRemoveBatch, TTL: 8, Digests: named})
	if resp.Err != "" || !reflect.DeepEqual(resp.Digests, named) || resp.Keys != 0 || resp.KV != nil {
		t.Fatalf("reply %+v; want the digest back, nothing removed and no verdict", resp)
	}
	if got := localEntries(t, rec, owner.Addr(), key); len(got) != 2 {
		t.Fatalf("an unresolved digest removed something: %v", got)
	}
	removed, err := cluster.RemoveBatch(context.Background(), []overlay.KeyEntry{{Key: key, Entry: e1}})
	if err != nil || removed != 1 {
		t.Fatalf("RemoveBatch = %d, %v; want e1 removed by its whole re-send", removed, err)
	}
	if got := localEntries(t, rec, owner.Addr(), key); !reflect.DeepEqual(got, []overlay.Entry{e2}) {
		t.Fatalf("the owner holds %v, want e2 alone", got)
	}
	resp = owner.handle(Message{Op: OpRemoveBatch, TTL: 8, Digests: named})
	if resp.Err != "" || resp.Digests != nil || resp.Keys != 1 {
		t.Fatalf("reply %+v; want the one live entry the digest answers removed", resp)
	}
	whole, digests := nameByDigest([]KeyEntries{{Key: key, Entries: []overlay.Entry{e1, e2}}})
	if len(whole) != 1 || len(whole[0].Entries) != 2 || len(digests) != 0 {
		t.Fatalf("nameByDigest named a colliding pair as %v and %v; want both whole", whole, digests)
	}
}

// TestReplicaMissingTheEntryPlantsTombstone: the owner names a removal
// to its replica by digest; a replica that never received the entry
// plants its tombstone from the digest, with no whole re-send, and the
// owner's reply names it as acked.
func TestReplicaMissingTheEntryPlantsTombstone(t *testing.T) {
	_, ring, rec, _ := newDigestRing(t)
	owner, replica := ring[1], ring[2]
	e := overlay.Entry{Kind: "index", Value: "owner-only"}
	key := keyWhere(t, "owner-only", func(k keyspace.Key) bool { return k.Between(ring[0].id, owner.id) })
	holdOnly(t, owner, key, e)
	resp := owner.handle(Message{Op: OpRemoveBatch, TTL: 8, Digests: []KeyDigest{{Key: key, Digest: overlay.EntryHash(e)}}})
	if resp.Err != "" || resp.Keys != 1 || resp.Digests != nil {
		t.Fatalf("reply %+v; want the entry removed", resp)
	}
	sent := rec.take()
	if len(sent) != 1 || sent[0].addr != replica.Addr() || sent[0].req.Op != OpRemoveReplica ||
		len(sent[0].req.Digests) != 1 || sent[0].req.KV != nil {
		t.Fatalf("the owner sent %+v; want the digest to its replica alone", sent)
	}
	if want := []string{replica.Addr()}; !reflect.DeepEqual(resp.Addrs, want) {
		t.Fatalf("the reply names %v as acked, want %v", resp.Addrs, want)
	}
	if !tombstoned(replica, key, e) {
		t.Fatal("the replica planted no tombstone")
	}
	if added, _ := replica.store.Put(key, e); added {
		t.Fatal("the replica took a stale put past the planted tombstone")
	}
}

// TestAmbiguousReplicaGetsTheEntryWhole: a replica holding two live
// entries that share the removed entry's digest lists it back, and the
// owner re-sends the entry whole, which removes it alone. The owner's
// reply names the replica in Addrs only once that re-send is applied:
// when the replica refuses it, the reply names nobody.
func TestAmbiguousReplicaGetsTheEntryWhole(t *testing.T) {
	e, twin := overlay.Entry{Kind: "index", Value: "removed"}, overlay.Entry{Kind: "index", Value: "twin"}
	collide(t, e, twin)
	_, ring, rec, refuse := newDigestRing(t)
	owner, replica := ring[1], ring[2]
	for _, refused := range []bool{false, true} {
		key := keyWhere(t, fmt.Sprint("ambiguous-", refused), func(k keyspace.Key) bool { return k.Between(ring[0].id, owner.id) })
		holdOnly(t, owner, key, e)
		holdOnly(t, replica, key, e, twin)
		if refused {
			refuse.arm(replica.Addr())
		}
		resp := owner.handle(Message{Op: OpRemoveBatch, TTL: 8, Digests: []KeyDigest{{Key: key, Digest: entryHash(e)}}})
		if resp.Err != "" || resp.Keys != 1 || resp.Digests != nil {
			t.Fatalf("refused=%v: reply %+v; want the entry removed", refused, resp)
		}
		sent := rec.take()
		if len(sent) != 2 || sent[0].addr != replica.Addr() || sent[0].req.Op != OpRemoveReplica || len(sent[0].req.Digests) != 1 ||
			sent[1].addr != replica.Addr() || sent[1].req.Op != OpRemoveReplica ||
			!reflect.DeepEqual(sent[1].req.KV, []KeyEntries{{Key: key, Entries: []overlay.Entry{e}}}) {
			t.Fatalf("refused=%v: the owner sent %+v; want the digest to its replica, then the entry whole", refused, sent)
		}
		if want := []string{replica.Addr()}; refused && resp.Addrs != nil || !refused && !reflect.DeepEqual(resp.Addrs, want) {
			t.Fatalf("refused=%v: the reply names %v as acked", refused, resp.Addrs)
		}
		want := []overlay.Entry{twin}
		if refused {
			want = []overlay.Entry{e, twin}
		}
		if got := replica.store.Get(key); !reflect.DeepEqual(got, want) {
			t.Fatalf("refused=%v: the replica holds %v, want %v", refused, got, want)
		}
	}
}

// TestResentRemovalAcksOnlyWhomBothRepliesName: the client folds the
// owner's reply to the digests and its reply to the whole re-send into
// one. The removed counts add up, and a follower counts as reached only
// if both replies name it: the other is swept with the group's items.
func TestResentRemovalAcksOnlyWhomBothRepliesName(t *testing.T) {
	var r *sweepRing
	r = newSweepRing(t, func(_ string, req Message) Message {
		if len(req.Digests) > 0 {
			return Message{Op: req.Op, Ok: true, Keys: len(req.Digests) - 1, Addrs: r.followers, Digests: req.Digests[:1]}
		}
		return Message{Op: req.Op, Ok: true, Keys: len(req.KV), Addrs: r.followers[:1]}
	})
	removed, err := r.cluster.RemoveBatch(context.Background(), r.items)
	if err != nil || removed != len(r.items) {
		t.Fatalf("RemoveBatch = %d, %v; want %d", removed, err, len(r.items))
	}
	sent := r.rec.take()
	first := r.items[0]
	if len(sent) != 3 || sent[0].addr != r.owner || len(sent[0].req.Digests) != len(r.items) ||
		sent[1].addr != r.owner || !reflect.DeepEqual(sent[1].req.KV, []KeyEntries{{Key: first.Key, Entries: []overlay.Entry{first.Entry}}}) ||
		sent[2].addr != r.followers[1] || sent[2].req.Op != OpRemoveReplica || len(sent[2].req.KV) != len(r.items) {
		t.Fatalf("sent %+v; want the digests, the first entry whole, then a sweep of %s alone", sent, r.followers[1])
	}
}
