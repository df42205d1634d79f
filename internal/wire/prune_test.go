package wire

import (
	"context"
	"fmt"
	"reflect"
	"slices"
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
						resp.Keys = len(req.KV)
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
		resp := Message{Op: req.Op, Ok: true, Addr: addr, Keys: len(req.KV)}
		if req.Op == OpRemoveBatch {
			resp.KV = []KeyEntries{{Key: keyspace.NewKey("never-asked")}}
			for i := len(req.KV) - 1; i >= 0; i-- {
				if req.KV[i].Key != stillHeld {
					resp.KV = append(resp.KV, KeyEntries{Key: req.KV[i].Key})
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
