package wire

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// heldSets reads every key once and returns what a client holds of it
// and the digest it would offer (0 for an empty set, which is never
// offered).
func heldSets(t *testing.T, c *Cluster, keys []keyspace.Key) ([][]overlay.Entry, []uint64) {
	t.Helper()
	held := make([][]overlay.Entry, len(keys))
	offers := make([]uint64, len(keys))
	for i, k := range keys {
		entries, _, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		held[i], offers[i] = entries, overlay.Digest(entries)
	}
	return held, offers
}

// TestGetBatchConditional: a batch that offers the digest of what the
// client holds for some keys gets a verdict per key, in the one
// OpGetBatch per owner it sends. A key whose set still has the digest
// is answered unchanged by its owner, with no entries; a key that
// gained an entry, or was emptied, since the offer ships its set (the
// emptied one empty, never unchanged); a key offered nothing ships its
// set. An offered key travels once, in the request's Digests, and the
// offers and verdicts are counted in wire_get_offers_total and
// wire_get_unchanged_total.
func TestGetBatchConditional(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 5, 1)
	rec := &recordingTransport{Transport: mt}
	cluster := NewCluster(rec, 3, 1)
	cluster.Instrument(telemetry.NewRegistry())
	for _, n := range nodes {
		cluster.Track(n.Addr())
	}
	keys, _ := storedKeys(t, full, "offered-batch", 24)
	held, offers := heldSets(t, full, keys)
	const gained, emptied = 3, 5
	if _, err := full.Put(keys[gained], overlay.Entry{Kind: "index", Value: "/gained"}); err != nil {
		t.Fatal(err)
	}
	if removed, err := full.Remove(keys[emptied], held[emptied][0]); err != nil || !removed {
		t.Fatalf("remove: %v, %v", removed, err)
	}
	for i := range offers {
		if i%4 == 3 && i != gained {
			offers[i] = 0 // read unconditionally
		}
	}
	owners := make(map[string]bool)
	for _, k := range keys {
		route, err := full.FindOwner(k)
		if err != nil {
			t.Fatal(err)
		}
		owners[route.Node] = true
	}
	unchangedBefore := totalUnchanged(nodes)

	got := cluster.GetBatch(context.Background(), keys, offers, 8)

	sent := rec.take()
	if counts := opCounts(sent); len(sent) != len(owners) || counts[OpGetBatch] != len(owners) {
		t.Fatalf("sent %v, want exactly %d OpGetBatch (one per owner)", counts, len(owners))
	}
	travelled := make(map[keyspace.Key]int)
	for _, s := range sent {
		for _, item := range s.req.KV {
			travelled[item.Key]++
		}
		for _, d := range s.req.Digests {
			travelled[d.Key]++
			if i := slices.Index(keys, d.Key); i < 0 || offers[i] != d.Digest {
				t.Fatalf("request to %s offers %x for a key offered %x", s.addr, d.Digest, offers[i])
			}
		}
	}
	unchanged := 0
	for i, k := range keys {
		if travelled[k] != 1 {
			t.Fatalf("key %d travelled %d times", i, travelled[k])
		}
		entries, route, err := full.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		r := got[i]
		wantUnchanged := offers[i] != 0 && i != gained && i != emptied
		switch {
		case r.Err != nil || r.Unchanged != wantUnchanged || r.Route.Node != route.Node:
			t.Fatalf("key %d (offer %x): %+v, want unchanged = %v from %s", i, offers[i], r, wantUnchanged, route.Node)
		case r.Unchanged && r.Entries != nil:
			t.Fatalf("key %d: unchanged verdict carries %v", i, r.Entries)
		case !r.Unchanged && !slices.Equal(r.Entries, entries):
			t.Fatalf("key %d: shipped %v, the key holds %v", i, r.Entries, entries)
		}
		if r.Unchanged {
			unchanged++
		}
	}
	if len(got[emptied].Entries) != 0 || len(got[gained].Entries) != 2 {
		t.Fatalf("emptied key read %v, grown key %v", got[emptied].Entries, got[gained].Entries)
	}
	offered := 0
	for _, o := range offers {
		if o != 0 {
			offered++
		}
	}
	if n := cluster.getOffers.Value(); n != int64(offered) {
		t.Fatalf("wire_get_offers_total = %d, want %d", n, offered)
	}
	if n := totalUnchanged(nodes) - unchangedBefore; n != int64(unchanged) {
		t.Fatalf("wire_get_unchanged_total rose by %d, want %d", n, unchanged)
	}
}

// TestGetBatchConditionalStaleView: a node that joined the ring but was
// never Tracked owns some of the offered keys. Their presumed owner
// disclaims them, and each is read again through the single-key path
// with its offer, forwarded to the true owner, which answers unchanged.
func TestGetBatchConditionalStaleView(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 5, 1)
	untracked := nodes[4]
	rec := &recordingTransport{Transport: mt}
	stale := NewCluster(rec, 3, 1)
	for _, n := range nodes[:4] {
		stale.Track(n.Addr())
	}
	keys, _ := storedKeys(t, full, "stale-offers", 40)
	_, offers := heldSets(t, full, keys)
	foreign := 0
	for _, k := range keys {
		if route, _ := full.FindOwner(k); route.Node == untracked.Addr() {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("no key landed on the untracked node; the test needs another prefix")
	}

	got := stale.GetBatch(context.Background(), keys, offers, 8)

	for i, k := range keys {
		route, _ := full.FindOwner(k)
		if r := got[i]; r.Err != nil || !r.Unchanged || r.Entries != nil || r.Route.Node != route.Node {
			t.Fatalf("key %d: %+v, want unchanged from %s", i, r, route.Node)
		}
	}
	gets := 0
	for _, s := range rec.take() {
		if s.req.Op == OpGet {
			gets++
			if offerDigest(s.req) == 0 {
				t.Fatalf("the re-read of a disclaimed key offers nothing: %+v", s.req)
			}
		}
	}
	if gets != foreign {
		t.Fatalf("%d single gets for %d disclaimed keys", gets, foreign)
	}
	if n := untracked.getUnchanged.Value(); n != int64(foreign) {
		t.Fatalf("the true owner answered %d offers unchanged, want %d", n, foreign)
	}
}

// TestGetBatchConditionalOverloadedOwner: the keys of an owner that
// sheds an offering batch are read from its replicas, and a replica
// read is unconditional: it ships the set, never a verdict.
func TestGetBatchConditionalOverloadedOwner(t *testing.T) {
	full, _, mt := startBatchRing(t, 5, 1)
	keys, _ := storedKeys(t, full, "overloaded-offers", 30)
	held, offers := heldSets(t, full, keys)
	hot := full.replicaFollowers(keys[0], "", 1)[0]
	cluster := NewCluster(shedding{mt, hot}, 3, 1)
	for _, addr := range full.Addrs() {
		cluster.Track(addr)
	}

	got := cluster.GetBatch(context.Background(), keys, offers, 8)

	shed := 0
	for i, k := range keys {
		r := got[i]
		if cluster.replicaFollowers(k, "", 1)[0] != hot {
			if r.Err != nil || !r.Unchanged {
				t.Fatalf("key %d of a healthy owner: %+v, want unchanged", i, r)
			}
			continue
		}
		shed++
		if r.Err != nil || r.Unchanged || !slices.Equal(r.Entries, held[i]) || r.Route.Node == hot {
			t.Fatalf("key %d of the shedding owner: %+v, want %v from a replica", i, r, held[i])
		}
	}
	if shed == 0 {
		t.Fatal("no key is owned by the shedding node")
	}
}

// batchVerdicts answers every OpGetBatch by listing each key of the
// request in the reply's Digests, offered or not, as a faulty peer
// might. echo decides the digest it names for an offered key.
type batchVerdicts struct {
	Transport
	echo func(offer uint64) uint64
}

func (b batchVerdicts) Call(addr string, req Message) (Message, error) {
	if req.Op != OpGetBatch {
		return b.Transport.Call(addr, req)
	}
	resp := Message{Op: req.Op, Ok: true, Addr: addr}
	for _, item := range req.KV {
		resp.Digests = append(resp.Digests, KeyDigest{Key: item.Key})
	}
	for _, d := range req.Digests {
		resp.Digests = append(resp.Digests, KeyDigest{Key: d.Key, Digest: b.echo(d.Digest)})
	}
	return resp, nil
}

// checkBatchVerdictsRefused runs a batch of offered and unoffered keys
// through a peer that answers each with a verdict: the verdicts on the
// keys offered nothing, and every verdict when wrongEcho names another
// digest than the offer, fail their key with errUnofferedVerdict.
func checkBatchVerdictsRefused(t *testing.T, mt Transport, members []string, wrongEcho bool) {
	t.Helper()
	echo := func(offer uint64) uint64 { return offer }
	if wrongEcho {
		echo = func(offer uint64) uint64 { return offer + 1 }
	}
	faulty := NewCluster(batchVerdicts{mt, echo}, 1, 0)
	for _, m := range members {
		faulty.Track(m)
	}
	keys := make([]keyspace.Key, 6)
	offers := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("batch-verdict-%d", i))
		if i%2 == 0 {
			offers[i] = uint64(i + 1)
		}
	}
	for i, r := range faulty.GetBatch(context.Background(), keys, offers, 8) {
		if refused := offers[i] == 0 || wrongEcho; refused != (r.Err == errUnofferedVerdict) || r.Unchanged == refused {
			t.Fatalf("key %d (offer %x, wrong echo %v): %+v", i, offers[i], wrongEcho, r)
		}
	}
}
