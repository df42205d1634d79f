package wire

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// recordingTransport logs every request a client sends, so a test can
// count RPCs and see which form (TTL > 0 owner-addressed, TTL 0 local)
// each one took.
type recordingTransport struct {
	Transport
	mu   sync.Mutex
	sent []sentRequest
}

type sentRequest struct {
	addr string
	req  Message
}

func (r *recordingTransport) Call(addr string, req Message) (Message, error) {
	r.mu.Lock()
	r.sent = append(r.sent, sentRequest{addr, req})
	r.mu.Unlock()
	return r.Transport.Call(addr, req)
}

// take returns the requests logged since the last take.
func (r *recordingTransport) take() []sentRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.sent
	r.sent = nil
	return out
}

// keyWhere returns the first key of a seeded series that ok accepts.
func keyWhere(t *testing.T, prefix string, ok func(keyspace.Key) bool) keyspace.Key {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if k := keyspace.NewKey(fmt.Sprintf("%s-%d", prefix, i)); ok(k) {
			return k
		}
	}
	t.Fatalf("no %s key satisfies the condition", prefix)
	return keyspace.Key{}
}

// localEntries reads addr's own copy of key (TTL 0).
func localEntries(t *testing.T, tr Transport, addr string, key keyspace.Key) []overlay.Entry {
	t.Helper()
	resp, err := tr.Call(addr, Message{Op: OpGet, Key: key})
	if err != nil || resp.Err != "" {
		t.Fatalf("local get at %s: %v %s", addr, err, resp.Err)
	}
	return resp.Entries
}

func totalForwards(nodes []*Node) int64 {
	var sum int64
	for _, n := range nodes {
		sum += n.ownerForwards.Value()
	}
	return sum
}

// TestSingleKeyOpsCostOneRPC: over a converged ring whose members are all
// tracked, Put, Get and Remove each cost the client exactly one
// owner-addressed RPC, name the true owner in Route.Node with zero
// forwarding steps, and record those zero steps in dht_lookup_hops.
func TestSingleKeyOpsCostOneRPC(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 5, 0)
	rec := &recordingTransport{Transport: mt}
	cluster := NewCluster(rec, 3, 0)
	cluster.Instrument(telemetry.NewRegistry())
	for _, n := range nodes {
		cluster.Track(n.Addr())
	}
	entry := overlay.Entry{Kind: "d", Value: "v"}
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("one-rpc-%d", i))
		want, err := full.FindOwner(key)
		if err != nil {
			t.Fatal(err)
		}
		check := func(op string, route overlay.Route, err error) {
			t.Helper()
			sent := rec.take()
			if err != nil || route.Node != want.Node || route.Hops != 0 {
				t.Fatalf("%s key %d: route %+v, %v; want owner %s in 0 hops", op, i, route, err, want.Node)
			}
			if len(sent) != 1 || sent[0].addr != want.Node || sent[0].req.TTL <= 0 {
				t.Fatalf("%s key %d: sent %+v, want one owner-addressed RPC to %s", op, i, sent, want.Node)
			}
		}
		route, err := cluster.Put(key, entry)
		check("put", route, err)
		entries, route, err := cluster.Get(key)
		check("get", route, err)
		if len(entries) != 1 || entries[0] != entry {
			t.Fatalf("get key %d = %v", i, entries)
		}
		removed, err := cluster.Remove(key, entry)
		check("remove", overlay.Route{Node: want.Node}, err)
		if !removed {
			t.Fatalf("remove key %d reported nothing removed", i)
		}
	}
	if h := cluster.hops.Load(); h.Count() != 60 || h.Sum() != 0 {
		t.Fatalf("dht_lookup_hops: %d observations summing to %v, want 60 of 0 hops", h.Count(), h.Sum())
	}
	if got := totalForwards(nodes); got != 0 {
		t.Fatalf("%d requests were forwarded in a converged, fully tracked ring", got)
	}
	if got := cluster.ownerFallbacks.Value(); got != 0 {
		t.Fatalf("%d operations fell back to routed resolution", got)
	}
}

// TestStaleViewIsForwardedToTrueOwner: a node that joined the ring but
// was never Tracked owns the key. Put, Get and Remove through the
// presumed (old) owner still cost the client one RPC each; the old owner
// forwards them, Route.Node names the true owner, and a removed entry is
// readable from neither node afterwards.
func TestStaleViewIsForwardedToTrueOwner(t *testing.T) {
	full, nodes, mt := startBatchRing(t, 5, 1)
	untracked := nodes[4]
	rec := &recordingTransport{Transport: mt}
	stale := NewCluster(rec, 3, 1)
	for _, n := range nodes[:4] {
		stale.Track(n.Addr())
	}
	key := keyWhere(t, "stale-view", func(k keyspace.Key) bool {
		route, err := full.FindOwner(k)
		return err == nil && route.Node == untracked.Addr()
	})
	presumed := untracked.Successor()
	entry := overlay.Entry{Kind: "d", Value: "v"}

	route, err := stale.Put(key, entry)
	if err != nil || route.Node != untracked.Addr() || route.Hops < 1 {
		t.Fatalf("put: route %+v, %v; want true owner %s after ≥ 1 forward", route, err, untracked.Addr())
	}
	if sent := rec.take(); len(sent) != 1 || sent[0].addr != presumed {
		t.Fatalf("put sent %+v, want one RPC to the presumed owner %s", sent, presumed)
	}
	if got := localEntries(t, mt, untracked.Addr(), key); len(got) != 1 {
		t.Fatalf("true owner holds %v after the forwarded put", got)
	}
	entries, route, err := stale.Get(key)
	if err != nil || route.Node != untracked.Addr() || len(entries) != 1 || entries[0] != entry {
		t.Fatalf("get: %v via %+v, %v", entries, route, err)
	}
	if sent := rec.take(); len(sent) != 1 {
		t.Fatalf("get sent %d RPCs, want 1", len(sent))
	}
	removed, err := stale.Remove(key, entry)
	if err != nil || !removed {
		t.Fatalf("remove = %v, %v", removed, err)
	}
	for _, addr := range []string{untracked.Addr(), presumed} {
		if got := localEntries(t, mt, addr, key); len(got) != 0 {
			t.Fatalf("%s still holds %v after the remove", addr, got)
		}
	}
	if entries, _, err := full.Get(key); err != nil || len(entries) != 0 {
		t.Fatalf("removed entry readable again: %v, %v", entries, err)
	}
	if got := totalForwards(nodes); got != 3 {
		t.Fatalf("wire_owner_forwards_total = %d, want 3 (put, get, remove)", got)
	}
}

// TestDeadPresumedOwnerFallsBackToRouting tracks a phantom member that
// owns an arc of the ring but answers nothing: single-key operations
// presumed to it fall back to Chord-routed resolution and still land on
// (and read from) the live owner.
func TestDeadPresumedOwnerFallsBackToRouting(t *testing.T) {
	cluster, _, _ := startBatchRing(t, 4, 0)
	const phantom = "mem:dead-phantom"
	cluster.Track(phantom)
	members := cluster.ring()
	key := keyWhere(t, "dead-owner", func(k keyspace.Key) bool {
		return members[ownerIndex(members, k)].addr == phantom
	})
	entry := overlay.Entry{Kind: "d", Value: "v"}
	route, err := cluster.Put(key, entry)
	if err != nil || route.Node == phantom || route.Node == "" {
		t.Fatalf("put with dead presumed owner: %+v, %v", route, err)
	}
	entries, groute, err := cluster.Get(key)
	if err != nil || len(entries) != 1 || groute.Node != route.Node {
		t.Fatalf("get = %v via %+v, %v; want the entry from %s", entries, groute, err, route.Node)
	}
	if removed, err := cluster.Remove(key, entry); err != nil || !removed {
		t.Fatalf("remove = %v, %v", removed, err)
	}
	if got := cluster.ownerFallbacks.Value(); got != 3 {
		t.Fatalf("wire_owner_fallbacks_total = %d, want 3", got)
	}
	if m := cluster.Metrics(); m.OwnerReadFailures != 0 || m.FailoverReads != 0 {
		t.Fatalf("routed fallback served, yet %+v", m)
	}
}

// shedTransport answers every request to addr with an overload NACK, as
// that node's admission control does when it is saturated.
type shedTransport struct {
	Transport
	addr string
}

func (s shedTransport) Call(addr string, req Message) (Message, error) {
	if addr == s.addr {
		return overloadNACK(req)
	}
	return s.Transport.Call(addr, req)
}

// TestSheddingOwnerIsAskedOnce: a presumed owner that sheds every
// request is alive, so single-key and batched mutations alike send it
// exactly one request, resolve nothing through Chord routing, never ask
// it again, and end in ErrOverload — the one fallback rule both follow.
func TestSheddingOwnerIsAskedOnce(t *testing.T) {
	_, nodes, mt := startBatchRing(t, 5, 0)
	hot := nodes[2].Addr()
	rec := &recordingTransport{Transport: shedTransport{Transport: mt, addr: hot}}
	cluster := NewCluster(rec, 3, 0)
	for _, n := range nodes {
		cluster.Track(n.Addr())
	}
	members := cluster.ring()
	key := keyWhere(t, "shed", func(k keyspace.Key) bool { return members[ownerIndex(members, k)].addr == hot })
	entry := overlay.Entry{Kind: "d", Value: "v"}
	items := []overlay.KeyEntry{{Key: key, Entry: entry}}
	ctx := context.Background()
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"PutCtx", func() error { _, err := cluster.PutCtx(ctx, key, entry); return err }},
		{"PutBatch", func() error { return cluster.PutBatch(ctx, items) }},
		{"RemoveBatch", func() error { _, err := cluster.RemoveBatch(ctx, items); return err }},
	} {
		err := op.run()
		toHot, lookups := 0, 0
		for _, s := range rec.take() {
			if s.addr == hot {
				toHot++
			}
			if s.req.Op == OpFindSuccessor {
				lookups++
			}
		}
		if !errors.Is(err, ErrOverload) || toHot != 1 || lookups != 0 {
			t.Errorf("%s: %v after %d requests to the shedding owner and %d lookups; want ErrOverload after 1 and 0",
				op.name, err, toHot, lookups)
		}
	}
	if got := cluster.ownerFallbacks.Value() + cluster.batchFallbacks.Value(); got != 0 {
		t.Errorf("%d fallbacks routed around an overloaded owner", got)
	}
}

// lostForward fails the first node-forwarded batch of each kind (TTL
// below routeTTL) sent to addr.
type lostForward struct {
	Transport
	mu   sync.Mutex
	addr string
	lost map[Op]bool
}

func (l *lostForward) Call(addr string, req Message) (Message, error) {
	if (req.Op == OpPutBatch || req.Op == OpRemoveBatch) && req.TTL < routeTTL {
		l.mu.Lock()
		lose := addr == l.addr && !l.lost[req.Op]
		l.lost[req.Op] = l.lost[req.Op] || lose
		l.mu.Unlock()
		if lose {
			return Message{}, fmt.Errorf("%w: %s (forward lost)", ErrUnreachable, addr)
		}
	}
	return l.Transport.Call(addr, req)
}

// TestBatchFallbackAfterFailedForward: the presumed owner p of a batch
// group applies the keys it owns, fails to forward the rest to u (a
// member the client does not track), and NACKs. The fallback routes
// every key: p's own keys route back to p, so p is sent those alone — a
// request it has not failed — and u the others, and the batch succeeds.
// Both batched mutations follow the rule, on either fan-out path.
func TestBatchFallbackAfterFailedForward(t *testing.T) {
	t.Run("workers", func(t *testing.T) { testBatchFallbackAfterFailedForward(t, false) })
	t.Run("in-process", func(t *testing.T) { testBatchFallbackAfterFailedForward(t, true) })
}

func testBatchFallbackAfterFailedForward(t *testing.T, inProcess bool) {
	lf := &lostForward{Transport: NewMemTransport(), lost: make(map[Op]bool)}
	ring := idleNodes(t, func() Transport { return lf }, 5)
	burstJoin(t, startOrder(ring))
	stabilizeRound(ring, 1)
	if err := ringErr(ring); err != nil {
		t.Fatal(err)
	}
	u, p := ring[2], ring[3]
	lf.mu.Lock()
	lf.addr = u.addr
	lf.mu.Unlock()
	rec := &recordingTransport{Transport: lf}
	cluster := NewCluster(rec, 1, 0)
	cluster.inProcess = inProcess // the wrappers hide MemTransport's
	for _, n := range ring {
		if n != u {
			cluster.Track(n.Addr())
		}
	}
	var items []overlay.KeyEntry
	for i, arc := range []struct{ from, to *Node }{{ring[1], u}, {u, p}} {
		key := keyWhere(t, fmt.Sprint("lost-forward-", i), func(k keyspace.Key) bool { return k.Between(arc.from.id, arc.to.id) })
		items = append(items, overlay.KeyEntry{Key: key, Entry: overlay.Entry{Kind: "d", Value: "v"}})
	}
	holds := func(n *Node, it overlay.KeyEntry) int { return len(localEntries(t, lf, n.addr, it.Key)) }
	ctx := context.Background()
	for _, op := range []struct {
		name string
		run  func() error
		want int // entries each key's owner holds afterwards
	}{
		{"PutBatch", func() error { return cluster.PutBatch(ctx, items) }, 1},
		{"RemoveBatch", func() error { _, err := cluster.RemoveBatch(ctx, items); return err }, 0},
	} {
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if holds(u, items[0]) != op.want || holds(p, items[1]) != op.want {
			t.Fatalf("%s: u holds %d of its key, p %d of its own; want %d each",
				op.name, holds(u, items[0]), holds(p, items[1]), op.want)
		}
		var toP [][]keyspace.Key
		toU := 0
		for _, s := range rec.take() {
			switch {
			case s.req.Op == OpFindSuccessor:
			case s.addr == p.addr:
				toP = append(toP, batchKeys(s.req))
			case s.addr == u.addr:
				toU++
			}
		}
		if len(toP) != 2 || len(toP[0]) != 2 || len(toP[1]) != 1 || toP[1][0] != items[1].Key || toU != 1 {
			t.Fatalf("%s: p was sent %v and u %d batches; want p the group, then its own key alone, and u its key once",
				op.name, toP, toU)
		}
	}
	if got := cluster.batchFallbacks.Value(); got != 2 {
		t.Fatalf("%d batch fallbacks, want one per mutation", got)
	}
	if got := cluster.workers.started.Load(); inProcess && got != 0 {
		t.Fatalf("in-process fallback started %d workers, want 0", got)
	}
}

// TestStalePredecessorServesLocally: the receiving node's predecessor
// pointer names a peer that is alive but not part of the ring (so
// neither stabilization nor the liveness check replaces it) and
// disclaims the key; routing resolves the key back to the node itself,
// which must serve it locally instead of bouncing it.
func TestStalePredecessorServesLocally(t *testing.T) {
	cluster, nodes, mt := startBatchRing(t, 4, 0)
	node := nodes[1]
	realPred := idOf(node.Predecessor())
	var ghostAddr string
	for i := 0; ghostAddr == ""; i++ {
		if addr := fmt.Sprintf("mem:ghost-%d", i); idOf(addr).BetweenOpen(realPred, node.ID()) {
			ghostAddr = addr
		}
	}
	ghost, err := Start(Config{Transport: mt, Addr: ghostAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ghost.Stop)
	node.mu.Lock()
	node.pred = ghostAddr
	node.mu.Unlock()

	key := keyWhere(t, "stale-pred", func(k keyspace.Key) bool { return k.Between(realPred, ghost.ID()) })
	if node.owns(key) {
		t.Fatal("the node's stale predecessor does not disclaim the key")
	}
	entry := overlay.Entry{Kind: "d", Value: "v"}
	route, err := cluster.Put(key, entry)
	if err != nil || route.Node != node.Addr() {
		t.Fatalf("put: %+v, %v; want served by %s itself", route, err, node.Addr())
	}
	entries, route, err := cluster.Get(key)
	if err != nil || route.Node != node.Addr() || len(entries) != 1 || entries[0] != entry {
		t.Fatalf("get: %v via %+v, %v", entries, route, err)
	}
	if removed, err := cluster.Remove(key, entry); err != nil || !removed {
		t.Fatalf("remove = %v, %v", removed, err)
	}
	if got := node.Predecessor(); got != ghostAddr {
		t.Fatalf("predecessor healed to %s mid-test; the stale path was not exercised", got)
	}
	if got := totalForwards(nodes); got != 0 {
		t.Fatalf("%d requests were forwarded; want all served where they arrived", got)
	}
}

// TestDisagreeingViewsExhaustTTL: two nodes each believe the other owns
// the key. An owner-addressed request bounces between them one TTL step
// at a time and is NACKed when the budget is spent — never served by a
// node that disclaims the key, never looping.
func TestDisagreeingViewsExhaustTTL(t *testing.T) {
	mt := NewMemTransport()
	var pair [2]*Node
	for i := range pair {
		// The maintenance loop never ticks: the planted state stays.
		n, err := Start(Config{Transport: mt, Addr: "mem:0", StabilizeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		pair[i] = n
	}
	a, b := pair[0], pair[1]
	a.succs, a.pred = []string{b.addr}, b.addr
	b.succs, b.pred = []string{a.addr}, a.addr
	// a places b at idOf(b.addr) and hands it (a, b]; b believes it sits
	// just past a, owning next to nothing, with everything else a's.
	key := keyWhere(t, "disputed", func(k keyspace.Key) bool { return k.Between(a.id, b.id) })
	b.id = a.id.Add(0)
	if a.owns(key) || b.owns(key) {
		t.Fatal("setup: one side claims the key")
	}

	const ttl = 8
	for _, op := range []Op{OpGet, OpPut, OpRemove} {
		before := totalForwards(pair[:])
		resp, err := mt.Call(a.addr, Message{Op: op, Key: key, Entry: overlay.Entry{Kind: "d", Value: "v"}, TTL: ttl})
		if err != nil || !strings.Contains(resp.Err, ErrTTLExceeded.Error()) {
			t.Fatalf("%v: %+v, %v; want a TTL-exceeded NACK", op, resp, err)
		}
		if got := totalForwards(pair[:]) - before; got != ttl-1 {
			t.Fatalf("%v was forwarded %d times, want %d", op, got, ttl-1)
		}
	}
	cluster := NewCluster(mt, 1, 0)
	cluster.Track(a.addr)
	cluster.Track(b.addr)
	if _, err := cluster.Put(key, overlay.Entry{Kind: "d", Value: "v"}); err == nil {
		t.Fatal("put acked although both nodes disclaim the key")
	}
	if a.KeyCount()+b.KeyCount() != 0 {
		t.Fatal("a disclaimed put was stored")
	}
}

// TestLocalFormsNeverForward: with TTL 0, OpGet and OpRemoveReplica (its
// one form, the key and entry in KV) act on exactly the addressed node's
// copy even when it does not own the key; the same OpGet with a TTL is
// forwarded. The ring is idle: a repair round would ship the tombstone
// the local remove leaves at the non-owner on to the owner — deletion
// records travel, by design — and race the owner's copy checked below.
func TestLocalFormsNeverForward(t *testing.T) {
	mt := NewMemTransport()
	nodes := idleNodes(t, func() Transport { return mt }, 3)
	burstJoin(t, nodes)
	stabilizeRound(nodes, 1)
	if err := ringErr(nodes); err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(mt, 1, 0)
	for _, n := range nodes {
		cluster.Track(n.Addr())
	}
	key := keyspace.NewKey("local-forms")
	entry := overlay.Entry{Kind: "d", Value: "v"}
	route, err := cluster.Put(key, entry)
	if err != nil {
		t.Fatal(err)
	}
	var other string
	for _, n := range nodes {
		if n.Addr() != route.Node {
			other = n.Addr()
		}
	}
	if got := localEntries(t, mt, other, key); len(got) != 0 {
		t.Fatalf("local get at a non-owner returned %v", got)
	}
	resp, err := mt.Call(other, Message{Op: OpRemoveReplica, KV: []KeyEntries{{Key: key, Entries: []overlay.Entry{entry}}}})
	if err != nil || resp.Err != "" || resp.Ok {
		t.Fatalf("local remove at a non-owner: %+v, %v", resp, err)
	}
	if got := totalForwards(nodes); got != 0 {
		t.Fatalf("TTL-0 requests were forwarded %d times", got)
	}
	if got := localEntries(t, mt, route.Node, key); len(got) != 1 {
		t.Fatalf("owner's copy = %v after a local remove elsewhere", got)
	}
	resp, err = mt.Call(other, Message{Op: OpGet, Key: key, TTL: 4})
	if err != nil || len(resp.Entries) != 1 || resp.Addr != route.Node || resp.Hops < 1 {
		t.Fatalf("owner-addressed get at a non-owner: %+v, %v", resp, err)
	}
}

// TestFindOwnerRetriesRemoteRoutingError: an entry point that is
// reachable but cannot route — its finger target crashed, so it answers
// with the hop's error — is treated like an unreachable entry: another
// member is tried, and the retry is counted. Only a lookup that draws the
// broken entry for all entryAttempts tries fails, with its error.
func TestFindOwnerRetriesRemoteRoutingError(t *testing.T) {
	const broken, healthy, owner = "entry-broken", "entry-healthy", "the-owner"
	ft := newFuncTransport(func(_ int, addr string, req Message) (Message, error) {
		if addr == broken {
			return Message{Op: req.Op, Err: ErrUnreachable.Error() + ": crashed-finger"}, nil
		}
		return Message{Op: req.Op, Addr: owner, Hops: 2}, nil
	})
	cluster := NewCluster(ft, 1, 0)
	cluster.Track(broken)
	cluster.Track(healthy)
	recovered := 0
	for i := 0; i < 20; i++ {
		before := ft.callCount(broken)
		route, err := cluster.FindOwner(keyspace.NewKey(fmt.Sprintf("k%d", i)))
		brokenAnswers := ft.callCount(broken) - before
		switch {
		case err == nil && route.Node == owner:
			if brokenAnswers > 0 {
				recovered++
			}
		case brokenAnswers == entryAttempts && err != nil && strings.Contains(err.Error(), "crashed-finger"):
		default:
			t.Fatalf("lookup %d after %d broken answers: %+v, %v", i, brokenAnswers, route, err)
		}
	}
	if recovered == 0 {
		t.Fatal("no lookup moved on from the broken entry; the test proved nothing")
	}
	if got := cluster.Metrics().EntryRetries; got != int64(ft.callCount(broken)) {
		t.Fatalf("EntryRetries = %d, want one per answer of the broken entry (%d)", got, ft.callCount(broken))
	}
}

// TestRoutedAnswerOutsideReplicaWindow: the key's presumed owner and its
// whole failover window crashed, and routing — over a ring already
// healing around them — names a live node outside that window. Data from
// it is served as it is; its empty answer is not trusted: the replicas
// are asked, and when none serves the presumed owner's error comes back.
func TestRoutedAnswerOutsideReplicaWindow(t *testing.T) {
	const replication = 1
	entry := overlay.Entry{Kind: "d", Value: "v"}
	for _, tc := range []struct {
		name         string
		outsiderHas  bool // the routed node outside the window holds the entry
		replicaAlive bool // the window's last replica is up and holds the entry
		wantErr      bool
	}{
		{name: "empty outside the window is not an answer", wantErr: true},
		{name: "data outside the window is served", outsiderHas: true},
		{name: "a replica outranks the empty outsider", replicaAlive: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var window []string
			var outsider, replica string
			key := keyspace.NewKey("outside-window")
			ft := newFuncTransport(func(_ int, addr string, req Message) (Message, error) {
				switch {
				case addr == replica && tc.replicaAlive:
					return Message{Op: req.Op, Addr: addr, Entries: []overlay.Entry{entry}}, nil
				case slices.Contains(window, addr):
					return Message{}, fmt.Errorf("%w: %s (crashed)", ErrUnreachable, addr)
				case req.Op == OpGet && addr == outsider && tc.outsiderHas:
					return Message{Op: req.Op, Addr: addr, Entries: []overlay.Entry{entry}}, nil
				default: // live nodes route every key to the outsider
					return Message{Op: req.Op, Addr: outsider, Hops: 1}, nil
				}
			})
			cluster := NewCluster(ft, 1, replication)
			for i := 0; i < 8; i++ {
				cluster.Track(fmt.Sprintf("member-%d", i))
			}
			window = cluster.replicaFollowers(key, "", replication+2)
			replica = window[len(window)-1]
			outsider = cluster.replicaFollowers(key, "", len(window)+1)[len(window)]

			entries, route, err := cluster.Get(key)
			if tc.wantErr {
				if !errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), window[0]) {
					t.Fatalf("get = %v via %+v, %v; want the presumed owner %s's unreachable error", entries, route, err, window[0])
				}
				for _, cand := range window[1:] {
					if ft.callCount(cand) == 0 {
						t.Fatalf("replica %s was never asked", cand)
					}
				}
				return
			}
			want := outsider
			if tc.replicaAlive {
				want = replica
			}
			if err != nil || len(entries) != 1 || entries[0] != entry || route.Node != want {
				t.Fatalf("get = %v via %+v, %v; want the entry from %s", entries, route, err, want)
			}
		})
	}
}

// TestMembershipChangesUnderTraffic: Track and Untrack replace the
// membership snapshot while readers pick owners from it without a lock.
// Every read still succeeds — an untracked node's keys are forwarded to
// it — and the race detector sees the two sides meet.
func TestMembershipChangesUnderTraffic(t *testing.T) {
	cluster, nodes, _ := startBatchRing(t, 4, 0)
	entry := overlay.Entry{Kind: "d", Value: "v"}
	keys := make([]keyspace.Key, 32)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("traffic-%d", i))
		if _, err := cluster.Put(keys[i], entry); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				entries, _, err := cluster.Get(keys[i%len(keys)])
				if err != nil || len(entries) != 1 {
					t.Errorf("get under membership change: %v, %v", entries, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		cluster.Untrack(nodes[i%len(nodes)].Addr())
		cluster.Track(nodes[i%len(nodes)].Addr())
	}
	close(stop)
	wg.Wait()
}
