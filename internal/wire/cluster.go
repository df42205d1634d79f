package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// entryAttempts bounds how many entry points FindOwner tries before
// giving up on routing. This is bootstrap redundancy, deliberately
// independent of the replication factor: even an unreplicated ring wants
// a second entry point when the first tracked member just crashed.
const entryAttempts = 3

var errNoMembers = errors.New("wire: cluster has no members")

// member is one tracked address with its ring position, hashed once at
// Track so that picking a key's owner compares IDs instead of
// re-deriving them.
type member struct {
	addr string
	id   keyspace.Key
}

// Cluster adapts a set of live wire nodes to the overlay contract, so the
// indexing layer runs unchanged over a real message-passing network. The
// cluster tracks member addresses (the deployment's bootstrap knowledge)
// and addresses every operation to the key's PRESUMED owner — the first
// tracked member at or past the key — in one RPC; a node handed a key it
// does not own forwards it by the Chord protocol itself, and only when
// the presumed owner cannot serve does the cluster spend a routing round
// through a pseudo-randomly chosen member (DESIGN.md §12).
type Cluster struct {
	transport Transport
	// replication mirrors the ring's Config.ReplicationFactor: reads
	// fail over across exactly the owner's replication successors (the
	// set writes fan out to, plus one slot of post-Leave migration
	// slack) and removes sweep the same window.
	replication int

	// mu serializes Track/Untrack and guards rng. members is the
	// ring-ordered membership, replaced whole on every change, so the
	// per-operation paths read it without the lock.
	mu      sync.Mutex
	members atomic.Pointer[[]member]
	rng     *rand.Rand

	// workers runs the fan-out of batched operations, fallbacks and
	// hedged reads. A Cluster has no Close: idle workers exit on their
	// own (DESIGN.md §30). inProcess, fixed at NewCluster, says the
	// transport runs every call on the caller's goroutine, where fanOut
	// runs its tasks in turn instead (DESIGN.md §40).
	workers   *workers
	inProcess bool

	ownerReadFailures *telemetry.Counter
	failoverReads     *telemetry.Counter
	entryRetries      *telemetry.Counter
	hedgedGets        *telemetry.Counter
	hedgeWins         *telemetry.Counter
	batchPutRPCs      *telemetry.Counter
	batchPutKeys      *telemetry.Counter
	batchRemoveRPCs   *telemetry.Counter
	batchRemoveKeys   *telemetry.Counter
	batchGetRPCs      *telemetry.Counter
	batchGetKeys      *telemetry.Counter
	batchFallbacks    *telemetry.Counter
	ownerFallbacks    *telemetry.Counter
	getOffers         *telemetry.Counter
	// hops and rpcLatency are nil until Instrument sets them, once;
	// observing on nil histograms is a no-op, so the hot paths stay
	// unconditional and lock-free.
	hops       atomic.Pointer[telemetry.Histogram]
	rpcLatency atomic.Pointer[telemetry.Histogram]
}

// ClusterMetrics is a point-in-time snapshot of the cluster adapter's
// failure handling. The live counters behind it are atomic, so taking a
// snapshot while the cluster serves traffic is race-free.
type ClusterMetrics struct {
	// OwnerReadFailures counts Gets whose routed owner could not serve.
	OwnerReadFailures int64
	// FailoverReads counts Gets answered by a replica (a ring member
	// past the unreachable owner) instead of the owner.
	FailoverReads int64
	// EntryRetries counts FindOwner attempts that had to switch to
	// another entry point because the first was unreachable.
	EntryRetries int64
	// HedgedGets counts reads that fired a hedged replica Get because
	// the owner was slow past the hedge delay.
	HedgedGets int64
	// HedgeWins counts hedged reads where the replica answered first.
	HedgeWins int64
}

var _ overlay.Substrate = (*Cluster)(nil)

// NewCluster creates a cluster handle over the transport. replication
// must equal the ring nodes' Config.ReplicationFactor — it sizes the
// read-failover and remove-sweep window, so passing the write fan-out
// here is what keeps the two from ever disagreeing. 0 is the paper's
// unreplicated ring (DESIGN.md §25): reads are never hedged, and a key
// whose owner crashed reads as an empty success from the node that
// inherited its range. Keys move there as at any replication: a new
// owner pulls its range from its successor by repair exchange, and the
// old holder drops its copy in its next repair round, once the new
// owner has acked it (DESIGN.md §27, §29).
func NewCluster(transport Transport, seed int64, replication int) *Cluster {
	return &Cluster{
		transport:   transport,
		replication: replication,
		rng:         rand.New(rand.NewSource(seed)),
		workers:     newWorkers(),
		inProcess:   deliversInProcess(transport),
		ownerReadFailures: telemetry.NewCounter("wire_owner_read_failures_total",
			"Gets whose routed owner could not serve."),
		failoverReads: telemetry.NewCounter("wire_failover_reads_total",
			"Gets answered by a replica instead of the owner."),
		entryRetries: telemetry.NewCounter("wire_entry_retries_total",
			"FindOwner attempts that switched entry points after an unreachable member."),
		hedgedGets: telemetry.NewCounter("wire_hedged_gets_total",
			"Reads that fired a hedged replica Get because the owner was slow."),
		hedgeWins: telemetry.NewCounter("wire_hedge_wins_total",
			"Hedged reads where the replica answered before the owner."),
		batchPutRPCs: telemetry.NewCounter("wire_batch_put_rpcs_total",
			"Per-owner OpPutBatch messages sent by batched puts."),
		batchPutKeys: telemetry.NewCounter("wire_batch_put_keys_total",
			"(key, entry) items carried by batched puts."),
		batchRemoveRPCs: telemetry.NewCounter("wire_batch_remove_rpcs_total",
			"Per-owner OpRemoveBatch messages sent by batched removes."),
		batchRemoveKeys: telemetry.NewCounter("wire_batch_remove_keys_total",
			"(key, entry) items carried by batched removes."),
		batchGetRPCs: telemetry.NewCounter("wire_batch_get_rpcs_total",
			"Per-owner OpGetBatch messages sent by batched gets."),
		batchGetKeys: telemetry.NewCounter("wire_batch_get_keys_total",
			"Distinct keys carried by batched gets."),
		batchFallbacks: telemetry.NewCounter("wire_batch_fallbacks_total",
			"Per-owner batch groups that fell back from one-hop presumed-owner routing to Chord-routed resolution."),
		ownerFallbacks: telemetry.NewCounter("wire_owner_fallbacks_total",
			"Single-key operations that fell back from the presumed owner to Chord-routed resolution."),
		getOffers: telemetry.NewCounter("wire_get_offers_total",
			"Conditional gets: keys read, alone or in a batch, with an offer to the owner of the digest of a set the client holds."),
	}
}

// Instrument attaches the cluster's failover counters to reg and starts
// recording routing-hop and RPC-latency histograms there.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Attach(c.ownerReadFailures, c.failoverReads, c.entryRetries, c.hedgedGets, c.hedgeWins,
		c.batchPutRPCs, c.batchPutKeys, c.batchRemoveRPCs, c.batchRemoveKeys, c.batchGetRPCs, c.batchGetKeys,
		c.batchFallbacks, c.ownerFallbacks, c.getOffers)
	c.hops.Store(reg.Histogram("dht_lookup_hops",
		"Forwarding steps taken to reach the owner of a key (0: the presumed owner served).", telemetry.HopBuckets))
	c.rpcLatency.Store(reg.Histogram("wire_rpc_latency_seconds",
		"Wall-clock latency of cluster-issued RPCs, in seconds.", telemetry.LatencyBuckets))
}

// ctxCaller is the optional transport extension for deadline-aware
// calls. RetryingTransport implements it; plain transports are wrapped
// with an up-front ctx check instead (their in-flight sends are
// synchronous and cannot be interrupted anyway).
type ctxCaller interface {
	CallCtx(ctx context.Context, addr string, req Message) (Message, error)
}

// callCtx issues one RPC through the transport, timing it into the RPC
// latency histogram when the cluster is instrumented. The context is
// passed through to the retry layer when the transport supports it, so
// retries and their backoff sleeps stop the moment the caller's budget
// runs out.
func (c *Cluster) callCtx(ctx context.Context, addr string, req Message) (Message, error) {
	start := time.Now()
	var resp Message
	var err error
	if cc, ok := c.transport.(ctxCaller); ok {
		resp, err = cc.CallCtx(ctx, addr, req)
	} else if err = ctx.Err(); err == nil {
		resp, err = c.transport.Call(addr, req)
	}
	if lat := c.rpcLatency.Load(); lat != nil {
		lat.Observe(time.Since(start).Seconds())
	}
	return resp, err
}

// Metrics returns a snapshot of the cluster's failover counters.
func (c *Cluster) Metrics() ClusterMetrics {
	return ClusterMetrics{
		OwnerReadFailures: c.ownerReadFailures.Value(),
		FailoverReads:     c.failoverReads.Value(),
		EntryRetries:      c.entryRetries.Value(),
		HedgedGets:        c.hedgedGets.Value(),
		HedgeWins:         c.hedgeWins.Value(),
	}
}

// ring returns the ring-ordered membership. The slice is shared and
// never modified: Track and Untrack replace it.
func (c *Cluster) ring() []member {
	if p := c.members.Load(); p != nil {
		return *p
	}
	return nil
}

// Track adds a member address to the tracked membership.
func (c *Cluster) Track(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.ring()
	if slices.ContainsFunc(old, func(m member) bool { return m.addr == addr }) {
		return
	}
	id := idOf(addr)
	at := sort.Search(len(old), func(i int) bool { return old[i].id.Cmp(id) >= 0 })
	next := slices.Insert(slices.Clone(old), at, member{addr, id})
	c.members.Store(&next)
}

// Untrack removes a member address.
func (c *Cluster) Untrack(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := slices.DeleteFunc(slices.Clone(c.ring()), func(m member) bool { return m.addr == addr })
	c.members.Store(&next)
}

func (c *Cluster) entry() (string, error) {
	members := c.ring()
	if len(members) == 0 {
		return "", errNoMembers
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return members[c.rng.Intn(len(members))].addr, nil
}

// FindOwner routes to the node responsible for key. An entry point that
// cannot route is not fatal: up to entryAttempts members are tried, so a
// lookup survives routing through a cluster whose member list includes
// freshly-crashed nodes. Operations do not call it up front — they
// address the presumed owner directly (viaOwner) and route only when
// that fails.
func (c *Cluster) FindOwner(key keyspace.Key) (overlay.Route, error) {
	return c.FindOwnerCtx(context.Background(), key)
}

// FindOwnerCtx is FindOwner with a deadline budget: entry-point retries
// stop once ctx is done. A routing error reported by a reachable entry
// (a dead hop further along its path, or an exhausted TTL) moves on to
// another entry just as an unreachable entry does — a different member
// routes over different fingers.
func (c *Cluster) FindOwnerCtx(ctx context.Context, key keyspace.Key) (overlay.Route, error) {
	var firstErr error
	for attempt := 0; attempt < entryAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		via, err := c.entry()
		if err != nil {
			return overlay.Route{}, err
		}
		_, route, err := c.routedCall(ctx, via, Message{Op: OpFindSuccessor, Key: key})
		if err == nil {
			return route, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		c.entryRetries.Inc()
		if len(c.ring()) <= 1 {
			break
		}
	}
	return overlay.Route{}, firstErr
}

// routedCall sends a request under the routing TTL and reads the route
// off the reply: the node that answered for the key and the forwarding
// steps taken to reach it. On a single-key operation the TTL makes the
// request owner-addressed — the receiving node checks that it owns the
// key and forwards it to the Chord-routed owner if not — so Hops is 0
// when the caller addressed the right node.
func (c *Cluster) routedCall(ctx context.Context, addr string, req Message) (Message, overlay.Route, error) {
	req.TTL = routeTTL
	resp, err := c.callCtx(ctx, addr, req)
	if err == nil {
		err = remoteError(resp)
	}
	if err != nil {
		return resp, overlay.Route{}, err
	}
	c.hops.Load().Observe(float64(resp.Hops))
	return resp, overlay.Route{Node: resp.Addr, Hops: resp.Hops}, nil
}

// viaOwner runs a single-key operation against key's presumed owner —
// one RPC when the tracked membership is right, and still one from the
// caller's side when it is stale, because the receiving node forwards.
// When that node cannot serve, fallback decides whether op runs once
// more at the Chord-routed owner, as it does for a batch group. tried
// is the last node op ran against, for the caller's failover.
func (c *Cluster) viaOwner(ctx context.Context, key keyspace.Key, op func(owner string) (overlay.Route, error)) (route overlay.Route, tried string, err error) {
	members := c.ring()
	if len(members) == 0 {
		return overlay.Route{}, "", errNoMembers
	}
	tried = members[ownerIndex(members, key)].addr
	if route, err = op(tried); err == nil {
		return route, tried, nil
	}
	routes, ok := c.fallback(ctx, tried, err, []KeyEntries{{Key: key}}, c.ownerFallbacks)
	if !ok {
		return route, tried, err
	}
	route, err = op(routes[0].Node)
	route.Hops += routes[0].Hops
	return route, routes[0].Node, err
}

// fallback is the one owner-fallback rule of the cluster's single-key
// and batched operations, for the keys of kv whose call to owner ended
// with err. It resolves every key through Chord routing (fanOut, at most
// defaultBatchParallelism at a time) and returns one route per key. ok
// is false — the operation ends with err — when the call succeeded,
// when the caller's budget is spent, when owner shed the request
// (ErrOverload: it is alive, and resolving it again would spend more of
// the ring's capacity to reach the same node), when a key cannot be
// resolved, or when every key resolves back to owner, which is never
// sent the same request twice. When only some keys of a batch group
// resolve back, owner is sent just those: its NACK may have come from
// forwarding the others after it applied its own (handlePutBatch).
// counter counts the fallbacks that got as far as routing.
func (c *Cluster) fallback(ctx context.Context, owner string, err error, kv []KeyEntries, counter *telemetry.Counter) (routes []overlay.Route, ok bool) {
	if err == nil || ctx.Err() != nil || errors.Is(err, ErrOverload) {
		return nil, false
	}
	counter.Inc()
	routes = make([]overlay.Route, len(kv))
	if c.fanOut(len(kv), defaultBatchParallelism, func(i int) (err error) {
		routes[i], err = c.FindOwnerCtx(ctx, kv[i].Key)
		return err
	}) != nil {
		return nil, false
	}
	back := 0
	for _, r := range routes {
		if r.Node == owner {
			back++
		}
	}
	return routes, back < len(kv)
}

// Put implements overlay.Network.
func (c *Cluster) Put(key keyspace.Key, e overlay.Entry) (overlay.Route, error) {
	return c.PutCtx(context.Background(), key, e)
}

// PutCtx is Put with a deadline budget threaded through the owner write
// (and the routed fallback), so an open-loop workload's abandoned writes
// release their resources instead of queueing behind the deadline.
func (c *Cluster) PutCtx(ctx context.Context, key keyspace.Key, e overlay.Entry) (overlay.Route, error) {
	route, _, err := c.viaOwner(ctx, key, func(owner string) (overlay.Route, error) {
		_, route, err := c.routedCall(ctx, owner, Message{Op: OpPut, Key: key, Entry: e})
		return route, err
	})
	return route, err
}

// Get implements overlay.Network. When the owner cannot serve — it
// crashed, or routing itself failed against a dying ring — the read
// fails over to the tracked members that follow the key's ideal owner
// in ring order: exactly the nodes a replicating ring pushes copies to.
func (c *Cluster) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	return c.GetCtx(context.Background(), key)
}

// GetCtx implements overlay.Substrate: Get with a deadline budget.
// The budget is threaded through the owner read, the routed fallback and
// failover reads, so a recursive multi-hop search stops burning retries
// on a dead hop the moment its budget is spent. With a deadline set, an
// owner that has not answered within half the remaining budget also
// triggers a hedged replica Get — first answer wins. When no replica
// serves either, the error returned is the owner read's, not the
// failover's.
func (c *Cluster) GetCtx(ctx context.Context, key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	entries, route, _, err := c.get(ctx, key, 0)
	return entries, route, err
}

// GetUnlessCtx implements overlay.Substrate: GetCtx whose
// owner-addressed reads — to the presumed owner and to the routed one —
// offer digest, so an owner whose set has it answers CodeUnchanged
// instead of shipping the set. Hedged and failover reads stay
// unconditional: they ask a replica for its own copy.
func (c *Cluster) GetUnlessCtx(ctx context.Context, key keyspace.Key, digest uint64) ([]overlay.Entry, overlay.Route, bool, error) {
	c.getOffers.Inc()
	return c.get(ctx, key, digest)
}

// get is GetCtx, conditional on offer when it is not 0.
func (c *Cluster) get(ctx context.Context, key keyspace.Key, offer uint64) ([]overlay.Entry, overlay.Route, bool, error) {
	var entries []overlay.Entry
	var unchanged bool
	var presumed string
	var presumedErr error
	route, failed, err := c.viaOwner(ctx, key, func(owner string) (route overlay.Route, err error) {
		entries, route, unchanged, err = c.hedgedGet(ctx, key, owner, offer)
		if presumed == "" {
			presumed, presumedErr = owner, err
		}
		return route, err
	})
	if err == nil && presumedErr != nil && len(entries) == 0 && !unchanged &&
		!slices.Contains(c.replicaFollowers(key, "", c.replication+2), route.Node) {
		// The presumed owner failed and routing, over a ring already
		// healing around it, named a node outside the key's tracked owner
		// and failover window. That node holds no copy yet, so its empty
		// answer says nothing about the key: ask the replicas.
		failed, err = presumed, presumedErr
	}
	if err == nil {
		return entries, route, unchanged, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, route, false, cerr
	}
	entries, froute, ferr := c.failoverGet(ctx, key, failed)
	if ferr != nil {
		return nil, route, false, err
	}
	return entries, froute, false, nil
}

// errUnofferedVerdict is an unchanged verdict on a read that offered no
// digest: it names no set, so it cannot be read as one.
var errUnofferedVerdict = errors.New("wire: unchanged verdict on an unconditional get")

// ownerGet reads key at owner with an owner-addressed OpGet that offers
// offer when it is not 0, and reads the reply: the key's entries, or
// the unchanged verdict.
func (c *Cluster) ownerGet(ctx context.Context, key keyspace.Key, owner string, offer uint64) ([]overlay.Entry, overlay.Route, bool, error) {
	req := Message{Op: OpGet, Key: key}
	if offer != 0 {
		req.Digests = []KeyDigest{{Key: key, Digest: offer}}
	}
	resp, route, err := c.routedCall(ctx, owner, req)
	if err != nil {
		return nil, route, false, err
	}
	entries, unchanged, err := getReply(resp, offer != 0)
	if err != nil {
		return nil, overlay.Route{}, false, err
	}
	return entries, route, unchanged, nil
}

// getReply reads an OpGet reply: the key's entries, or, to a request
// that offered a digest, the unchanged verdict.
func getReply(resp Message, offered bool) ([]overlay.Entry, bool, error) {
	if resp.Code != CodeUnchanged {
		return trimEntries(resp.Entries), false, nil
	}
	if !offered {
		return nil, false, errUnofferedVerdict
	}
	return nil, true, nil
}

// hedgedGet reads key through owner (ownerGet), racing a hedged replica
// read if no answer arrived within the hedge delay. Without a deadline
// it is a plain owner read.
// The hedge is a local read (TTL 0): a replica answers from its own
// copy, unconditionally, and never forwards back to the slow owner.
func (c *Cluster) hedgedGet(ctx context.Context, key keyspace.Key, owner string, offer uint64) ([]overlay.Entry, overlay.Route, bool, error) {
	delay := hedgeDelay(ctx)
	if delay <= 0 {
		return c.ownerGet(ctx, key, owner, offer)
	}
	type result struct {
		entries   []overlay.Entry
		unchanged bool
		route     overlay.Route
		hedge     bool
		err       error
	}
	// Buffered so a losing read's worker can deliver and move on even
	// after the winner returned (transports cannot cancel in-flight
	// sends).
	ch := make(chan result, 2)
	c.workers.run(func() {
		entries, route, unchanged, err := c.ownerGet(ctx, key, owner, offer)
		ch <- result{entries: entries, unchanged: unchanged, route: route, err: err}
	})
	timer := time.NewTimer(delay)
	defer timer.Stop()
	outstanding := 1
	hedged := false
	var firstErr error
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedge {
					c.hedgeWins.Inc()
				}
				return r.entries, r.route, r.unchanged, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return nil, overlay.Route{}, false, firstErr
			}
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			if peer := c.hedgePeer(key, owner); peer != "" {
				c.hedgedGets.Inc()
				outstanding++
				c.workers.run(func() {
					entries, err := c.localGet(ctx, peer, key)
					ch <- result{entries: entries, route: overlay.Route{Node: peer, Hops: 1}, hedge: true, err: err}
				})
			}
		case <-ctx.Done():
			return nil, overlay.Route{}, false, ctx.Err()
		}
	}
}

// localGet reads addr's own copy of key (TTL 0: the node neither checks
// ownership nor forwards) — the form hedge and failover reads use.
func (c *Cluster) localGet(ctx context.Context, addr string, key keyspace.Key) ([]overlay.Entry, error) {
	resp, err := c.callCtx(ctx, addr, Message{Op: OpGet, Key: key})
	if err == nil {
		err = remoteError(resp)
	}
	if err != nil {
		return nil, err
	}
	entries, _, err := getReply(resp, false)
	return entries, err
}

// hedgeDelay is how long to wait for the owner before hedging: half the
// caller's remaining budget, or 0 (never hedge) without a deadline.
func hedgeDelay(ctx context.Context) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			return rem / 2
		}
	}
	return 0
}

// hedgePeer picks the first tracked follower of key other than the
// owner — the first replica a hedged read should try ("" when the
// cluster has no other member or replication is off).
func (c *Cluster) hedgePeer(key keyspace.Key, owner string) string {
	if cands := c.replicaFollowers(key, owner, min(c.replication, 1)); len(cands) > 0 {
		return cands[0]
	}
	return ""
}

// ownerIndex returns the position of key's presumed owner in the
// non-empty ring-ordered members: the first at or past key, wrapping.
func ownerIndex(members []member, key keyspace.Key) int {
	i := sort.Search(len(members), func(i int) bool { return members[i].id.Cmp(key) >= 0 })
	if i == len(members) {
		return 0
	}
	return i
}

// replicaFollowers returns up to max tracked members clockwise from
// key's ideal owner position, excluding exclude: the window a
// replicating ring pushes copies to.
func (c *Cluster) replicaFollowers(key keyspace.Key, exclude string, max int) []string {
	members := c.ring()
	if len(members) == 0 || max <= 0 {
		return nil
	}
	start := ownerIndex(members, key)
	out := make([]string, 0, max)
	for i := 0; i < len(members) && len(out) < max; i++ {
		cand := members[(start+i)%len(members)].addr
		if cand == exclude {
			continue
		}
		out = append(out, cand)
	}
	return out
}

// trimEntries normalizes an empty wire slice to nil.
func trimEntries(entries []overlay.Entry) []overlay.Entry {
	if len(entries) == 0 {
		return nil
	}
	return entries
}

// failoverGet reads key from the tracked members clockwise from the
// key's ideal owner, skipping the member that already failed. The
// window is replication+1 candidates — the replica set plus one slot of
// post-Leave migration slack. Every read is local (TTL 0), and the
// first successful replica's answer is returned.
func (c *Cluster) failoverGet(ctx context.Context, key keyspace.Key, failed string) ([]overlay.Entry, overlay.Route, error) {
	cands := c.replicaFollowers(key, failed, c.replication+1)
	if len(cands) == 0 {
		return nil, overlay.Route{}, errNoMembers
	}
	c.ownerReadFailures.Inc()
	var lastErr error = ErrUnreachable
	for i, cand := range cands {
		if err := ctx.Err(); err != nil {
			return nil, overlay.Route{}, err
		}
		entries, err := c.localGet(ctx, cand, key)
		if err != nil {
			lastErr = err
			continue
		}
		c.failoverReads.Inc()
		return entries, overlay.Route{Node: cand, Hops: i + 1}, nil
	}
	return nil, overlay.Route{}, lastErr
}

// Remove implements overlay.Network. The owner's handler propagates the
// delete to its CURRENT successors, but after churn the key's tracked
// followers may not coincide with them — so the cluster additionally
// sweeps every tracked follower the owner's reply does not name as
// having acknowledged that propagation (sweepFollowers, the rule
// removeGroup applies to a batch), ensuring a stale copy cannot be
// resurrected later by a failover read.
func (c *Cluster) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	ctx := context.Background()
	removed := false
	var acked []string
	route, _, err := c.viaOwner(ctx, key, func(owner string) (overlay.Route, error) {
		resp, route, err := c.routedCall(ctx, owner, Message{Op: OpRemove, Key: key, Entry: e})
		removed, acked = resp.Ok, resp.Addrs
		return route, err
	})
	if err != nil {
		return removed, err
	}
	c.sweepFollowers(ctx, route.Node, []KeyEntries{{Key: key, Entries: []overlay.Entry{e}}}, acked)
	return removed, nil
}

// Addrs implements overlay.Network (tracked members in ring order).
func (c *Cluster) Addrs() []string {
	members := c.ring()
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.addr
	}
	return out
}

// StatsOf implements overlay.Network via the OpStats RPC.
func (c *Cluster) StatsOf(addr string) (overlay.NodeStats, error) {
	resp, err := c.callCtx(context.Background(), addr, Message{Op: OpStats})
	if err != nil {
		return overlay.NodeStats{}, err
	}
	if err := remoteError(resp); err != nil {
		return overlay.NodeStats{}, err
	}
	return overlay.NodeStats{
		Keys:          resp.Keys,
		EntriesByKind: resp.EntriesByKind,
		BytesByKind:   resp.BytesByKind,
	}, nil
}

// Size implements overlay.Network.
func (c *Cluster) Size() int { return len(c.ring()) }

// WaitConverged polls until the tracked nodes form one ring in both
// directions — every node's successor and predecessor pointers name its
// ideal ring neighbours — or the timeout elapses. It returns an error
// describing the first unconverged node on timeout. A one-node ring's
// predecessor is not checked: it is never notified.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := c.converged()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: not converged after %v: %w", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *Cluster) converged() error {
	addrs := c.Addrs() // ring order
	count := len(addrs)
	if count == 0 {
		return fmt.Errorf("no members")
	}
	for i, addr := range addrs {
		want := addrs[(i+1)%count]
		resp, err := c.transport.Call(addr, Message{Op: OpGetSuccessor})
		if err != nil {
			return fmt.Errorf("%s unreachable: %v", addr, err)
		}
		if resp.Addr != want {
			return fmt.Errorf("%s successor = %s, want %s", addr, resp.Addr, want)
		}
		if count == 1 {
			continue
		}
		want = addrs[(i+count-1)%count]
		resp, err = c.transport.Call(addr, Message{Op: OpGetPredecessor})
		if err != nil {
			return fmt.Errorf("%s unreachable: %v", addr, err)
		}
		if resp.Addr != want {
			return fmt.Errorf("%s predecessor = %s, want %s", addr, resp.Addr, want)
		}
	}
	return nil
}
