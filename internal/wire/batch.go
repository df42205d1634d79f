package wire

// Batched cluster operations: the client half of OpPutBatch,
// OpRemoveBatch and OpGetBatch. A batch folds duplicate keys, computes
// each key's PRESUMED owner locally from the cluster's ring-ordered
// member list — zero routing RPCs — and ships each owner ONE batched
// message, so publishing a descriptor with a dozen index mappings, or
// reading a search frontier of a dozen keys, costs a handful of
// messages instead of a dozen single ones. (Single-key operations
// address the presumed owner the same way: Cluster.viaOwner.)
// Staleness is handled on both ends. For mutations a receiving node
// forwards keys it does not own through real Chord routing
// (routeForeign), and a presumed owner that cannot serve at all
// makes the client fall back to Chord-routed owner resolution for just
// that group, under the single-key operations' rule (Cluster.fallback).
// For reads the node answers only what it owns and the client
// re-reads every other key through the single-key GetCtx (DESIGN.md
// §19).

import (
	"context"
	"errors"
	"slices"
	"sync"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// defaultBatchParallelism bounds the concurrent per-owner RPCs (and
// fallback owner resolutions) of a PutBatch/RemoveBatch.
const defaultBatchParallelism = 4

var _ overlay.BatchNetwork = (*Cluster)(nil)

// PutBatch implements overlay.Substrate: it stores every item,
// grouping by presumed owner so each responsible node receives one
// OpPutBatch that carries each distinct (key, entry) pair once.
// Batched puts are idempotent end to end — the retry layer retries a
// NACKed or lost batch, and a failed call here may be retried whole.
func (c *Cluster) PutBatch(ctx context.Context, items []overlay.KeyEntry) error {
	kv, pairs := foldItems(items)
	groups, err := c.groupPresumed(kv)
	if err != nil || len(groups) == 0 {
		return err
	}
	c.batchPutRPCs.Add(int64(len(groups)))
	c.batchPutKeys.Add(int64(pairs))
	return c.mutateGroups(ctx, groups, func(owner string, kv []KeyEntries) error {
		return c.putGroup(ctx, owner, kv)
	})
}

// mutateGroups sends every presumed-owner group of a batched mutation,
// at most defaultBatchParallelism at a time. A group whose presumed owner
// could not serve is sent once more, regrouped by Chord-routed owner,
// when the single-key operations' fallback rule (Cluster.fallback) says
// so.
func (c *Cluster) mutateGroups(ctx context.Context, groups map[string][]KeyEntries, send func(owner string, kv []KeyEntries) error) error {
	return c.forEachOwner(groups, defaultBatchParallelism, func(owner string, kv []KeyEntries) error {
		err := send(owner, kv)
		routes, ok := c.fallback(ctx, owner, err, kv, c.batchFallbacks)
		if !ok {
			return err
		}
		regroups := make(map[string][]KeyEntries)
		for i, item := range kv {
			regroups[routes[i].Node] = append(regroups[routes[i].Node], item)
		}
		return c.forEachOwner(regroups, defaultBatchParallelism, send)
	})
}

// putGroup ships one per-owner put batch.
func (c *Cluster) putGroup(ctx context.Context, owner string, kv []KeyEntries) error {
	resp, err := c.callCtx(ctx, owner, Message{Op: OpPutBatch, KV: kv, TTL: routeTTL})
	if err != nil {
		return err
	}
	return remoteError(resp)
}

// RemoveBatch implements overlay.BatchNetwork: it deletes every item in
// per-owner batches and makes sure each key's tracked replica window
// received the delete too, mirroring Remove. The returned count is how
// many entries the ring actually removed.
func (c *Cluster) RemoveBatch(ctx context.Context, items []overlay.KeyEntry) (int, error) {
	removed, _, err := c.removeBatch(ctx, items)
	return removed, err
}

// Prune implements overlay.Substrate: RemoveBatch, returning what
// the owners' replies say about the keys instead of the count — each
// key of the batch that holds nothing once its removals are applied,
// in first-appearance order (DESIGN.md §20).
func (c *Cluster) Prune(ctx context.Context, items []overlay.KeyEntry) ([]keyspace.Key, error) {
	_, emptied, err := c.removeBatch(ctx, items)
	return emptied, err
}

// removeBatch is the batched remove under RemoveBatch and Prune: one
// OpRemoveBatch per presumed owner, with PutBatch's fallback for a
// group whose owner cannot serve.
func (c *Cluster) removeBatch(ctx context.Context, items []overlay.KeyEntry) (removed int, emptied []keyspace.Key, err error) {
	kv, _ := foldItems(items)
	groups, err := c.groupPresumed(kv)
	if err != nil || len(groups) == 0 {
		return 0, nil, err
	}
	c.batchRemoveRPCs.Add(int64(len(groups)))
	c.batchRemoveKeys.Add(int64(len(items)))
	var mu sync.Mutex
	empty := make(map[keyspace.Key]bool)
	err = c.mutateGroups(ctx, groups, func(owner string, kv []KeyEntries) error {
		resp, err := c.removeGroup(ctx, owner, kv)
		if err != nil {
			return err
		}
		mu.Lock()
		removed += resp.Keys
		for _, item := range resp.KV {
			empty[item.Key] = true
		}
		mu.Unlock()
		return nil
	})
	// Reading the verdicts off the request, not the replies, keeps the
	// order the caller's and drops any key a reply names that nobody
	// asked about.
	for _, item := range kv {
		if empty[item.Key] {
			emptied = append(emptied, item.Key)
		}
	}
	return removed, emptied, err
}

// removeGroup ships one per-owner remove batch, naming each entry by
// digest and re-sending whole what the owner could not resolve
// (sendRemoval), sweeps the followers the replies leave out, and
// returns the replies folded into one.
func (c *Cluster) removeGroup(ctx context.Context, owner string, kv []KeyEntries) (Message, error) {
	whole, digests := nameByDigest(kv)
	resp, err := sendRemoval(func(req Message) (Message, error) {
		resp, err := c.callCtx(ctx, owner, req)
		if err == nil {
			err = remoteError(resp)
		}
		return resp, err
	}, Message{Op: OpRemoveBatch, KV: whole, Digests: digests, TTL: routeTTL}, kv)
	if err != nil {
		return resp, err
	}
	c.sweepFollowers(ctx, owner, kv, resp.Addrs)
	return resp, nil
}

// nameByDigest names each entry of kv by its key and overlay.EntryHash,
// for a remove request's Digests (DESIGN.md §44): the receiver holds the
// entries, so a digest is all it needs to find one. A key two of whose
// entries hash alike could not have them told apart, so its entries
// stay whole, in the returned KV.
func nameByDigest(kv []KeyEntries) (whole []KeyEntries, digests []KeyDigest) {
	n := 0
	for _, item := range kv {
		n += len(item.Entries)
	}
	digests = make([]KeyDigest, 0, n)
	for _, item := range kv {
		from := len(digests)
		for _, e := range item.Entries {
			d := KeyDigest{Key: item.Key, Digest: overlay.EntryHash(e)}
			if slices.Contains(digests[from:], d) {
				digests = digests[:from]
				whole = append(whole, item)
				break
			}
			digests = append(digests, d)
		}
	}
	return whole, digests
}

// namedEntries lists whole the entries of kv that digests name, grouped
// by key in kv's order. A digest that names no entry of kv is dropped.
func namedEntries(kv []KeyEntries, digests []KeyDigest) []KeyEntries {
	var out []KeyEntries
	for _, item := range kv {
		var entries []overlay.Entry
		for _, e := range item.Entries {
			h := overlay.EntryHash(e)
			if slices.Contains(digests, KeyDigest{Key: item.Key, Digest: h}) {
				entries = append(entries, e)
			}
		}
		if entries != nil {
			out = append(out, KeyEntries{Key: item.Key, Entries: entries})
		}
	}
	return out
}

// sendRemoval sends req, a remove request naming kv's entries
// (nameByDigest), through call, then re-sends whole, in one more
// request of the same kind, the entries the reply lists unresolved in
// its Digests. It returns the replies folded into one: Keys summed, the
// emptied keys of both in KV, and in Addrs only the successors both
// name — a replica counts as reached only once it has applied every
// entry. A failure of either call is returned.
func sendRemoval(call func(Message) (Message, error), req Message, kv []KeyEntries) (Message, error) {
	resp, err := call(req)
	if err != nil || len(resp.Digests) == 0 {
		return resp, err
	}
	resend := namedEntries(kv, resp.Digests)
	resp.Digests = nil
	if len(resend) == 0 {
		return resp, nil
	}
	again, err := call(Message{Op: req.Op, KV: resend, TTL: req.TTL})
	if err != nil {
		return again, err
	}
	again.Ok = again.Ok || resp.Ok
	again.Keys += resp.Keys
	again.KV = append(resp.KV, again.KV...)
	again.Addrs = slices.DeleteFunc(again.Addrs, func(a string) bool { return !slices.Contains(resp.Addrs, a) })
	return again, nil
}

// sweepFollowers completes a remove that owner served. The owner
// propagates the delete to its CURRENT successors, but after churn a
// key's tracked followers may not coincide with them, so the tracked
// replica window of every key in kv must see the delete as well — a
// stale copy there would be resurrected by a later failover read. acked
// is the reply's Addrs, the successors that acknowledged the owner's
// propagation; only a tracked follower NOT named there is swept, with
// the keys it may hold in one KV-carrying OpRemoveReplica (the keys of a
// presumed-owner group share that owner's followers; keys regrouped by
// routed owner can differ in theirs). Every node that would have been
// sent the delete still receives it, once: an owner that removed
// nothing, forwarded any key, or whose propagation failed names nobody,
// and its whole window is swept.
func (c *Cluster) sweepFollowers(ctx context.Context, owner string, kv []KeyEntries, acked []string) {
	var sweep map[string][]KeyEntries
	for _, item := range kv {
		for _, cand := range c.replicaFollowers(item.Key, owner, c.replication) {
			if slices.Contains(acked, cand) {
				continue
			}
			if sweep == nil {
				sweep = make(map[string][]KeyEntries)
			}
			sweep[cand] = append(sweep[cand], item)
		}
	}
	for cand, items := range sweep {
		_, _ = c.callCtx(ctx, cand, Message{Op: OpRemoveReplica, KV: items})
	}
}

// GetBatch implements overlay.Substrate: every distinct key goes
// to its presumed owner in one OpGetBatch per owner, at most parallel
// of them in flight, and a key with a non-zero offer offers its owner
// that digest, as GetUnlessCtx does. The batch is an optimisation over
// the single-key read, never a second read protocol: a node answers
// only the keys it owns, and every key left unanswered — the owner
// disclaimed it, or the group's RPC failed — is read again through the
// single-key path, conditional on the same offer, which brings its
// node-side forwarding, routed fallback, replica failover and hedging
// along. A key therefore fails exactly when GetCtx fails for it, and an
// empty result always means an owner (or replica) said so. A repeated
// key is read once, with the offer at its first position.
func (c *Cluster) GetBatch(ctx context.Context, keys []keyspace.Key, offers []uint64, parallel int) []overlay.GetResult {
	out := make([]overlay.GetResult, len(keys))
	// at maps each distinct key to its first position in keys; results
	// are written there and copied to the key's repeats at the end.
	at := make(map[keyspace.Key]int, len(keys))
	kv := make([]KeyEntries, 0, len(keys))
	offered := 0
	for i, k := range keys {
		if _, dup := at[k]; !dup {
			at[k] = i
			kv = append(kv, KeyEntries{Key: k})
			if offers != nil && offers[i] != 0 {
				offered++
			}
		}
	}
	groups, err := c.groupPresumed(kv)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	c.batchGetRPCs.Add(int64(len(groups)))
	c.batchGetKeys.Add(int64(len(kv)))
	c.getOffers.Add(int64(offered))
	// Groups hold disjoint keys, so they write disjoint elements of out.
	_ = c.forEachOwner(groups, parallel, func(owner string, kv []KeyEntries) error {
		plain, digests := kv, []KeyDigest(nil)
		if offered > 0 {
			plain, digests = splitOffers(kv, func(k keyspace.Key) uint64 { return offers[at[k]] })
		}
		for i, r := range c.getGroup(ctx, owner, plain, digests) {
			if i < len(plain) {
				out[at[plain[i].Key]] = r
			} else {
				out[at[digests[i-len(plain)].Key]] = r
			}
		}
		return nil
	})
	for i, k := range keys {
		out[i] = out[at[k]]
	}
	return out
}

// splitOffers splits one owner's keys, in order, into those read
// plainly and those offered a digest (offerOf not 0).
func splitOffers(kv []KeyEntries, offerOf func(keyspace.Key) uint64) (plain []KeyEntries, offered []KeyDigest) {
	n := 0
	for _, item := range kv {
		if offerOf(item.Key) != 0 {
			n++
		}
	}
	if n == 0 {
		return kv, nil
	}
	plain, offered = make([]KeyEntries, 0, len(kv)-n), make([]KeyDigest, 0, n)
	for _, item := range kv {
		if offer := offerOf(item.Key); offer != 0 {
			offered = append(offered, KeyDigest{Key: item.Key, Digest: offer})
		} else {
			plain = append(plain, item)
		}
	}
	return plain, offered
}

// getGroup reads one owner's keys with a single OpGetBatch and returns
// one result per key, the plain keys' first and the offered keys'
// after, in the order given. Each key travels once: a plain key in the
// request's KV, an offered one with its digest in its Digests. The
// reply's KV lists the keys the node owns and answers with their
// entries, in request order: the plain keys, then the offered keys
// whose set changed. Its Digests lists, in request order and with the
// digest echoed, the offered keys whose set still has it, so an owned
// key that holds nothing (listed in KV, empty) cannot read as
// unchanged. A verdict on a key that offered nothing, or on another
// digest, is refused (errUnofferedVerdict). Whatever the reply leaves
// out takes the single-key path.
func (c *Cluster) getGroup(ctx context.Context, owner string, plain []KeyEntries, offered []KeyDigest) []overlay.GetResult {
	resp, err := c.callCtx(ctx, owner, Message{Op: OpGetBatch, KV: plain, Digests: offered})
	if err == nil {
		err = remoteError(resp)
	}
	var answered []KeyEntries
	var verdicts []KeyDigest
	if err == nil {
		answered, verdicts = resp.KV, resp.Digests
	}
	hops := c.hops.Load()
	out := make([]overlay.GetResult, len(plain)+len(offered))
	for i := range out {
		var key keyspace.Key
		var offer uint64
		if i < len(plain) {
			key = plain[i].Key
		} else {
			key, offer = offered[i-len(plain)].Key, offered[i-len(plain)].Digest
		}
		r := &out[i]
		switch {
		case len(verdicts) > 0 && verdicts[0].Key == key:
			if offer == 0 || verdicts[0].Digest != offer {
				r.Err = errUnofferedVerdict
			} else {
				r.Unchanged, r.Route.Node = true, resp.Addr
				hops.Observe(0)
			}
			verdicts = verdicts[1:]
		case len(answered) > 0 && answered[0].Key == key:
			r.Entries, r.Route.Node = trimEntries(answered[0].Entries), resp.Addr
			answered = answered[1:]
			hops.Observe(0)
		case errors.Is(err, ErrOverload):
			// The owner is alive and shedding: as in GetCtx, it is neither
			// asked again nor routed around — its replicas are read,
			// unconditionally.
			if r.Entries, r.Route, r.Err = c.failoverGet(ctx, key, owner); r.Err != nil {
				r.Err = err
			}
		default:
			r.Entries, r.Route, r.Unchanged, r.Err = c.get(ctx, key, offer)
		}
	}
	return out
}

// foldItems folds a batch into one KeyEntries per distinct key, in
// first-appearance order, keeping each distinct (key, entry) pair once,
// and returns how many pairs it kept.
func foldItems(items []overlay.KeyEntry) (kv []KeyEntries, pairs int) {
	idx := make(map[keyspace.Key]int, len(items))
	kv = make([]KeyEntries, 0, len(items))
	for _, it := range items {
		i, ok := idx[it.Key]
		if !ok {
			i = len(kv)
			idx[it.Key] = i
			kv = append(kv, KeyEntries{Key: it.Key})
		}
		if !slices.Contains(kv[i].Entries, it.Entry) {
			kv[i].Entries = append(kv[i].Entries, it.Entry)
			pairs++
		}
	}
	return kv, pairs
}

// groupPresumed groups a folded KV set (one element per distinct key)
// by presumed owner — the first tracked member at or past each key in
// ring order, computed locally from the membership the cluster already
// maintains for replica failover. No RPC is spent: a stale presumption
// is corrected by the receiving node's forwarding (common case) or the
// caller's fallback (unreachable owner).
func (c *Cluster) groupPresumed(kv []KeyEntries) (map[string][]KeyEntries, error) {
	if len(kv) == 0 {
		return nil, nil
	}
	members := c.ring()
	if len(members) == 0 {
		return nil, errNoMembers
	}
	groups := make(map[string][]KeyEntries)
	for _, item := range kv {
		owner := members[ownerIndex(members, item.Key)].addr
		groups[owner] = append(groups[owner], item)
	}
	return groups, nil
}

// forEachOwner runs fn for every owner group through fanOut, at most
// parallel of them at a time, returning the first error.
func (c *Cluster) forEachOwner(groups map[string][]KeyEntries, parallel int, fn func(owner string, kv []KeyEntries) error) error {
	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	return c.fanOut(len(owners), parallel, func(i int) error {
		return fn(owners[i], groups[owners[i]])
	})
}

// fanOut runs task(0), …, task(n-1), every one of them, and returns the
// first error by index. Over a transport that delivers in process
// (Cluster.inProcess) the tasks run one after another on the caller's
// goroutine: each is CPU work with nothing to wait on, and a task
// handed to a worker would only queue for a core behind the process's
// other goroutines (DESIGN.md §40). Otherwise each task waits on a
// network, and up to parallel of them run at a time on the cluster's
// workers; a lone task runs on the caller.
func (c *Cluster) fanOut(n, parallel int, task func(i int) error) error {
	if n == 1 || c.inProcess {
		var first error
		for i := 0; i < n; i++ {
			if err := task(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	sem := make(chan struct{}, max(parallel, 1))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		c.workers.run(func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = task(i)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
