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
// (handlePutBatch), and a presumed owner that cannot serve at all makes
// the client fall back to Chord-routed owner resolution for just that
// group. For reads the node answers only what it owns and the client
// re-reads every other key through the single-key GetCtx (DESIGN.md
// §19).

import (
	"context"
	"errors"
	"sync"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// defaultBatchParallelism bounds the concurrent per-owner batch RPCs
// (and fallback owner resolutions) when Cluster.BatchParallelism is
// unset.
const defaultBatchParallelism = 4

var (
	_ overlay.BatchNetwork    = (*Cluster)(nil)
	_ overlay.BatchGetNetwork = (*Cluster)(nil)
)

// batchParallelism resolves the fan-out bound.
func (c *Cluster) batchParallelism() int {
	if c.BatchParallelism > 0 {
		return c.BatchParallelism
	}
	return defaultBatchParallelism
}

// PutBatch implements overlay.BatchNetwork: it stores every item,
// grouping by presumed owner so each responsible node receives one
// OpPutBatch. Batched puts are idempotent end to end — the retry layer
// retries a NACKed or lost batch, and a failed call here may be retried
// whole.
func (c *Cluster) PutBatch(ctx context.Context, items []overlay.KeyEntry) error {
	groups, err := c.groupPresumed(foldItems(items))
	if err != nil || len(groups) == 0 {
		return err
	}
	c.batchPutRPCs.Add(int64(len(groups)))
	c.batchPutKeys.Add(int64(len(items)))
	par := c.batchParallelism()
	return forEachOwner(groups, par, func(owner string, kv []KeyEntries) error {
		if err := c.putGroup(ctx, owner, kv); err == nil {
			return nil
		}
		// The presumed owner could not serve (crashed, or its view NACKed
		// the batch): resolve this group's keys through real Chord routing
		// and retry against the routed owners.
		c.batchFallbacks.Inc()
		regroups, rerr := c.groupRouted(ctx, kv)
		if rerr != nil {
			return rerr
		}
		return forEachOwner(regroups, par, func(owner string, kv []KeyEntries) error {
			return c.putGroup(ctx, owner, kv)
		})
	})
}

// putGroup ships one per-owner put batch.
func (c *Cluster) putGroup(ctx context.Context, owner string, kv []KeyEntries) error {
	resp, err := c.callCtx(ctx, owner, Message{Op: OpPutBatch, KV: kv, TTL: c.routeTTL()})
	if err != nil {
		return err
	}
	return remoteError(resp)
}

// RemoveBatch implements overlay.BatchNetwork: it deletes every item in
// per-owner batches and sweeps each owner's replica window with one
// batched OpRemoveReplica, mirroring Remove's stale-copy sweep. The
// returned count is how many entries the ring actually removed.
func (c *Cluster) RemoveBatch(ctx context.Context, items []overlay.KeyEntry) (int, error) {
	groups, err := c.groupPresumed(foldItems(items))
	if err != nil || len(groups) == 0 {
		return 0, err
	}
	c.batchRemoveRPCs.Add(int64(len(groups)))
	c.batchRemoveKeys.Add(int64(len(items)))
	var mu sync.Mutex
	removed := 0
	tally := func(n int) {
		mu.Lock()
		removed += n
		mu.Unlock()
	}
	par := c.batchParallelism()
	err = forEachOwner(groups, par, func(owner string, kv []KeyEntries) error {
		if n, err := c.removeGroup(ctx, owner, kv); err == nil {
			tally(n)
			return nil
		}
		c.batchFallbacks.Inc()
		regroups, rerr := c.groupRouted(ctx, kv)
		if rerr != nil {
			return rerr
		}
		return forEachOwner(regroups, par, func(owner string, kv []KeyEntries) error {
			n, err := c.removeGroup(ctx, owner, kv)
			if err == nil {
				tally(n)
			}
			return err
		})
	})
	return removed, err
}

// removeGroup ships one per-owner remove batch and sweeps the tracked
// replica window of every key in it — post-churn stale copies may sit
// outside the owner's CURRENT successor set, exactly like Remove's
// sweep. Each follower gets the keys it may hold in one KV-carrying
// OpRemoveReplica: the keys of a presumed-owner group all share that
// owner's followers, so the sweep is one message per follower (keys
// regrouped by routed owner can differ in theirs).
func (c *Cluster) removeGroup(ctx context.Context, owner string, kv []KeyEntries) (int, error) {
	resp, err := c.callCtx(ctx, owner, Message{Op: OpRemoveBatch, KV: kv, TTL: c.routeTTL()})
	if err != nil {
		return 0, err
	}
	if rerr := remoteError(resp); rerr != nil {
		return 0, rerr
	}
	sweep := make(map[string][]KeyEntries)
	for _, item := range kv {
		for _, cand := range c.replicaFollowers(item.Key, owner, c.replication) {
			sweep[cand] = append(sweep[cand], item)
		}
	}
	for cand, items := range sweep {
		_, _ = c.callCtx(ctx, cand, Message{Op: OpRemoveReplica, KV: items})
	}
	return resp.Keys, nil
}

// GetBatch implements overlay.BatchGetNetwork: every distinct key goes
// to its presumed owner in one OpGetBatch per owner, at most parallel
// of them in flight. The batch is an optimisation over GetCtx, never a
// second read protocol: a node answers only the keys it owns, and every
// key left unanswered — the owner disclaimed it, or the group's RPC
// failed — is read again through the single-key GetCtx, which brings
// its node-side forwarding, routed fallback, replica failover and
// hedging along. A key therefore fails exactly when GetCtx fails for
// it, and an empty result always means an owner (or replica) said so.
func (c *Cluster) GetBatch(ctx context.Context, keys []keyspace.Key, parallel int) []overlay.GetResult {
	out := make([]overlay.GetResult, len(keys))
	// at maps each distinct key to its first position in keys; results
	// are written there and copied to the key's repeats at the end.
	at := make(map[keyspace.Key]int, len(keys))
	kv := make([]KeyEntries, 0, len(keys))
	for i, k := range keys {
		if _, dup := at[k]; !dup {
			at[k] = i
			kv = append(kv, KeyEntries{Key: k})
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
	// Groups hold disjoint keys, so they write disjoint elements of out.
	_ = forEachOwner(groups, parallel, func(owner string, kv []KeyEntries) error {
		for i, r := range c.getGroup(ctx, owner, kv) {
			out[at[kv[i].Key]] = r
		}
		return nil
	})
	for i, k := range keys {
		out[i] = out[at[k]]
	}
	return out
}

// getGroup reads one owner's keys with a single OpGetBatch and returns
// one result per element of kv. The reply lists the keys the node owns
// in request order; whatever it leaves out takes the single-key path.
func (c *Cluster) getGroup(ctx context.Context, owner string, kv []KeyEntries) []overlay.GetResult {
	resp, err := c.callCtx(ctx, owner, Message{Op: OpGetBatch, KV: kv})
	if err == nil {
		err = remoteError(resp)
	}
	var answered []KeyEntries
	if err == nil {
		answered = resp.KV
	}
	hops := c.hops.Load()
	out := make([]overlay.GetResult, len(kv))
	for i, item := range kv {
		r := &out[i]
		switch {
		case len(answered) > 0 && answered[0].Key == item.Key:
			r.Entries, r.Route.Node = trimEntries(answered[0].Entries), resp.Addr
			answered = answered[1:]
			hops.Observe(0)
		case errors.Is(err, ErrOverload):
			// The owner is alive and shedding: as in GetCtx, it is neither
			// asked again nor routed around — its replicas are read.
			if r.Entries, r.Route, r.Err = c.failoverGet(ctx, item.Key, owner); r.Err != nil {
				r.Err = err
			}
		default:
			r.Entries, r.Route, r.Err = c.GetCtx(ctx, item.Key)
		}
	}
	return out
}

// foldItems dedupes a batch into one KeyEntries per distinct key,
// preserving first-appearance order.
func foldItems(items []overlay.KeyEntry) []KeyEntries {
	idx := make(map[string]int, len(items))
	kv := make([]KeyEntries, 0, len(items))
	for _, it := range items {
		ks := it.Key.String()
		i, ok := idx[ks]
		if !ok {
			i = len(kv)
			idx[ks] = i
			kv = append(kv, KeyEntries{Key: it.Key})
		}
		kv[i].Entries = append(kv[i].Entries, it.Entry)
	}
	return kv
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

// groupRouted regroups a KV set by Chord-routed owner: one bounded
// parallel FindOwner per key. This is the batch fallback path — and the
// original batch routing strategy, kept for when the presumed owner
// cannot serve. The first resolution error fails the batch: callers
// retry whole (puts are idempotent) or at a higher level.
func (c *Cluster) groupRouted(ctx context.Context, kv []KeyEntries) (map[string][]KeyEntries, error) {
	owners := make([]string, len(kv))
	errs := make([]error, len(kv))
	sem := make(chan struct{}, c.batchParallelism())
	var wg sync.WaitGroup
	for i := range kv {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			route, err := c.FindOwnerCtx(ctx, kv[i].Key)
			if err != nil {
				errs[i] = err
				return
			}
			owners[i] = route.Node
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	groups := make(map[string][]KeyEntries)
	for i, item := range kv {
		groups[owners[i]] = append(groups[owners[i]], item)
	}
	return groups, nil
}

// forEachOwner runs fn for every owner group, at most parallel of them
// at a time, returning the first error. A lone group runs on the
// caller's goroutine.
func forEachOwner(groups map[string][]KeyEntries, parallel int, fn func(owner string, kv []KeyEntries) error) error {
	if len(groups) == 1 {
		for owner, kv := range groups {
			return fn(owner, kv)
		}
	}
	sem := make(chan struct{}, max(parallel, 1))
	errs := make(chan error, len(groups))
	var wg sync.WaitGroup
	for owner, kv := range groups {
		wg.Add(1)
		go func(owner string, kv []KeyEntries) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs <- fn(owner, kv)
		}(owner, kv)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
