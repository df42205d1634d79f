package wire

// Batched cluster mutations: the client half of OpPutBatch /
// OpRemoveBatch. A batch folds duplicate keys, computes each key's
// PRESUMED owner locally from the cluster's ring-ordered member list —
// zero routing RPCs — and ships each owner ONE batched message, so
// publishing a descriptor with a dozen index mappings costs a handful
// of messages instead of a dozen single puts. (Single-key operations
// address the presumed owner the same way: Cluster.viaOwner.)
// Staleness is handled on both ends: a receiving node forwards keys it
// does not own through real Chord routing (handlePutBatch), and a
// presumed owner that cannot serve at all makes the client fall back to
// Chord-routed owner resolution for just that group.

import (
	"context"
	"sync"

	"dhtindex/internal/overlay"
)

// defaultBatchParallelism bounds the concurrent per-owner batch RPCs
// (and fallback owner resolutions) when Cluster.BatchParallelism is
// unset.
const defaultBatchParallelism = 4

var _ overlay.BatchNetwork = (*Cluster)(nil)

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
	groups, err := c.groupPresumed(items)
	if err != nil || len(groups) == 0 {
		return err
	}
	c.batchPutRPCs.Add(int64(len(groups)))
	c.batchPutKeys.Add(int64(len(items)))
	return c.forEachOwner(groups, func(owner string, kv []KeyEntries) error {
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
		return c.forEachOwner(regroups, func(owner string, kv []KeyEntries) error {
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
	groups, err := c.groupPresumed(items)
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
	err = c.forEachOwner(groups, func(owner string, kv []KeyEntries) error {
		if n, err := c.removeGroup(ctx, owner, kv); err == nil {
			tally(n)
			return nil
		}
		c.batchFallbacks.Inc()
		regroups, rerr := c.groupRouted(ctx, kv)
		if rerr != nil {
			return rerr
		}
		return c.forEachOwner(regroups, func(owner string, kv []KeyEntries) error {
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
// sweep.
func (c *Cluster) removeGroup(ctx context.Context, owner string, kv []KeyEntries) (int, error) {
	resp, err := c.callCtx(ctx, owner, Message{Op: OpRemoveBatch, KV: kv, TTL: c.routeTTL()})
	if err != nil {
		return 0, err
	}
	if rerr := remoteError(resp); rerr != nil {
		return 0, rerr
	}
	for _, item := range kv {
		for _, cand := range c.replicaFollowers(item.Key, owner, c.replication) {
			_, _ = c.callCtx(ctx, cand, Message{Op: OpRemoveReplica, KV: []KeyEntries{item}})
		}
	}
	return resp.Keys, nil
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

// groupPresumed folds the items and groups them by presumed owner — the
// first tracked member at or past each key in ring order, computed
// locally from the membership the cluster already maintains for replica
// failover. No RPC is spent: a stale presumption is corrected by the
// receiving node's forwarding (common case) or the caller's routed
// fallback (unreachable owner).
func (c *Cluster) groupPresumed(items []overlay.KeyEntry) (map[string][]KeyEntries, error) {
	if len(items) == 0 {
		return nil, nil
	}
	members := c.ring()
	if len(members) == 0 {
		return nil, errNoMembers
	}
	groups := make(map[string][]KeyEntries)
	for _, item := range foldItems(items) {
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

// forEachOwner runs fn for every owner group with bounded parallelism,
// returning the first error.
func (c *Cluster) forEachOwner(groups map[string][]KeyEntries, fn func(owner string, kv []KeyEntries) error) error {
	if len(groups) == 0 {
		return nil
	}
	sem := make(chan struct{}, c.batchParallelism())
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
