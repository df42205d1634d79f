package kademlia

import (
	"sort"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/lookup"
	"dhtindex/internal/overlay"
)

// xorDistance is the engine metric: Kademlia compares contacts by the
// XOR of their ID with the target.
func xorDistance(id, target keyspace.Key) keyspace.Key { return id.XOR(target) }

// probeFn builds the engine's probe callback for one origin node: each
// probe is a correlated RPC; a timeout removes the contact from the
// origin's table (promoting a replacement-cache candidate), a response
// refreshes it — the lookups themselves keep the tables honest.
func (n *Network) probeFn(origin *Node, op string) func(lookup.Contact, keyspace.Key) (lookup.ProbeResult, error) {
	return func(c lookup.Contact, target keyspace.Key) (lookup.ProbeResult, error) {
		n.inflightProbes.Add(1)
		defer n.inflightProbes.Add(-1)
		resp, err := n.call(origin.contact(), c.Addr, message{Op: op, Target: target})
		if err != nil {
			_, promoted := origin.table.remove(c.ID, c.Addr)
			if promoted {
				n.metricsMu.Lock()
				n.metrics.ReplacementPromotions++
				n.metricsMu.Unlock()
			}
			return lookup.ProbeResult{}, err
		}
		origin.table.observe(c, nil)
		pr := lookup.ProbeResult{Contacts: resp.Contacts}
		if op == opFindValue && len(resp.Entries) > 0 {
			pr.Done = true
			pr.Value = resp.Entries
		}
		return pr, nil
	}
}

// recordLookup folds one engine run into the counters.
func (n *Network) recordLookup(res lookup.Result) {
	n.metricsMu.Lock()
	n.metrics.Lookups++
	n.metrics.Rounds += res.Hops
	if res.Hops > n.metrics.MaxRounds {
		n.metrics.MaxRounds = res.Hops
	}
	n.metrics.Probes += res.Probes
	n.metrics.ProbeFailures += res.Failed
	hops := n.hops
	n.metricsMu.Unlock()
	hops.Observe(float64(res.Hops))
}

// findClosest runs an iterative FIND_NODE from origin and returns the K
// closest live contacts to target — the origin itself included when it
// qualifies, since it is as much a storage candidate as any peer.
func (n *Network) findClosest(origin *Node, target keyspace.Key) ([]lookup.Contact, lookup.Result) {
	res := lookup.Run(lookup.Config{
		Target:   target,
		Seeds:    origin.table.closest(target, n.cfg.K),
		Alpha:    n.cfg.Alpha,
		K:        n.cfg.K,
		Distance: xorDistance,
		Probe:    n.probeFn(origin, opFindNode),
	})
	n.recordLookup(res)
	return mergeContact(res.Closest, origin.contact(), target, n.cfg.K), res
}

// mergeContact inserts c into a distance-sorted contact list, keeping
// at most k and deduplicating by address.
func mergeContact(sorted []lookup.Contact, c lookup.Contact, target keyspace.Key, k int) []lookup.Contact {
	for _, have := range sorted {
		if have.Addr == c.Addr {
			return sorted
		}
	}
	d := c.ID.XOR(target)
	i := sort.Search(len(sorted), func(i int) bool {
		return sorted[i].ID.XOR(target).Cmp(d) >= 0
	})
	out := append(sorted, lookup.Contact{})
	copy(out[i+1:], out[i:])
	out[i] = c
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// findValue runs an iterative FIND_VALUE from origin: the origin's own
// store answers at zero hops, otherwise the crawl short-circuits at the
// first probed contact holding entries under the key.
func (n *Network) findValue(origin *Node, target keyspace.Key) ([]overlay.Entry, string, lookup.Result) {
	if entries := origin.getLocal(target); entries != nil {
		return entries, origin.Addr, lookup.Result{}
	}
	res := lookup.Run(lookup.Config{
		Target:   target,
		Seeds:    origin.table.closest(target, n.cfg.K),
		Alpha:    n.cfg.Alpha,
		K:        n.cfg.K,
		Distance: xorDistance,
		Probe:    n.probeFn(origin, opFindValue),
	})
	n.recordLookup(res)
	if res.Done != nil {
		return res.Value.([]overlay.Entry), res.Done.Addr, res
	}
	holder := origin.Addr
	if len(res.Closest) > 0 {
		holder = res.Closest[0].Addr
	}
	return nil, holder, res
}

// store writes e under key on the Replicas closest nodes, returning the
// primary (closest) contact and the lookup that located the replica set.
func (n *Network) store(origin *Node, key keyspace.Key, e overlay.Entry) (lookup.Contact, lookup.Result, error) {
	closest, res := n.findClosest(origin, key)
	if len(closest) == 0 {
		return lookup.Contact{}, res, ErrEmptyNetwork
	}
	reps := n.cfg.Replicas
	if reps > len(closest) {
		reps = len(closest)
	}
	for _, c := range closest[:reps] {
		if _, err := n.call(origin.contact(), c.Addr, message{Op: opStore, Target: key, Entry: e}); err != nil {
			continue // replica departed mid-store; the republisher re-covers
		}
		n.metricsMu.Lock()
		n.metrics.BytesShipped += int64(len(e.Value))
		n.metricsMu.Unlock()
	}
	n.metricsMu.Lock()
	n.metrics.StoreOps++
	n.metricsMu.Unlock()
	return closest[0], res, nil
}

// LookupInfo reports one routed lookup for benches and harnesses.
type LookupInfo struct {
	// Closest is the converged closest-contact set.
	Closest []lookup.Contact
	// Hops is the iterative depth, Probes the RPCs issued, Failed the
	// probes that timed out.
	Hops, Probes, Failed int
}

// Lookup locates the K closest nodes to key starting from the node at
// from (empty: an arbitrary live node) — the substrate's FindNode
// surface, used by the hop sweeps.
func (n *Network) Lookup(from string, key keyspace.Key) (LookupInfo, error) {
	var origin *Node
	if from == "" {
		origin = n.anyNode()
	} else {
		var err error
		if origin, err = n.NodeAt(from); err != nil {
			return LookupInfo{}, err
		}
	}
	if origin == nil {
		return LookupInfo{}, ErrEmptyNetwork
	}
	closest, res := n.findClosest(origin, key)
	return LookupInfo{Closest: closest, Hops: res.Hops, Probes: res.Probes, Failed: res.Failed}, nil
}

// republishEntries re-stores one key's entries on its current closest
// replica set, counting the traffic as maintenance.
func (n *Network) republishEntries(origin *Node, key keyspace.Key, entries []overlay.Entry) {
	closest, _ := n.findClosest(origin, key)
	reps := n.cfg.Replicas
	if reps > len(closest) {
		reps = len(closest)
	}
	for _, c := range closest[:reps] {
		for _, e := range entries {
			if _, err := n.call(origin.contact(), c.Addr, message{Op: opStore, Target: key, Entry: e}); err != nil {
				continue
			}
			n.metricsMu.Lock()
			n.metrics.Republished++
			n.metrics.BytesShipped += int64(len(e.Value))
			n.metricsMu.Unlock()
		}
	}
}

// RepublishOnce has every node re-store every entry it holds to the
// key's current closest replica set — the Kademlia maintenance step that
// restores replication after churn and refreshes entries before TTL
// expiry. It returns the number of entries shipped.
func (n *Network) RepublishOnce() int {
	before := n.Metrics().Republished
	now := time.Now()
	for _, nd := range n.Nodes() {
		nd.mu.Lock()
		keys := make([]keyspace.Key, 0, len(nd.store))
		snapshot := make([][]overlay.Entry, 0, len(nd.store))
		for key, stored := range nd.store {
			es := make([]overlay.Entry, len(stored))
			for i, se := range stored {
				es[i] = se.entry
			}
			keys = append(keys, key)
			snapshot = append(snapshot, es)
		}
		nd.mu.Unlock()
		for i, key := range keys {
			n.republishEntries(nd, key, snapshot[i])
		}
		// A republish counts as a refresh of the local copies too.
		nd.mu.Lock()
		for _, key := range keys {
			for i := range nd.store[key] {
				nd.store[key][i].storedAt = now
			}
		}
		nd.mu.Unlock()
	}
	return n.Metrics().Republished - before
}

// ExpireOnce drops every stored entry older than the configured TTL at
// time now, returning how many were dropped. A zero TTL disables expiry.
func (n *Network) ExpireOnce(now time.Time) int {
	if n.cfg.TTL <= 0 {
		return 0
	}
	dropped := 0
	for _, nd := range n.Nodes() {
		nd.mu.Lock()
		for key, stored := range nd.store {
			kept := stored[:0]
			for _, se := range stored {
				if now.Sub(se.storedAt) < n.cfg.TTL {
					kept = append(kept, se)
				} else {
					dropped++
				}
			}
			if len(kept) == 0 {
				delete(nd.store, key)
			} else {
				nd.store[key] = kept
			}
		}
		nd.mu.Unlock()
	}
	if dropped > 0 {
		n.metricsMu.Lock()
		n.metrics.Expired += dropped
		n.metricsMu.Unlock()
	}
	return dropped
}

// RefreshBuckets liveness-checks the LRU head of every non-empty bucket
// on every node, evicting the heads that no longer answer and promoting
// replacement-cache candidates into the freed slots.
func (n *Network) RefreshBuckets() {
	for _, nd := range n.Nodes() {
		heads := nd.table.heads()
		n.metricsMu.Lock()
		n.metrics.BucketRefreshes += len(heads)
		n.metricsMu.Unlock()
		for _, h := range heads {
			if n.ping(nd, h) {
				continue
			}
			_, promoted := nd.table.remove(h.ID, h.Addr)
			n.metricsMu.Lock()
			n.metrics.Evictions++
			if promoted {
				n.metrics.ReplacementPromotions++
			}
			n.metricsMu.Unlock()
		}
	}
}

// StartRepublisher runs the maintenance loop — bucket refresh, entry
// republish, TTL expiry — every interval until the returned stop
// function is called.
func (n *Network) StartRepublisher(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				n.RefreshBuckets()
				n.RepublishOnce()
				n.ExpireOnce(time.Now())
			}
		}
	}()
	return func() {
		select {
		case <-done:
		default:
			close(done)
		}
	}
}
