package pastry

import (
	"fmt"
	"math/rand"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// Overlay adapts a Pastry Network to the substrate contract. Reads and
// writes draw their contact nodes from separate seeded streams, so the
// node a Get starts at does not depend on how many Puts and Removes
// came before it.
type Overlay struct {
	net    *Network
	reads  *rand.Rand
	writes *rand.Rand
}

var _ overlay.Network = (*Overlay)(nil)

// AsOverlay wraps the network; the seed drives contact-point selection.
func AsOverlay(net *Network, seed int64) *Overlay {
	return &Overlay{
		net:    net,
		reads:  rand.New(rand.NewSource(seed)),
		writes: rand.New(rand.NewSource(^seed)),
	}
}

// start draws a contact node from rng, one of o's two streams.
func (o *Overlay) start(rng *rand.Rand) *Node {
	o.net.mu.Lock()
	defer o.net.mu.Unlock()
	if len(o.net.sorted) == 0 {
		return nil
	}
	return o.net.sorted[rng.Intn(len(o.net.sorted))]
}

// Put implements overlay.Network.
func (o *Overlay) Put(key keyspace.Key, e overlay.Entry) (overlay.Route, error) {
	start := o.start(o.writes)
	res, err := o.net.Lookup(start, key)
	if err != nil {
		return overlay.Route{}, err
	}
	o.net.mu.Lock()
	putLocal(res.Owner, key, e)
	o.net.mu.Unlock()
	return overlay.Route{Node: res.Owner.Addr, Hops: res.Hops}, nil
}

// Get implements overlay.Network.
func (o *Overlay) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	start := o.start(o.reads)
	res, err := o.net.Lookup(start, key)
	if err != nil {
		return nil, overlay.Route{}, err
	}
	o.net.mu.Lock()
	defer o.net.mu.Unlock()
	stored := res.Owner.store[key]
	entries := make([]overlay.Entry, len(stored))
	copy(entries, stored)
	if len(entries) == 0 {
		entries = nil
	}
	return entries, overlay.Route{Node: res.Owner.Addr, Hops: res.Hops}, nil
}

// Remove implements overlay.Network.
func (o *Overlay) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	start := o.start(o.writes)
	res, err := o.net.Lookup(start, key)
	if err != nil {
		return false, err
	}
	o.net.mu.Lock()
	defer o.net.mu.Unlock()
	entries := res.Owner.store[key]
	for i, have := range entries {
		if have == e {
			entries = append(entries[:i], entries[i+1:]...)
			if len(entries) == 0 {
				delete(res.Owner.store, key)
			} else {
				res.Owner.store[key] = entries
			}
			return true, nil
		}
	}
	return false, nil
}

// Addrs implements overlay.Network: live nodes in ring order.
func (o *Overlay) Addrs() []string {
	o.net.mu.Lock()
	defer o.net.mu.Unlock()
	out := make([]string, len(o.net.sorted))
	for i, nd := range o.net.sorted {
		out[i] = nd.Addr
	}
	return out
}

// StatsOf implements overlay.Network.
func (o *Overlay) StatsOf(addr string) (overlay.NodeStats, error) {
	o.net.mu.Lock()
	defer o.net.mu.Unlock()
	nd, ok := o.net.nodes[addr]
	if !ok {
		return overlay.NodeStats{}, fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	stats := overlay.NodeStats{
		Keys:          len(nd.store),
		EntriesByKind: make(map[string]int),
		BytesByKind:   make(map[string]int64),
	}
	for _, entries := range nd.store {
		kinds := make(map[string]bool, 2)
		for _, e := range entries {
			stats.EntriesByKind[e.Kind]++
			stats.BytesByKind[e.Kind] += int64(len(e.Value))
			kinds[e.Kind] = true
		}
		for k := range kinds {
			stats.BytesByKind[k] += keyspace.Size
		}
	}
	return stats, nil
}

// Size implements overlay.Network.
func (o *Overlay) Size() int { return o.net.Size() }

// String names the substrate in reports.
func (o *Overlay) String() string {
	return fmt.Sprintf("pastry(%d nodes)", o.net.Size())
}
