// Package kademlia implements a Kademlia overlay (Maymounkov & Mazières,
// IPTPS 2002) as an in-process simulation — the third DHT substrate
// behind the overlay contract, and the structurally different one: where
// Chord and Pastry route recursively hop-by-hop toward a ring position,
// Kademlia's querying node drives the whole lookup itself, keeping α
// probes in flight toward the XOR-closest contacts it knows and stepping
// its shortlist closer with every reply (internal/lookup is that shared
// engine). Values live on the K closest nodes to their key rather than
// on a single owner, and a republisher refreshes stored entries before
// they expire, so crash churn is absorbed by replication instead of by
// ring repair.
//
// The simulation is message-faithful where it matters: every FIND/STORE
// is a real request/response pair correlated by MsgID through an
// inflight waiter map with a per-RPC timeout, handlers run on their own
// goroutines, routing tables are k-buckets with LRU eviction backed by a
// replacement cache, and an unresponsive node times out exactly like a
// dead one — so α-parallel lookups, eviction policy and churn behaviour
// are exercised for real, not oracled.
package kademlia

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/lookup"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// Errors returned by the Kademlia layer.
var (
	// ErrEmptyNetwork is returned when an operation requires at least one
	// live node.
	ErrEmptyNetwork = errors.New("kademlia: network has no live nodes")
	// ErrNodeExists is returned when a node address is already in use.
	ErrNodeExists = errors.New("kademlia: node already exists")
	// ErrNodeUnknown is returned for an address not in the network.
	ErrNodeUnknown = errors.New("kademlia: unknown node")
)

// Config parameterizes a network. The zero value gets the paper-typical
// constants: K=20, α=3.
type Config struct {
	// K is the bucket capacity, lookup termination window and replica
	// candidate set size (default 20).
	K int
	// Alpha is the number of lookup probes kept in flight (default 3).
	Alpha int
	// Replicas is the number of closest nodes that receive each STORE
	// (default 3; the sim uses 1 for storage parity with the ring
	// substrates, the churn soak uses more).
	Replicas int
	// RPCTimeout is the per-probe wait before a contact is declared
	// unresponsive (default 75ms).
	RPCTimeout time.Duration
	// TTL is the stored-entry lifetime enforced by ExpireOnce; 0 means
	// entries never expire (the republisher refreshes them regardless).
	TTL time.Duration
	// Seed drives nothing yet but keeps parity with the other substrate
	// constructors; contact-point randomness lives in the Overlay adapter.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 20
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 75 * time.Millisecond
	}
	return c
}

// Metrics accumulates substrate counters (snapshot with Network.Metrics).
type Metrics struct {
	// Lookups counts iterative lookups; Rounds sums their depth (the
	// α-parallel analogue of routing hops) and MaxRounds the worst one.
	Lookups, Rounds, MaxRounds int
	// Probes counts FIND RPCs issued by lookups; ProbeFailures the ones
	// that timed out.
	Probes, ProbeFailures int
	// StoreOps and RetrieveOps count Put/Get operations; BytesShipped the
	// payload bytes they moved.
	StoreOps, RetrieveOps int
	// BytesShipped sums payload bytes moved by stores, reads and
	// republishes.
	BytesShipped int64
	// Republished counts entries re-stored by the republisher (and by
	// graceful leaves).
	Republished int
	// Expired counts entries dropped by TTL expiry.
	Expired int
	// BucketRefreshes counts per-bucket liveness sweeps; Evictions the
	// stale heads dropped; ReplacementPromotions the cached contacts that
	// took a freed slot.
	BucketRefreshes, Evictions, ReplacementPromotions int
}

// storedEntry is one stored value plus the republish bookkeeping.
type storedEntry struct {
	entry    overlay.Entry
	storedAt time.Time
}

// Node is one Kademlia peer: an address, its SHA-1 identifier, a
// k-bucket routing table and a multi-entry key-value store.
type Node struct {
	// Addr is the node's unique address.
	Addr string
	// ID is SHA-1 of the address.
	ID keyspace.Key

	table *table

	mu    sync.Mutex
	store map[keyspace.Key][]storedEntry
}

// contact returns the node's directory entry.
func (nd *Node) contact() lookup.Contact {
	return lookup.Contact{Addr: nd.Addr, ID: nd.ID}
}

// putLocal stores e under key, idempotently on (Kind, Value), refreshing
// the republish timestamp either way. It reports whether the entry was new.
func (nd *Node) putLocal(key keyspace.Key, e overlay.Entry, now time.Time) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for i, have := range nd.store[key] {
		if have.entry == e {
			nd.store[key][i].storedAt = now
			return false
		}
	}
	nd.store[key] = append(nd.store[key], storedEntry{entry: e, storedAt: now})
	return true
}

// getLocal returns a copy of the entries under key, nil when absent.
func (nd *Node) getLocal(key keyspace.Key) []overlay.Entry {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	stored := nd.store[key]
	if len(stored) == 0 {
		return nil
	}
	out := make([]overlay.Entry, len(stored))
	for i, se := range stored {
		out[i] = se.entry
	}
	return out
}

// removeLocal deletes the exact entry under key, reporting whether it
// existed.
func (nd *Node) removeLocal(key keyspace.Key, e overlay.Entry) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	entries := nd.store[key]
	for i, have := range entries {
		if have.entry == e {
			entries = append(entries[:i], entries[i+1:]...)
			if len(entries) == 0 {
				delete(nd.store, key)
			} else {
				nd.store[key] = entries
			}
			return true
		}
	}
	return false
}

// Network is the in-process Kademlia overlay. All methods are safe for
// concurrent use; lookups genuinely run their α probes in parallel.
type Network struct {
	cfg Config

	mu           sync.RWMutex
	nodes        map[string]*Node
	sorted       []*Node // by ID: stable iteration for Addrs and stats
	unresponsive map[string]bool

	msgID      atomic.Uint64
	inflightMu sync.Mutex
	inflight   map[uint64]chan message

	inflightProbes atomic.Int64

	metricsMu sync.Mutex
	metrics   Metrics
	// hops is nil until Instrument; Observe on nil is a no-op.
	hops *telemetry.Histogram
}

// NewNetwork creates an empty overlay with the given configuration.
func NewNetwork(cfg Config) *Network {
	return &Network{
		cfg:          cfg.withDefaults(),
		nodes:        make(map[string]*Node),
		unresponsive: make(map[string]bool),
		inflight:     make(map[uint64]chan message),
	}
}

// Size returns the number of live nodes.
func (n *Network) Size() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.nodes)
}

// Metrics returns a snapshot of the substrate counters.
func (n *Network) Metrics() Metrics {
	n.metricsMu.Lock()
	defer n.metricsMu.Unlock()
	return n.metrics
}

// ResetMetrics zeroes the counters (used between experiment phases).
func (n *Network) ResetMetrics() {
	n.metricsMu.Lock()
	defer n.metricsMu.Unlock()
	n.metrics = Metrics{}
}

// Nodes returns the live nodes sorted by ID. The slice is a copy.
func (n *Network) Nodes() []*Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Node, len(n.sorted))
	copy(out, n.sorted)
	return out
}

// NodeAt returns the node with the given address.
func (n *Network) NodeAt(addr string) (*Node, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	node, ok := n.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	return node, nil
}

// SetUnresponsive makes a node silently drop every incoming RPC (true)
// or serve normally again (false) — the fault tests' black-hole switch.
// The node stays a member; callers observe it only as timeouts.
func (n *Network) SetUnresponsive(addr string, dead bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if dead {
		n.unresponsive[addr] = true
	} else {
		delete(n.unresponsive, addr)
	}
}

// AddNode joins a node: it learns a bootstrap contact and runs the
// standard warmup lookup for its own ID, which both fills its table and
// introduces it to its ID-neighbourhood (their handlers observe the
// joiner). No keys migrate on join — the republisher re-covers them.
func (n *Network) AddNode(addr string) (*Node, error) {
	node := &Node{
		Addr:  addr,
		ID:    keyspace.NewKey(addr),
		store: make(map[keyspace.Key][]storedEntry),
	}
	node.table = newTable(node.contact(), n.cfg.K)

	n.mu.Lock()
	if _, ok := n.nodes[addr]; ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNodeExists, addr)
	}
	var bootstrap *Node
	if len(n.sorted) > 0 {
		bootstrap = n.sorted[0]
	}
	n.nodes[addr] = node
	i := sort.Search(len(n.sorted), func(i int) bool {
		return n.sorted[i].ID.Cmp(node.ID) >= 0
	})
	n.sorted = append(n.sorted, nil)
	copy(n.sorted[i+1:], n.sorted[i:])
	n.sorted[i] = node
	n.mu.Unlock()

	if bootstrap != nil {
		node.table.observe(bootstrap.contact(), nil)
		n.findClosest(node, node.ID)
	}
	return node, nil
}

// Populate adds count nodes with generated addresses.
func (n *Network) Populate(count int) ([]*Node, error) {
	out := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		node, err := n.AddNode(fmt.Sprintf("kad-%04d", i))
		if err != nil {
			return nil, err
		}
		out = append(out, node)
	}
	return out, nil
}

// RemoveNode gracefully removes a node: before departing it republishes
// every entry it holds to the key's closest surviving nodes (counted as
// maintenance traffic), the Kademlia analogue of a ring hand-off.
func (n *Network) RemoveNode(addr string) error {
	node, err := n.detach(addr)
	if err != nil {
		return err
	}
	node.mu.Lock()
	stored := node.store
	node.store = make(map[keyspace.Key][]storedEntry)
	node.mu.Unlock()

	origin := n.anyNode()
	if origin == nil {
		return nil
	}
	for key, entries := range stored {
		es := make([]overlay.Entry, len(entries))
		for i, se := range entries {
			es[i] = se.entry
		}
		n.republishEntries(origin, key, es)
	}
	return nil
}

// FailNode crashes a node: its keys vanish and its contact lingers
// stale in other tables until probes time it out. Data survives only
// through replication.
func (n *Network) FailNode(addr string) error {
	_, err := n.detach(addr)
	return err
}

// detach removes the node from membership and returns it.
func (n *Network) detach(addr string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	delete(n.nodes, addr)
	delete(n.unresponsive, addr)
	for i, s := range n.sorted {
		if s == node {
			n.sorted = append(n.sorted[:i], n.sorted[i+1:]...)
			break
		}
	}
	return node, nil
}

// anyNode returns an arbitrary live node (the lowest ID), nil when empty.
func (n *Network) anyNode() *Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.sorted) == 0 {
		return nil
	}
	return n.sorted[0]
}

// Instrument exports the kademlia_* metric families on reg (collector
// pattern: the series read Metrics() at snapshot time) and starts
// recording the per-lookup rounds histogram there.
func (n *Network) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n.metricsMu.Lock()
	n.hops = reg.Histogram("kademlia_lookup_rounds",
		"Iterative lookup depth (α-parallel hops) to converge on a key's closest set.",
		telemetry.HopBuckets)
	n.metricsMu.Unlock()
	reg.CounterFunc("kademlia_lookups_total",
		"Iterative FIND_NODE/FIND_VALUE lookups run by the substrate.",
		func() float64 { return float64(n.Metrics().Lookups) })
	reg.CounterFunc("kademlia_probes_total",
		"FIND probes issued across all lookups (α in flight each).",
		func() float64 { return float64(n.Metrics().Probes) })
	reg.CounterFunc("kademlia_probe_failures_total",
		"Lookup probes that timed out against unresponsive or departed contacts.",
		func() float64 { return float64(n.Metrics().ProbeFailures) })
	reg.CounterFunc("kademlia_store_ops_total",
		"Put operations served by the substrate.",
		func() float64 { return float64(n.Metrics().StoreOps) })
	reg.CounterFunc("kademlia_retrieve_ops_total",
		"Get operations served by the substrate.",
		func() float64 { return float64(n.Metrics().RetrieveOps) })
	reg.CounterFunc("kademlia_bytes_shipped_total",
		"Payload bytes moved between nodes (store, get, republish).",
		func() float64 { return float64(n.Metrics().BytesShipped) })
	reg.CounterFunc("kademlia_republished_entries_total",
		"Entries re-stored by the republisher and by graceful leaves.",
		func() float64 { return float64(n.Metrics().Republished) })
	reg.CounterFunc("kademlia_expired_entries_total",
		"Stored entries dropped by TTL expiry.",
		func() float64 { return float64(n.Metrics().Expired) })
	reg.CounterFunc("kademlia_bucket_refreshes_total",
		"Per-bucket liveness sweeps run by the maintenance loop.",
		func() float64 { return float64(n.Metrics().BucketRefreshes) })
	reg.CounterFunc("kademlia_evictions_total",
		"Stale LRU bucket heads evicted after a failed liveness check.",
		func() float64 { return float64(n.Metrics().Evictions) })
	reg.CounterFunc("kademlia_replacement_promotions_total",
		"Replacement-cache contacts promoted into a freed bucket slot.",
		func() float64 { return float64(n.Metrics().ReplacementPromotions) })
	reg.GaugeFunc("kademlia_inflight_probes",
		"Lookup probes currently in flight across the network.",
		func() float64 { return float64(n.inflightProbes.Load()) })
	reg.GaugeFunc("kademlia_nodes",
		"Live nodes in the simulated overlay.",
		func() float64 { return float64(n.Size()) })
}
