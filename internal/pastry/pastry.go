// Package pastry implements a Pastry overlay (Rowstron & Druschel,
// Middleware 2001) as an in-process simulation — the second DHT substrate
// behind the overlay contract. The paper names Pastry/PAST alongside
// Chord/CFS as candidate storage substrates (§III-A); having two lets the
// evaluation demonstrate that the indexing layer's behaviour is
// substrate-independent (§V-E).
//
// Pastry differs from Chord in two visible ways: a key is stored on the
// node whose identifier is numerically CLOSEST to the key (not the
// successor), and routing resolves one base-16 digit of the key per hop
// via prefix-matching routing tables, falling back to leaf sets near the
// destination.
package pastry

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

const (
	// digits is the number of base-16 digits in an identifier.
	digits = keyspace.Bits / 4
	// leafHalf is the number of leaf-set entries on each side.
	leafHalf = 8
)

// Errors returned by the Pastry layer.
var (
	// ErrEmptyNetwork is returned when an operation requires at least one
	// live node.
	ErrEmptyNetwork = errors.New("pastry: network has no live nodes")
	// ErrNodeExists is returned when a node address is already in use.
	ErrNodeExists = errors.New("pastry: node already exists")
	// ErrNodeUnknown is returned for an address not in the network.
	ErrNodeUnknown = errors.New("pastry: unknown node")
)

// Metrics accumulates substrate counters.
type Metrics struct {
	Lookups int
	Hops    int
	MaxHops int
	// KeysRehomed counts keys moved between nodes by membership changes
	// (join migration and graceful-leave hand-off) — the substrate's
	// maintenance traffic, compared across substrates by the bench matrix.
	KeysRehomed int
}

// Node is one Pastry peer.
type Node struct {
	// Addr is the node's unique address.
	Addr string
	// ID is SHA-1 of the address.
	ID keyspace.Key

	store map[keyspace.Key][]overlay.Entry

	// Routing state, rebuilt lazily per membership epoch.
	epoch   uint64
	leaves  []*Node // leaf set: nearest ring neighbours, both sides
	routing [digits][16]*Node
}

// Network is the in-process Pastry overlay.
type Network struct {
	mu      sync.Mutex
	nodes   map[string]*Node
	sorted  []*Node // by ID
	epoch   uint64
	metrics Metrics
}

// NewNetwork creates an empty overlay.
func NewNetwork() *Network {
	return &Network{nodes: make(map[string]*Node)}
}

// Size returns the number of live nodes.
func (n *Network) Size() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sorted)
}

// Metrics snapshots the routing counters.
func (n *Network) Metrics() Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metrics
}

// AddNode joins a node and migrates the keys it is now closest to.
func (n *Network) AddNode(addr string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeExists, addr)
	}
	node := &Node{
		Addr:  addr,
		ID:    keyspace.NewKey(addr),
		store: make(map[keyspace.Key][]overlay.Entry),
	}
	n.nodes[addr] = node
	i := sort.Search(len(n.sorted), func(i int) bool {
		return n.sorted[i].ID.Cmp(node.ID) >= 0
	})
	n.sorted = append(n.sorted, nil)
	copy(n.sorted[i+1:], n.sorted[i:])
	n.sorted[i] = node
	n.epoch++
	n.migrateTo(node)
	return node, nil
}

// Populate adds count nodes with generated addresses.
func (n *Network) Populate(count int) ([]*Node, error) {
	out := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		node, err := n.AddNode(fmt.Sprintf("pastry-%04d", i))
		if err != nil {
			return nil, err
		}
		out = append(out, node)
	}
	return out, nil
}

// RemoveNode gracefully removes a node, handing its keys to their new
// closest nodes.
func (n *Network) RemoveNode(addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[addr]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	n.deleteLocked(node)
	if len(n.sorted) > 0 {
		for k, entries := range node.store {
			owner := n.ownerLocked(k)
			for _, e := range entries {
				putLocal(owner, k, e)
			}
			n.metrics.KeysRehomed++
		}
	}
	return nil
}

// FailNode crashes a node, losing its keys.
func (n *Network) FailNode(addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[addr]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	n.deleteLocked(node)
	return nil
}

func (n *Network) deleteLocked(node *Node) {
	delete(n.nodes, node.Addr)
	for i, s := range n.sorted {
		if s == node {
			n.sorted = append(n.sorted[:i], n.sorted[i+1:]...)
			break
		}
	}
	n.epoch++
}

// migrateTo moves keys the new node is now closest to. Callers hold n.mu.
func (n *Network) migrateTo(node *Node) {
	if len(n.sorted) < 2 {
		return
	}
	// Only the two ring neighbours can lose keys to the newcomer.
	idx := n.indexOf(node)
	count := len(n.sorted)
	for _, neighbour := range []*Node{
		n.sorted[(idx+1)%count],
		n.sorted[(idx-1+count)%count],
	} {
		for k, entries := range neighbour.store {
			if n.ownerLocked(k) == node {
				for _, e := range entries {
					putLocal(node, k, e)
				}
				delete(neighbour.store, k)
				n.metrics.KeysRehomed++
			}
		}
	}
}

func (n *Network) indexOf(node *Node) int {
	i := sort.Search(len(n.sorted), func(i int) bool {
		return n.sorted[i].ID.Cmp(node.ID) >= 0
	})
	return i
}

// ownerLocked returns the node numerically closest to key (Pastry's
// replica root). Callers hold n.mu.
func (n *Network) ownerLocked(key keyspace.Key) *Node {
	count := len(n.sorted)
	if count == 0 {
		return nil
	}
	i := sort.Search(count, func(i int) bool {
		return n.sorted[i].ID.Cmp(key) >= 0
	})
	succ := n.sorted[i%count]
	pred := n.sorted[(i-1+count)%count]
	// Compare circular distances; ties go to the numerically higher node
	// (the successor side), deterministically.
	dPred := pred.ID.ClockwiseTo(key) // clockwise pred -> key
	dSucc := key.ClockwiseTo(succ.ID) // clockwise key -> succ
	if dPred.Cmp(dSucc) < 0 {
		return pred
	}
	return succ
}

// OwnerOf returns the node responsible for a key (oracle view).
func (n *Network) OwnerOf(key keyspace.Key) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.sorted) == 0 {
		return nil, ErrEmptyNetwork
	}
	return n.ownerLocked(key), nil
}

func putLocal(nd *Node, key keyspace.Key, e overlay.Entry) bool {
	for _, have := range nd.store[key] {
		if have == e {
			return false
		}
	}
	nd.store[key] = append(nd.store[key], e)
	return true
}
