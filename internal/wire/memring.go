package wire

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dhtindex/internal/keyspace"
)

// MemRing is a ring of live nodes on one MemTransport whose maintenance
// runs only when Settle drives it: each node's stabilize interval is an
// hour. The paper's experiments run on it, deterministically and without
// waiting on a clock. The embedded Cluster tracks its members.
type MemRing struct {
	*Cluster
	cfg Config // every node's, but for Addr

	// mu serializes membership changes, Settle and Close. live holds the
	// running nodes in join order, the order Settle ticks them in.
	mu   sync.Mutex
	live []*ringNode
}

// ringNode is a live node with the state its maintenance rounds carry.
type ringNode struct {
	*Node
	m maintenance
}

// settleRounds bounds the maintenance rounds of Settle.
const settleRounds = 64

// StartMemRing boots n nodes at mem-0001, mem-0002, … on one
// MemTransport, joins them through the first and runs stabilize rounds
// until every predecessor and successor list is ideal (so a write
// reaches all its replicas), then fixes fingers until each has been
// refreshed once. replication is the nodes' ReplicationFactor and the
// cluster's; seed drives the cluster's entry-point choice.
func StartMemRing(n, replication int, seed int64) (_ *MemRing, err error) {
	mt := NewMemTransport()
	r := &MemRing{Cluster: NewCluster(mt, seed, replication), cfg: Config{
		Transport:         mt,
		StabilizeInterval: time.Hour,
		ReplicationFactor: replication,
		RepairEvery:       1, // so a quiet Settle round proves nothing is left to move
	}}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := r.start(""); err != nil {
			return nil, err
		}
	}
	for i := 1; i < n; i++ {
		if err := r.live[i].Join(r.live[0].Addr()); err != nil {
			return nil, err
		}
	}
	// A join burst's pointers are ideal after one round (DESIGN.md §23);
	// its successor lists gain an entry a round.
	for round := 0; r.idealErr() != nil; round++ {
		if round == succListLen+1 {
			return nil, fmt.Errorf("wire: %d-node ring not ideal after %d rounds: %w", n, round, r.idealErr())
		}
		for _, rn := range r.live {
			rn.stabilizeOnce()
		}
	}
	for range keyspace.Bits / fingerFixesPerRound {
		for _, rn := range r.live {
			rn.fixFingers()
		}
	}
	for _, rn := range r.live {
		r.Track(rn.Addr())
	}
	return r, nil
}

// start boots one idle node at addr ("" picks the next mem-NNNN) and
// lists it as live, untracked.
func (r *MemRing) start(addr string) (*ringNode, error) {
	cfg := r.cfg
	cfg.Addr = addr
	node, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	rn := &ringNode{Node: node}
	r.live = append(r.live, rn)
	return rn, nil
}

// Join starts a node at addr ("" picks the next mem-NNNN), joins it
// through the first live node, which pulls its range, and tracks it.
func (r *MemRing) Join(addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.live) == 0 {
		return errNoMembers
	}
	boot := r.live[0].Addr()
	rn, err := r.start(addr)
	if err != nil {
		return err
	}
	if err := rn.Join(boot); err != nil {
		r.drop(rn.Addr()).Stop()
		return err
	}
	r.Track(rn.Addr())
	return nil
}

// Leave departs addr gracefully (Node.Leave) and untracks it; a failed
// hand-off is the error returned.
func (r *MemRing) Leave(addr string) error { return r.remove(addr, (*Node).Leave) }

// Crash stops addr without a hand-off and untracks it: its keys survive
// only on its replicas.
func (r *MemRing) Crash(addr string) error {
	return r.remove(addr, func(n *Node) error { n.Stop(); return nil })
}

func (r *MemRing) remove(addr string, stop func(*Node) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rn := r.drop(addr)
	if rn == nil {
		return fmt.Errorf("wire: %s is not a live ring member", addr)
	}
	return stop(rn.Node)
}

// drop untracks addr and removes it from the live list, returning it
// (nil when it is not live). The caller holds r.mu.
func (r *MemRing) drop(addr string) *ringNode {
	i := slices.IndexFunc(r.live, func(rn *ringNode) bool { return rn.Addr() == addr })
	if i < 0 {
		return nil
	}
	rn := r.live[i]
	r.live = slices.Delete(r.live, i, i+1)
	r.Untrack(addr)
	return rn
}

// Settle runs maintenance rounds — every live node's own tick, in join
// order — until a round that began on an ideal ring (idealErr) moved no
// key and ended on one, or fails after settleRounds rounds.
func (r *MemRing) Settle() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.idealErr()
	for range settleRounds {
		before, moved := err, r.repairStats().moved()
		for _, rn := range r.live {
			rn.tick(&rn.m)
		}
		if err = r.idealErr(); before == nil && err == nil && r.repairStats().moved() == moved {
			return nil
		}
	}
	if err == nil {
		err = fmt.Errorf("repair still moving keys")
	}
	return fmt.Errorf("wire: ring not settled after %d rounds: %w", settleRounds, err)
}

// RepairStats sums the live nodes' repair counters.
func (r *MemRing) RepairStats() RepairStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repairStats()
}

func (r *MemRing) repairStats() (total RepairStats) {
	for _, rn := range r.live {
		total.Merge(rn.RepairStats())
	}
	return total
}

// idealErr names the first live node, in ring order, whose predecessor
// or successor list is not ideal: its ring neighbours, and the
// succListLen nodes that follow it (wrapping on a small ring). A
// one-node ring's predecessor is not checked.
func (r *MemRing) idealErr() error {
	ring := make([]*Node, len(r.live))
	for i, rn := range r.live {
		ring[i] = rn.Node
	}
	slices.SortFunc(ring, func(a, b *Node) int { return a.ID().Cmp(b.ID()) })
	for i, n := range ring {
		want := []string{n.Addr()}
		if len(ring) > 1 {
			if pred := ring[(i+len(ring)-1)%len(ring)].Addr(); n.Predecessor() != pred {
				return fmt.Errorf("node %s: predecessor %s, want %s", n.Addr(), n.Predecessor(), pred)
			}
			want = make([]string, succListLen)
			for j := range want {
				want[j] = ring[(i+1+j)%len(ring)].Addr()
			}
		}
		if got := n.Successors(); !slices.Equal(got, want) {
			return fmt.Errorf("node %s: successors %v, want %v", n.Addr(), got, want)
		}
	}
	return nil
}

// Close stops every live node and the cluster's workers.
func (r *MemRing) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.live) > 0 {
		r.drop(r.live[0].Addr()).Stop()
	}
	r.workers.stop()
}
