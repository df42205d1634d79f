package soak

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dhtindex/internal/wire"
)

// ring is the membership of one live ring behind a fault layer, and the
// cluster client that addresses it. Everything a scenario does to a
// member — boot, join, crash, leave, take down keeping its store, revive
// — goes through here, so the transports, the cluster's tracked set, the
// live map and the telemetry registry can never disagree about who is
// in the ring.
type ring struct {
	cfg Config
	// member is the node configuration every member starts from; start
	// fills in what differs per member (endpoint, address, store, retry
	// seed).
	member wire.Config

	ft      *wire.FaultTransport
	rt      *wire.RetryingTransport // the cluster's client side
	cluster *wire.Cluster

	// nodes is every member that ever joined, stopped or not: a crashed
	// member's retry and repair work still counts toward the fleet sums.
	nodes []*wire.Node
	alive map[string]*wire.Node
	// index is each address's stable member number. It survives restarts
	// — it keys Config.StoreFor, so a revived member reopens the same
	// data directory.
	index map[string]int
	next  int
	// live mirrors len(alive) for the wire_ring_nodes gauge, which is
	// read from the registry's goroutine.
	live atomic.Int64

	// downed is the members taken down keeping their store, waiting out
	// their downtime before revival.
	downed   []downedMember
	restarts int
	recovery wire.RecoveryStats
}

// downedMember is one member waiting to be revived from its store.
type downedMember struct {
	addr     string
	idx      int
	reviveAt int
}

// fleetStats is the per-layer work summed over every member and the
// cluster client.
type fleetStats struct {
	Retry      wire.RetryStats
	Repair     wire.RepairStats
	Breaker    wire.BreakerStats
	Merges     wire.MergeStats
	Tombstones wire.TombstoneStats
	Admission  wire.AdmissionStats
}

// bootRing starts cfg.Nodes members behind a fresh fault layer, joins
// them into one ring, instruments every layer and waits for the ring to
// converge. It boots on a clean network: the scenarios measure survival
// under faults, not formation under faults (joins retried under loss are
// a separate case the retry layer also covers). cfg must already carry
// its defaults and member a Retry policy (the zero policy will do). On
// error nothing is left running.
func bootRing(cfg Config, member wire.Config) (*ring, error) {
	base := cfg.Transport
	if base == nil {
		base = wire.NewMemTransport()
	}
	member.StabilizeInterval = cfg.StabilizeInterval
	member.ReplicationFactor = cfg.ReplicationFactor
	member.SuccFailThreshold = 2
	r := &ring{
		cfg:    cfg,
		member: member,
		ft:     wire.NewFaultTransport(base, cfg.Seed),
		alive:  make(map[string]*wire.Node, cfg.Nodes),
		index:  make(map[string]int, cfg.Nodes),
	}
	client := *member.Retry
	client.Seed = cfg.Seed + 2
	r.rt = wire.NewRetryingTransport(r.ft, client)
	r.cluster = wire.NewCluster(r.rt, cfg.Seed+3, cfg.ReplicationFactor)

	var bootstrap string
	for i := 0; i < cfg.Nodes; i++ {
		n, _, err := r.start(r.next, cfg.ListenAddr)
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		r.index[n.Addr()] = r.next
		r.next++
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			n.Stop()
			r.stop()
			return nil, fmt.Errorf("join node %d: %w", i, err)
		}
		r.admit(n)
	}
	if reg := cfg.Telemetry; reg != nil {
		r.ft.Instrument(reg)
		r.cluster.Instrument(reg)
		r.rt.Instrument(reg)
		reg.GaugeFunc("wire_ring_nodes", "Live nodes in the soak ring.",
			func() float64 { return float64(r.live.Load()) })
	}
	if err := r.cluster.WaitConverged(convergeTimeout); err != nil {
		r.stop()
		return nil, fmt.Errorf("ring never formed: %w", err)
	}
	return r, nil
}

// start boots one member, not yet joined: idx picks its store and its
// retry seed, addr is cfg.ListenAddr for a fresh member or the previous
// address for a restart (same address ⇒ same ring ID).
func (r *ring) start(idx int, addr string) (*wire.Node, wire.Store, error) {
	var st wire.Store
	if r.cfg.StoreFor != nil {
		var err error
		if st, err = r.cfg.StoreFor(idx); err != nil {
			return nil, nil, fmt.Errorf("store for member %d: %w", idx, err)
		}
	}
	c := r.member
	policy := *c.Retry
	policy.Seed = r.cfg.Seed + 10 + int64(idx)
	c.Retry = &policy
	c.Transport = r.ft.Endpoint()
	c.Addr = addr
	c.Store = st
	n, err := wire.Start(c)
	if err != nil && st != nil {
		_ = st.Close() // the start error is the one worth reporting
	}
	return n, st, err
}

// admit makes a joined member part of the ring the scenario sees.
func (r *ring) admit(n *wire.Node) {
	r.cluster.Track(n.Addr())
	r.nodes = append(r.nodes, n)
	r.alive[n.Addr()] = n
	r.live.Store(int64(len(r.alive)))
	if r.cfg.Telemetry != nil {
		n.Instrument(r.cfg.Telemetry)
	}
}

// enter starts member idx on addr and joins it mid-storm through up to
// three random tracked members — a join under the storm can fail
// end-to-end even with RPC retries, so one refusal is not the verdict.
// It returns a nil node when every attempt drowned in the storm. A
// revived member's address stays blackholed until its node is fully
// started: peers still know the address, and wire.Start binds the
// listener before it has set the node's address and ID.
func (r *ring) enter(idx int, addr string, rng *rand.Rand) (*wire.Node, wire.Store, error) {
	n, st, err := r.start(idx, addr)
	if err != nil {
		return nil, nil, err
	}
	r.ft.Restore(n.Addr())
	tracked := r.cluster.Addrs()
	for try := 0; try < 3 && len(tracked) > 0; try++ {
		if n.Join(tracked[rng.Intn(len(tracked))]) == nil {
			r.admit(n)
			return n, st, nil
		}
	}
	n.Stop() // closes the store; a later attempt reopens it
	return nil, nil, nil
}

// join adds a fresh member mid-storm. It returns "" when the join
// drowned; the member index is spent either way.
func (r *ring) join(rng *rand.Rand) (string, error) {
	idx := r.next
	r.next++
	n, _, err := r.enter(idx, r.cfg.ListenAddr, rng)
	if n == nil {
		return "", err
	}
	r.index[n.Addr()] = idx
	return n.Addr(), nil
}

// forget takes a member out of the tracked and live sets, so the cluster
// stops addressing it.
func (r *ring) forget(addr string) *wire.Node {
	n := r.alive[addr]
	r.cluster.Untrack(addr)
	delete(r.alive, addr)
	r.live.Store(int64(len(r.alive)))
	return n
}

// crash crash-stops a member: blackholed at the fault layer, stopped
// with no hand-off.
func (r *ring) crash(addr string) {
	r.ft.Crash(addr)
	r.forget(addr).Stop()
}

// leave departs a member gracefully. It is forgotten first so the
// cluster stops routing reads into a member that is mid-handoff.
func (r *ring) leave(addr string) error {
	return r.forget(addr).Leave()
}

// takeDown crash-stops a member KEEPING its store and queues it for
// revival at op reviveAt.
func (r *ring) takeDown(addr string, reviveAt int) {
	r.crash(addr)
	r.downed = append(r.downed, downedMember{addr: addr, idx: r.index[addr], reviveAt: reviveAt})
}

// revive restarts one downed member on its old address (reclaiming its
// ring ID), reopening its store, and rejoins it. It returns false when
// the join drowned in the storm; the member stays down for a later try.
func (r *ring) revive(d downedMember, rng *rand.Rand) (bool, error) {
	n, st, err := r.enter(d.idx, d.addr, rng)
	if n == nil {
		return false, err
	}
	if rc, ok := st.(wire.RecoverableStore); ok {
		r.recovery.Merge(rc.RecoveryStats())
	}
	r.restarts++
	return true, nil
}

// stop stops every member ever started; stopping twice is harmless.
func (r *ring) stop() {
	for _, n := range r.nodes {
		n.Stop()
	}
}

// stats sums the fleet's work: every member, crashed or not, plus the
// cluster client's own retry layer.
func (r *ring) stats() fleetStats {
	var s fleetStats
	for _, n := range r.nodes {
		s.Retry.Merge(n.RetryStats())
		s.Repair.Merge(n.RepairStats())
		s.Breaker.Merge(n.BreakerStats())
		s.Merges.Merge(n.MergeStats())
		s.Tombstones.Merge(n.TombstoneStats())
		s.Admission.Merge(n.AdmissionStats())
	}
	s.Retry.Merge(r.rt.Stats())
	s.Breaker.Merge(r.rt.BreakerStats())
	return s
}
