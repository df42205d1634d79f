package wire

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// SoakConfig parameterizes a churn soak: a live ring run under a seeded
// schedule of drops, latency, partitions and crashes while write-once
// index entries are continuously written and read back. The zero value
// gets production-shaped defaults (16 nodes, 10% drop, 50ms latency,
// one crash per 100 ops, one partition/heal cycle).
type SoakConfig struct {
	// Nodes is the ring size (default 16).
	Nodes int
	// Ops is the number of write-once entries put during the storm
	// (default 150). Each op also reads back a previously-acked key.
	Ops int
	// Seed drives the fault schedule and all random choices.
	Seed int64
	// DropProb is the per-message loss probability (default 0.10).
	DropProb float64
	// Latency is the injected delay when a latency fault fires
	// (default 50ms).
	Latency time.Duration
	// LatencyProb is the probability of injecting Latency per message
	// (default 0.15).
	LatencyProb float64
	// CrashEvery crashes one node per this many ops (default 100).
	CrashEvery int
	// PartitionAt is the op index where an adjacent pair of nodes is
	// partitioned (default Ops/3; negative disables partitions);
	// PartitionLen ops later it heals (default Ops/5).
	PartitionAt  int
	PartitionLen int
	// PartitionWidth, when > 0, turns the partition episode into a GROUP
	// partition: a contiguous arc of PartitionWidth ring-ordered members
	// is cut from the rest of the ring in both directions, so the two
	// sides stabilize into independent rings (split brain). Healing uses
	// targeted HealLink calls over the cut pairs, and re-convergence
	// afterwards requires the merge coordinator — plain stabilization
	// cannot bridge two complete rings. While a group episode is active
	// the crash/leave/restart schedules pause (those scenarios compose
	// elsewhere; here the episode itself is the subject under test).
	// 0 keeps the legacy adjacent-pair cut.
	PartitionWidth int
	// RemoveEvery, when > 0, removes one previously-acked entry through
	// the cluster every RemoveEvery storm ops. Removed entries leave the
	// loss check and are instead held to the anti-resurrection check:
	// after the storm no live node may still serve them. Removes issued
	// during a split-brain episode land on one side only — the merge and
	// the tombstone exchange must keep them deleted ring-wide.
	RemoveEvery int
	// ReplicationFactor for the ring (default 2).
	ReplicationFactor int
	// StabilizeInterval for the ring (default 25ms).
	StabilizeInterval time.Duration
	// Retry is the RPC retry policy every node and the cluster use
	// (defaults applied if zero).
	Retry RetryPolicy
	// Transport, when set, is the base transport the soak runs over
	// (wrapped in the fault and retry layers); nil uses a fresh
	// MemTransport. Set a TCPTransport to soak the pooled TCP fast path
	// under the same churn schedule.
	Transport Transport
	// ListenAddr is the listen address members bind ("mem:0" by default;
	// "127.0.0.1:0" for a TCP transport). Restarting members always
	// rebind their original concrete address.
	ListenAddr string
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
	// Telemetry, when non-nil, receives the run's registry series: the
	// injected-fault counters, fleet-wide retry counters, the cluster's
	// failover counters, the hop and RPC-latency histograms, and a
	// wire_ring_nodes gauge tracking the live ring size.
	Telemetry *telemetry.Registry
	// Setup, when set, runs after the ring has converged and before the
	// storm starts — e.g. to publish an indexed corpus over the live ring
	// (internal/soak layers the paper's index workload through it).
	Setup func(c *Cluster) error
	// OnOp, when set, runs once per storm op after the op's own put and
	// read-back — e.g. to drive indexed lookups through the faulted ring.
	OnOp func(op int, c *Cluster)
	// JoinEvery, when > 0, starts and joins a fresh node every JoinEvery
	// storm ops — the repair loop must make newcomers readable replicas,
	// not just tolerate departures.
	JoinEvery int
	// LeaveEvery, when > 0, gracefully Leaves one live node every
	// LeaveEvery storm ops (on top of the crash schedule).
	LeaveEvery int
	// Breaker, when non-nil, arms the per-peer circuit breaker on every
	// retry transport in the run (the cluster's and each node's).
	Breaker *BreakerPolicy
	// Admission, when non-nil, arms per-node admission control: every
	// member bounds its inflight and queued work and sheds the excess
	// with ErrOverload instead of queueing without bound.
	Admission *AdmissionConfig
	// VerifyReplicas, when true, additionally holds the ring to full
	// replica convergence after the storm: every acked key must settle
	// at exactly min(ReplicationFactor+1, live) physical copies across
	// the live nodes' local stores. Violations are reported in
	// ReplicaViolations.
	VerifyReplicas bool
	// PostStorm, when set, runs after the storm has healed, the ring
	// re-converged and all verification passed — e.g. to probe degraded
	// lookups against freshly crash-stopped nodes. Its error is returned
	// as the run's error.
	PostStorm func(c *Cluster, ft *FaultTransport) error

	// StoreFor, when set, supplies each member's Store by its stable
	// member index — the hook that makes the soak's nodes durable (the
	// caller typically opens internal/wire/durable stores in per-index
	// directories). A restarting member re-invokes StoreFor with the
	// SAME index, so the implementation must return a fresh handle onto
	// the same underlying data. Nil members fall back to MemStore.
	StoreFor func(member int) (Store, error)
	// RestartEvery, when > 0, crash-restarts a burst of ring-adjacent
	// members every RestartEvery storm ops: each is crash-stopped (no
	// handoff) KEEPING its data directory, sits out RestartDowntime ops,
	// then reopens its store, restarts on the same address — reclaiming
	// its ring ID — and rejoins. With RestartBurst covering a whole
	// replica set, the burst's key ranges survive only if the durable
	// store brings them back.
	RestartEvery int
	// RestartBurst is how many adjacent members each restart event takes
	// down (default ReplicationFactor+1 — a full replica set).
	RestartBurst int
	// RestartDowntime is how many ops a restarted member stays down
	// (default 15).
	RestartDowntime int

	// ConvergeTimeout bounds the WaitConverged calls at ring formation
	// and after the storm (default 30s).
	ConvergeTimeout time.Duration
	// ReadbackTimeout bounds the post-storm probe that re-reads every
	// acked key (default 30s).
	ReadbackTimeout time.Duration
	// ReplicaVerifyTimeout bounds the VerifyReplicas convergence hold
	// (default 45s).
	ReplicaVerifyTimeout time.Duration
	// PutRetries is the op-level put retry budget on top of RPC retries
	// (default 8).
	PutRetries int
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Nodes == 0 {
		c.Nodes = 16
	}
	if c.Ops == 0 {
		c.Ops = 150
	}
	if c.DropProb == 0 {
		c.DropProb = 0.10
	}
	if c.Latency == 0 {
		c.Latency = 50 * time.Millisecond
	}
	if c.LatencyProb == 0 {
		c.LatencyProb = 0.15
	}
	if c.CrashEvery == 0 {
		c.CrashEvery = 100
	}
	if c.PartitionAt == 0 {
		c.PartitionAt = c.Ops / 3
	}
	if c.PartitionLen == 0 {
		c.PartitionLen = c.Ops / 5
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 2
	}
	if c.StabilizeInterval == 0 {
		c.StabilizeInterval = 25 * time.Millisecond
	}
	if c.RestartBurst == 0 {
		c.RestartBurst = c.ReplicationFactor + 1
	}
	if c.RestartDowntime == 0 {
		c.RestartDowntime = 15
	}
	if c.ConvergeTimeout == 0 {
		c.ConvergeTimeout = 30 * time.Second
	}
	if c.ReadbackTimeout == 0 {
		c.ReadbackTimeout = 30 * time.Second
	}
	if c.ReplicaVerifyTimeout == 0 {
		c.ReplicaVerifyTimeout = 45 * time.Second
	}
	if c.PutRetries == 0 {
		c.PutRetries = 8
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "mem:0"
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// PartitionEpisode records one partition window of a soak run.
type PartitionEpisode struct {
	// StartOp is the storm op index where the cut was made.
	StartOp int
	// HealOp is the op index where it healed (-1 when the episode was
	// still open at storm end and the global heal closed it).
	HealOp int
	// SideA and SideB are the side sizes (1 and 1 for the legacy
	// adjacent-pair cut).
	SideA int
	SideB int
}

// SoakReport is the outcome of a soak run: what was injected, what the
// retry layer absorbed, and whether the ring kept its promises.
type SoakReport struct {
	// Faults is what the FaultTransport injected.
	Faults FaultStats
	// Retry is the fleet-wide retry work (all nodes + the cluster).
	Retry RetryStats
	// Repair is the fleet-wide anti-entropy repair work.
	Repair RepairStats
	// Breaker is the fleet-wide circuit-breaker work (zero when no
	// breaker policy was configured).
	Breaker BreakerStats
	// Cluster is the adapter's failover accounting.
	Cluster ClusterMetrics

	// Acked is the number of write-once entries whose Put succeeded;
	// only these are held against the ring at verification.
	Acked int
	// PutFailures counts puts that failed even with op-level retries.
	PutFailures int
	// ChaosReads / ChaosReadFailures count the read-backs issued during
	// the storm (failures there are tolerated; the storm is still on).
	ChaosReads        int
	ChaosReadFailures int
	// Crashes and Partitions count the schedule's executed events.
	Crashes    int
	Partitions int
	// Episodes records each executed partition episode's window and side
	// sizes.
	Episodes []PartitionEpisode
	// Removes and RemoveFailures count the remove schedule's executed
	// and failed removals (RemoveEvery > 0). A failed remove is
	// ambiguous — a tombstone may or may not have been planted — so its
	// key is excluded from both the loss and the resurrection checks.
	Removes        int
	RemoveFailures int
	// Resurrections lists removed entries some live node still served
	// after the storm settled — must be empty: a resurrection means a
	// stale replica re-propagated a deleted entry past its tombstone.
	Resurrections []string
	// Merges is the fleet-wide ring-merge work (probes, detections,
	// coordinated rejoins).
	Merges MergeStats
	// Tombstones is the fleet-wide deletion-record work.
	Tombstones TombstoneStats
	// Joins and Leaves count the churn schedule's executed member
	// additions and graceful departures.
	Joins  int
	Leaves int
	// Restarts counts members crash-restarted from their data directory
	// (RestartEvery schedule).
	Restarts int
	// Recovery aggregates what the restarted members' durable stores
	// replayed (zero without StoreFor).
	Recovery RecoveryStats
	// Converged reports whether the surviving ring re-converged to the
	// ideal successor cycle after the storm.
	Converged bool
	// LostKeys lists acked write-once keys that could not be read back
	// after the storm — must be empty with replication ≥ 1.
	LostKeys []string
	// ReplicaViolations lists acked keys whose physical copy count never
	// settled at the expected replica count (VerifyReplicas only).
	ReplicaViolations []string
	// SurvivingNodes is the ring size after the storm.
	SurvivingNodes int
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
}

// RetryAmplification is wire sends per logical RPC across the fleet.
func (r SoakReport) RetryAmplification() float64 { return r.Retry.Amplification() }

// RunSoak executes the churn soak and reports what happened. The error
// is non-nil only for harness failures (a node refusing to boot); ring
// misbehaviour — lost entries, failed convergence — is reported in the
// SoakReport for the caller to judge.
func RunSoak(cfg SoakConfig) (SoakReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	var report SoakReport

	base := cfg.Transport
	if base == nil {
		base = NewMemTransport()
	}
	ft := NewFaultTransport(base, cfg.Seed)
	schedule := rand.New(rand.NewSource(cfg.Seed + 1))
	policy := cfg.Retry.withDefaults()
	policy.Seed = cfg.Seed + 2
	policy.Breaker = cfg.Breaker

	cluster := NewCluster(NewRetryingTransport(ft, policy), cfg.Seed+3, cfg.ReplicationFactor)

	// startMember boots one member. Each member has a stable index that
	// survives restarts — it keys StoreFor, so a revived member reopens
	// the same data directory. addr is cfg.ListenAddr for a fresh member
	// or the previous address for a restart (same address ⇒ same ring ID).
	startMember := func(idx int, addr string) (*Node, Store, error) {
		var st Store
		if cfg.StoreFor != nil {
			var err error
			if st, err = cfg.StoreFor(idx); err != nil {
				return nil, nil, fmt.Errorf("soak: store for member %d: %w", idx, err)
			}
		}
		p := policy
		p.Seed = cfg.Seed + 10 + int64(idx)
		n, err := Start(Config{
			Transport:         ft.Endpoint(),
			Addr:              addr,
			StabilizeInterval: cfg.StabilizeInterval,
			ReplicationFactor: cfg.ReplicationFactor,
			Retry:             &p,
			SuccFailThreshold: 2,
			Admission:         cfg.Admission,
			Store:             st,
		})
		if err != nil && st != nil {
			_ = st.Close()
		}
		return n, st, err
	}

	// Boot and converge the ring on a clean network: the soak measures
	// survival under faults, not formation under faults (joins retried
	// under loss are a separate scenario the retry layer also covers).
	nodes := make([]*Node, 0, cfg.Nodes)
	alive := make(map[string]*Node, cfg.Nodes)
	memberIdx := make(map[string]int, cfg.Nodes)
	nextIdx := 0
	var bootstrap string
	for i := 0; i < cfg.Nodes; i++ {
		n, _, err := startMember(nextIdx, cfg.ListenAddr)
		if err != nil {
			return report, fmt.Errorf("soak: start node %d: %w", i, err)
		}
		memberIdx[n.Addr()] = nextIdx
		nextIdx++
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			return report, fmt.Errorf("soak: join node %d: %w", i, err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
		alive[n.Addr()] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	var aliveCount atomic.Int64
	aliveCount.Store(int64(len(alive)))
	if cfg.Telemetry != nil {
		ft.Instrument(cfg.Telemetry)
		cluster.Instrument(cfg.Telemetry)
		if rt, ok := cluster.transport.(*RetryingTransport); ok {
			rt.Instrument(cfg.Telemetry)
		}
		for _, n := range nodes {
			n.Instrument(cfg.Telemetry)
		}
		cfg.Telemetry.GaugeFunc("wire_ring_nodes",
			"Live nodes in the soak ring.",
			func() float64 { return float64(aliveCount.Load()) })
	}
	if err := cluster.WaitConverged(cfg.ConvergeTimeout); err != nil {
		return report, fmt.Errorf("soak: ring never formed: %w", err)
	}
	if cfg.Setup != nil {
		if err := cfg.Setup(cluster); err != nil {
			return report, fmt.Errorf("soak: setup: %w", err)
		}
	}
	cfg.Log("soak: ring of %d converged, starting storm (drop=%.0f%%, latency=%v@%.0f%%)",
		cfg.Nodes, 100*cfg.DropProb, cfg.Latency, 100*cfg.LatencyProb)

	// Storm on.
	ft.SetDefaultRule(FaultRule{
		DropProb:    cfg.DropProb,
		Latency:     cfg.Latency,
		LatencyProb: cfg.LatencyProb,
	})

	// Crash-restart bookkeeping: members taken down with their data
	// directory intact, waiting out their downtime before revival.
	type downedMember struct {
		addr     string
		idx      int
		reviveAt int
	}
	var downed []downedMember

	// revive restarts one downed member on its old address (reclaiming
	// its ring ID) and rejoins it. Returns false when the join drowned in
	// the storm; the caller re-queues the member for a later attempt.
	revive := func(d downedMember) (bool, error) {
		ft.Restore(d.addr)
		n, st, err := startMember(d.idx, d.addr)
		if err != nil {
			return false, err
		}
		joined := false
		ring := cluster.Addrs()
		for try := 0; try < 3 && !joined && len(ring) > 0; try++ {
			boot := ring[schedule.Intn(len(ring))]
			joined = n.Join(boot) == nil
		}
		if !joined {
			n.Stop() // closes the store; the retry reopens it
			return false, nil
		}
		cluster.Track(d.addr)
		nodes = append(nodes, n)
		alive[d.addr] = n
		aliveCount.Store(int64(len(alive)))
		if cfg.Telemetry != nil {
			n.Instrument(cfg.Telemetry)
		}
		if rc, ok := st.(RecoverableStore); ok {
			report.Recovery.Merge(rc.RecoveryStats())
		}
		report.Restarts++
		return true, nil
	}

	var acked []string
	ackedEntry := make(map[string]overlay.Entry)
	type removedPair struct {
		key   string
		entry overlay.Entry
	}
	var removed []removedPair
	partitioned := false
	var partA, partB string
	var groupA, groupB []string
	for op := 0; op < cfg.Ops; op++ {
		// While a group partition is open, pause member churn: a node
		// revived or joined mid-episode sits outside both blocked sides
		// and would bridge the rings, short-circuiting the merge the
		// episode exists to exercise.
		groupOpen := len(groupA) > 0
		// Revive downed members whose downtime has elapsed. A failed
		// rejoin re-queues the member a few ops out — its data directory
		// is durable, so nothing is lost by waiting.
		for i := 0; i < len(downed) && !groupOpen; {
			d := downed[i]
			if d.reviveAt > op {
				i++
				continue
			}
			ok, err := revive(d)
			if err != nil {
				return report, err
			}
			if ok {
				downed = append(downed[:i], downed[i+1:]...)
				cfg.Log("soak: op %d: restarted %s from its data dir (%d nodes)", op, d.addr, len(alive))
			} else {
				downed[i].reviveAt = op + 5
				cfg.Log("soak: op %d: restart of %s drowned in the storm; retrying", op, d.addr)
				i++
			}
		}
		// Crash-restart schedule: take down a run of ring-adjacent
		// members — a whole replica set when RestartBurst ≥ R+1 — keeping
		// their data directories. Until they return, their key ranges
		// live only on disk (plus whatever replicas survive outside the
		// burst), which is exactly the property under test.
		if cfg.RestartEvery > 0 && op > 0 && op%cfg.RestartEvery == 0 && !groupOpen {
			ring := cluster.Addrs()
			if len(ring) >= cfg.RestartBurst+2 {
				at := schedule.Intn(len(ring))
				for b := 0; b < cfg.RestartBurst; b++ {
					addr := ring[(at+b)%len(ring)]
					n, ok := alive[addr]
					if !ok || addr == partA || addr == partB {
						continue
					}
					ft.Crash(addr)
					n.Stop()
					cluster.Untrack(addr)
					delete(alive, addr)
					aliveCount.Store(int64(len(alive)))
					downed = append(downed, downedMember{addr: addr, idx: memberIdx[addr], reviveAt: op + cfg.RestartDowntime})
					cfg.Log("soak: op %d: crash-restarting %s (down for %d ops, %d nodes left)",
						op, addr, cfg.RestartDowntime, len(alive))
				}
			}
		}
		// Fault schedule first, so writes land on the faulted topology.
		if op > 0 && op%cfg.CrashEvery == 0 && len(alive) > cfg.Nodes/2 && !groupOpen {
			victim := pickVictim(schedule, cluster.Addrs(), alive, partA, partB)
			if victim != nil {
				ft.Crash(victim.Addr())
				victim.Stop()
				cluster.Untrack(victim.Addr())
				delete(alive, victim.Addr())
				aliveCount.Store(int64(len(alive)))
				report.Crashes++
				cfg.Log("soak: op %d: crashed %s (%d nodes left)", op, victim.Addr(), len(alive))
			}
		}
		if op == cfg.PartitionAt && len(alive) >= 4 {
			if cfg.PartitionWidth > 0 {
				groupA, groupB = splitArc(schedule, cluster.Addrs(), cfg.PartitionWidth)
				if len(groupA) > 0 {
					ft.PartitionGroups(groupA, groupB)
					partitioned = true
					report.Partitions++
					report.Episodes = append(report.Episodes, PartitionEpisode{
						StartOp: op, HealOp: -1, SideA: len(groupA), SideB: len(groupB)})
					cfg.Log("soak: op %d: group partition %d|%d nodes", op, len(groupA), len(groupB))
				}
			} else {
				partA, partB = adjacentPair(schedule, cluster.Addrs())
				if partA != "" {
					ft.Partition(partA, partB)
					partitioned = true
					report.Partitions++
					report.Episodes = append(report.Episodes, PartitionEpisode{
						StartOp: op, HealOp: -1, SideA: 1, SideB: 1})
					cfg.Log("soak: op %d: partitioned %s <-> %s", op, partA, partB)
				}
			}
		}
		if partitioned && op == cfg.PartitionAt+cfg.PartitionLen {
			// Heal by cut pair, not globally: the episode must not quietly
			// restore links the crash schedule severed.
			if len(groupA) > 0 {
				for _, a := range groupA {
					for _, b := range groupB {
						ft.HealLink(a, b)
					}
				}
				groupA, groupB = nil, nil
			} else {
				ft.HealLink(partA, partB)
			}
			partitioned = false
			report.Episodes[len(report.Episodes)-1].HealOp = op
			cfg.Log("soak: op %d: partition healed", op)
		}
		if cfg.JoinEvery > 0 && op > 0 && op%cfg.JoinEvery == 0 && !groupOpen {
			n, _, err := startMember(nextIdx, cfg.ListenAddr)
			if err != nil {
				return report, fmt.Errorf("soak: op %d: start joiner: %w", op, err)
			}
			memberIdx[n.Addr()] = nextIdx
			nextIdx++
			// Joins happen under the storm, so a bootstrap attempt can fail
			// end-to-end even with RPC retries; try a few live members.
			joined := false
			ring := cluster.Addrs()
			for try := 0; try < 3 && !joined; try++ {
				boot := ring[schedule.Intn(len(ring))]
				joined = n.Join(boot) == nil
			}
			if joined {
				cluster.Track(n.Addr())
				nodes = append(nodes, n)
				alive[n.Addr()] = n
				aliveCount.Store(int64(len(alive)))
				if cfg.Telemetry != nil {
					n.Instrument(cfg.Telemetry)
				}
				report.Joins++
				cfg.Log("soak: op %d: joined %s (%d nodes)", op, n.Addr(), len(alive))
			} else {
				n.Stop()
				cfg.Log("soak: op %d: join attempt drowned in the storm", op)
			}
		}
		if cfg.LeaveEvery > 0 && op > 0 && op%cfg.LeaveEvery == 0 && len(alive) > cfg.Nodes/2 && !groupOpen {
			victim := pickVictim(schedule, cluster.Addrs(), alive, partA, partB)
			if victim != nil {
				// Untrack first so the adapter stops routing reads into a
				// member that is mid-handoff.
				cluster.Untrack(victim.Addr())
				delete(alive, victim.Addr())
				aliveCount.Store(int64(len(alive)))
				if err := victim.Leave(); err != nil {
					// Partial handoff under the storm: the repair loop owns
					// re-replicating whatever the departure dropped.
					cfg.Log("soak: op %d: leave handoff incomplete: %v", op, err)
				}
				report.Leaves++
				cfg.Log("soak: op %d: %s left gracefully (%d nodes left)", op, victim.Addr(), len(alive))
			}
		}

		key := fmt.Sprintf("soak-%d", op)
		entry := overlay.Entry{Kind: "soak", Value: fmt.Sprintf("v%d", op)}
		if putWithRetry(cluster, keyspace.NewKey(key), entry, cfg.PutRetries) {
			acked = append(acked, key)
			ackedEntry[key] = entry
		} else {
			report.PutFailures++
		}

		// Remove schedule: delete a previously-acked entry through the
		// cluster. The key leaves the loss check either way — the remove
		// handler plants a tombstone on whichever owner it reached, so
		// even a client-visible failure may already have doomed the
		// entry. Only an acked remove joins the resurrection check.
		if cfg.RemoveEvery > 0 && op > 0 && op%cfg.RemoveEvery == 0 && len(acked) > 0 {
			i := schedule.Intn(len(acked))
			rkey := acked[i]
			rentry := ackedEntry[rkey]
			acked = append(acked[:i], acked[i+1:]...)
			delete(ackedEntry, rkey)
			okRemove := false
			for try := 0; try < cfg.PutRetries && !okRemove; try++ {
				if _, err := cluster.Remove(keyspace.NewKey(rkey), rentry); err == nil {
					okRemove = true
				} else {
					time.Sleep(time.Duration(10*(try+1)) * time.Millisecond)
				}
			}
			if okRemove {
				removed = append(removed, removedPair{key: rkey, entry: rentry})
				report.Removes++
			} else {
				report.RemoveFailures++
				cfg.Log("soak: op %d: remove of %s failed end-to-end", op, rkey)
			}
		}

		// Read back a random previously-acked key; failures during the
		// storm are tolerated and counted.
		if len(acked) > 0 {
			probe := acked[schedule.Intn(len(acked))]
			report.ChaosReads++
			if _, _, err := cluster.Get(keyspace.NewKey(probe)); err != nil {
				report.ChaosReadFailures++
			}
		}
		if cfg.OnOp != nil {
			cfg.OnOp(op, cluster)
		}
	}
	report.Acked = len(acked)

	// Storm off: heal everything, bring every still-downed member back
	// from its data directory, and let the ring repair — then hold it to
	// its promises on a clean network.
	ft.Heal()
	ft.SetDefaultRule(FaultRule{})
	for _, d := range downed {
		ok, err := revive(d)
		for try := 0; err == nil && !ok && try < 5; try++ {
			time.Sleep(50 * time.Millisecond)
			ok, err = revive(d)
		}
		if err != nil {
			return report, err
		}
		if !ok {
			return report, fmt.Errorf("soak: member %s never rejoined after restart", d.addr)
		}
	}
	downed = nil
	if err := cluster.WaitConverged(cfg.ConvergeTimeout); err == nil {
		report.Converged = true
	} else {
		cfg.Log("soak: ring did not re-converge: %v", err)
	}
	report.SurvivingNodes = len(alive)

	// Every acked write-once entry must still be served. Replica repair
	// may need a few rounds to resettle keys, so poll with a deadline.
	deadline := time.Now().Add(cfg.ReadbackTimeout)
	for _, key := range acked {
		k := keyspace.NewKey(key)
		for {
			entries, _, err := cluster.Get(k)
			if err == nil && len(entries) > 0 {
				break
			}
			if time.Now().After(deadline) {
				report.LostKeys = append(report.LostKeys, key)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// With VerifyReplicas the run is additionally held to the repair
	// loop's invariant: every acked key settles at exactly the ideal
	// replica count — no under-replication (a crash ate a copy nobody
	// re-pushed) and no over-replication (a stale copy nobody dropped).
	if cfg.VerifyReplicas && cfg.ReplicationFactor > 0 {
		expected := cfg.ReplicationFactor + 1
		if len(alive) < expected {
			expected = len(alive)
		}
		verifyDeadline := time.Now().Add(cfg.ReplicaVerifyTimeout)
		for _, key := range acked {
			k := keyspace.NewKey(key)
			for {
				got := countCopies(ft, cluster.Addrs(), k)
				if got == expected {
					break
				}
				if time.Now().After(verifyDeadline) {
					report.ReplicaViolations = append(report.ReplicaViolations,
						fmt.Sprintf("%s: %d copies, want %d", key, got, expected))
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}

	// Anti-resurrection: every acked remove must stay removed. Repair and
	// merge traffic may lawfully take a few rounds to push tombstones over
	// stale replicas, so poll toward zero holders; a holder remaining at
	// the deadline is a resurrection — a deleted entry that outlived its
	// removal by riding replica repair past the tombstone exchange.
	if len(removed) > 0 {
		resDeadline := time.Now().Add(cfg.ReadbackTimeout)
		for _, r := range removed {
			k := keyspace.NewKey(r.key)
			for {
				holders := 0
				for _, addr := range cluster.Addrs() {
					resp, err := ft.Call(addr, Message{Op: OpGet, Key: k})
					if err != nil || resp.Err != "" {
						continue
					}
					for _, e := range resp.Entries {
						if e == r.entry {
							holders++
							break
						}
					}
				}
				if holders == 0 {
					break
				}
				if time.Now().After(resDeadline) {
					report.Resurrections = append(report.Resurrections,
						fmt.Sprintf("%s: %d nodes still serve the removed entry", r.key, holders))
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}

	if cfg.PostStorm != nil {
		if err := cfg.PostStorm(cluster, ft); err != nil {
			return report, fmt.Errorf("soak: post-storm probe: %w", err)
		}
	}

	report.Faults = ft.Stats()
	for _, n := range nodes {
		report.Retry.Merge(n.RetryStats())
		report.Repair.Merge(n.RepairStats())
		report.Breaker.Merge(n.BreakerStats())
		report.Merges.Merge(n.MergeStats())
		report.Tombstones.Merge(n.TombstoneStats())
	}
	if rt, ok := cluster.transport.(*RetryingTransport); ok {
		report.Retry.Merge(rt.Stats())
		report.Breaker.Merge(rt.BreakerStats())
	}
	report.Cluster = cluster.Metrics()
	report.Elapsed = time.Since(start)
	cfg.Log("soak: done in %v: acked=%d lost=%d badreplicas=%d removes=%d resurrections=%d crashes=%d partitions=%d joins=%d leaves=%d restarts=%d amplification=%.2f repair=[pushes=%d drops=%d] merge=[probes=%d detected=%d rejoins=%d] tombstones=[created=%d merged=%d suppressed=%d] recovery=[snap=%d replayed=%d torn=%d]",
		report.Elapsed.Round(time.Millisecond), report.Acked, len(report.LostKeys),
		len(report.ReplicaViolations), report.Removes, len(report.Resurrections),
		report.Crashes, report.Partitions,
		report.Joins, report.Leaves, report.Restarts, report.RetryAmplification(),
		report.Repair.Pushes, report.Repair.Drops,
		report.Merges.Probes, report.Merges.Detected, report.Merges.Rejoins,
		report.Tombstones.Created, report.Tombstones.Merged, report.Tombstones.Suppressed,
		report.Recovery.SnapshotKeys, report.Recovery.ReplayedRecords, report.Recovery.TornRecords)
	return report, nil
}

// putWithRetry performs an op-level put retry loop on top of the RPC
// retry layer: under a storm a put can fail end-to-end (e.g. routing
// resolved to a node that crashed mid-op) and the workload, like any
// real client, tries again. Only an acked put counts as write-once data.
func putWithRetry(cluster *Cluster, key keyspace.Key, e overlay.Entry, tries int) bool {
	for i := 0; i < tries; i++ {
		if _, err := cluster.Put(key, e); err == nil {
			return true
		}
		time.Sleep(time.Duration(10*(i+1)) * time.Millisecond)
	}
	return false
}

// pickVictim chooses a crash victim among live nodes, sparing the
// currently partitioned pair (crashing one would quietly end the
// partition scenario).
func pickVictim(rng *rand.Rand, ringOrder []string, alive map[string]*Node, partA, partB string) *Node {
	candidates := make([]string, 0, len(ringOrder))
	for _, addr := range ringOrder {
		if addr == partA || addr == partB {
			continue
		}
		if _, ok := alive[addr]; ok {
			candidates = append(candidates, addr)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return alive[candidates[rng.Intn(len(candidates))]]
}

// countCopies counts how many of the given nodes hold the key in their
// LOCAL store. An OpGet without a TTL never forwards, so a direct
// per-node call observes the key's physical replica placement rather
// than routed availability.
func countCopies(t Transport, addrs []string, key keyspace.Key) int {
	copies := 0
	for _, addr := range addrs {
		resp, err := t.Call(addr, Message{Op: OpGet, Key: key})
		if err == nil && resp.Err == "" && len(resp.Entries) > 0 {
			copies++
		}
	}
	return copies
}

// splitArc cuts a contiguous arc of width ring-ordered members as one
// side of a group partition and returns the remainder as the other.
// Contiguity matters: an arc is a run of ring neighbours, so each side
// re-closes into its own consistent ring instead of fragmenting. Width
// is clamped to half the ring so both sides stay viable.
func splitArc(rng *rand.Rand, ringOrder []string, width int) (arc, rest []string) {
	if len(ringOrder) < 4 {
		return nil, nil
	}
	if width < 1 {
		width = 1
	}
	if width > len(ringOrder)/2 {
		width = len(ringOrder) / 2
	}
	at := rng.Intn(len(ringOrder))
	in := make(map[string]bool, width)
	for i := 0; i < width; i++ {
		a := ringOrder[(at+i)%len(ringOrder)]
		arc = append(arc, a)
		in[a] = true
	}
	for _, a := range ringOrder {
		if !in[a] {
			rest = append(rest, a)
		}
	}
	return arc, rest
}

// adjacentPair picks a ring-adjacent pair of tracked members — adjacency
// guarantees the pair actually exchanges stabilization traffic, so the
// partition is exercised rather than decorative.
func adjacentPair(rng *rand.Rand, ringOrder []string) (string, string) {
	if len(ringOrder) < 2 {
		return "", ""
	}
	i := rng.Intn(len(ringOrder))
	return ringOrder[i], ringOrder[(i+1)%len(ringOrder)]
}
