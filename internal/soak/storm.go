package soak

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
)

// Config parameterizes a storm on a live ring: a seeded schedule of
// drops, latency, partitions, crashes, joins, leaves and restarts, run
// while write-once entries are continuously written and read back, and
// the workload a scenario layers on top (Run: indexed queries;
// RunIngest: a document stream). The zero value gets production-shaped
// defaults (16 nodes, 10% drop, 50ms latency, one crash per 100 ops, one
// partition/heal cycle). Only what some caller varies is a field; the
// rest of the storm's shape is the constants below.
type Config struct {
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
	// (default 50ms; negative injects none).
	Latency time.Duration
	// CrashEvery crashes one node per this many ops (default 100).
	CrashEvery int
	// PartitionAt is the op index where an adjacent pair of nodes is
	// partitioned (default Ops/3; negative disables partitions); Ops/5
	// ops later it heals.
	PartitionAt int
	// PartitionWidth, when > 0, turns the partition episode into a GROUP
	// partition: a contiguous arc of PartitionWidth ring-ordered members
	// is cut from the rest of the ring in both directions, so the two
	// sides stabilize into independent rings (split brain). Re-convergence
	// after the heal requires the merge coordinator — plain stabilization
	// cannot bridge two complete rings. While a group episode is open
	// the crash/leave/join/restart schedules pause (those scenarios
	// compose elsewhere; here the episode itself is the subject under
	// test). 0 cuts one adjacent pair.
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
	// Transport, when set, is the base transport the storm runs over
	// (wrapped in the fault and retry layers); nil uses a fresh
	// MemTransport. Set a TCPTransport to storm the pooled TCP fast path
	// under the same schedule.
	Transport wire.Transport
	// ListenAddr is the listen address members bind ("mem:0" by default;
	// "127.0.0.1:0" for a TCP transport). Restarting members always
	// rebind their original concrete address.
	ListenAddr string
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
	// Telemetry, when non-nil, receives every layer's series: the
	// injected-fault counters, fleet-wide retry counters, the cluster's
	// failover counters, the hop and RPC-latency histograms, a
	// wire_ring_nodes gauge tracking the live ring size, and the
	// workload's own index (and ingest) counters.
	Telemetry *telemetry.Registry
	// JoinEvery, when > 0, starts and joins a fresh node every JoinEvery
	// storm ops — the repair loop must make newcomers readable replicas,
	// not just tolerate departures.
	JoinEvery int
	// LeaveEvery, when > 0, gracefully Leaves one live node every
	// LeaveEvery storm ops (on top of the crash schedule).
	LeaveEvery int
	// Breaker, when non-nil, arms the per-peer circuit breaker on every
	// retry transport in the run (the cluster's and each node's).
	Breaker *wire.BreakerPolicy
	// VerifyReplicas, when true, additionally holds the ring to full
	// replica convergence after the storm: every acked key must settle
	// at exactly min(ReplicationFactor+1, live) physical copies across
	// the live nodes' local stores. Violations are reported in
	// ReplicaViolations.
	VerifyReplicas bool
	// StoreFor, when set, supplies each member's Store by its stable
	// member index — what makes the storm's nodes durable. A restarting
	// member re-invokes StoreFor with the SAME index, so it must return a
	// fresh handle onto the same underlying data. Nil members fall back
	// to MemStore (or, under Restart, to durable stores in DataDir).
	StoreFor func(member int) (wire.Store, error)
	// RestartEvery, when > 0, crash-restarts a whole replica set —
	// ReplicationFactor+1 ring-adjacent members — every RestartEvery
	// storm ops: each is crash-stopped (no handoff) KEEPING its store,
	// sits out RestartDowntime ops, then reopens its store, restarts on
	// the same address — reclaiming its ring ID — and rejoins. The
	// burst's key ranges survive only if the store brings them back.
	RestartEvery int
	// RestartDowntime is how many ops a restarted member stays down
	// (default 15).
	RestartDowntime int

	// Repair presets the self-healing storm: fresh nodes join every Ops/4
	// ops and members leave gracefully every Ops/3 (on top of crashes),
	// the per-peer circuit breaker is armed, and post-storm replica
	// coverage is verified back to 100%. Run additionally probes a
	// degraded lookup: it crash-stops one key's entire replica set and
	// requires a search through it to return a partial result flagged
	// Incomplete within its budget instead of an error. A preset fills
	// only the schedule fields left zero.
	Repair bool
	// Restart presets the crash-restart storm: every member runs on a
	// disk-backed durable store (internal/wire/durable) under DataDir,
	// and a whole replica set is crash-restarted every Ops/3 ops.
	// Post-storm the run verifies zero acked-write loss and exact replica
	// coverage — the writes that lived only on the downed replica set
	// must come back from the WAL.
	Restart bool
	// SplitBrain presets the split-brain storm: mid-storm the ring is
	// group-partitioned into two halves that keep serving writes AND
	// removes (one every Ops/15 ops) independently, then healed link by
	// link. Post-storm the run verifies single-ring re-convergence, zero
	// acked-write loss, exact replica coverage, and zero resurrections of
	// removed entries.
	SplitBrain bool
	// DataDir is the root directory for the Restart preset's per-member
	// stores. Empty means a fresh temporary directory, removed when the
	// run finishes; a caller-provided directory is kept.
	DataDir string

	// Articles is the corpus size Run publishes over the ring before the
	// storm starts (default 24).
	Articles int
	// QueriesPerOp is the number of indexed lookups Run issues per storm
	// op (default 2). Lookups run against the faulted topology; failures
	// are tolerated and counted.
	QueriesPerOp int
	// TraceSink, when non-nil, additionally receives every LookupTrace
	// Run's lookups produce (e.g. a telemetry.JSONLSink). Traces are
	// always collected internally for the report.
	TraceSink telemetry.Sink

	// Documents is the corpus size RunIngest streams through the
	// pipeline during the storm (default 40).
	Documents int
	// PoisonEvery makes RunIngest inject one poison document (blank
	// title — its MSD is not concrete, so publication can never succeed)
	// per this many documents (default 10; negative disables). Every
	// acked poison document must end up dead-lettered, never visible.
	PoisonEvery int
	// SpoolDir is RunIngest's durable spool directory. Empty means a
	// fresh temporary directory, removed when the run finishes; a
	// caller-provided directory is kept (inspect it afterwards with
	// `indexctl queue`).
	SpoolDir string
}

// The storm's fixed shape. These were configuration once; no test,
// command or example ever set them, so each is its former default.
const (
	// latencyProb is the share of messages that get Config.Latency.
	latencyProb = 0.15
	// convergeTimeout bounds the WaitConverged calls at ring formation
	// and after the storm.
	convergeTimeout = 30 * time.Second
	// readbackTimeout is how long one acked key may take to read back
	// after the storm, and one removed entry to vanish: replica repair
	// and tombstone exchange may lawfully need a few rounds.
	readbackTimeout = 30 * time.Second
	// replicaVerifyTimeout is how long one acked key may take to settle
	// at its exact replica count under VerifyReplicas.
	replicaVerifyTimeout = 45 * time.Second
	// putRetries is the op-level put and remove retry budget on top of
	// RPC retries.
	putRetries = 8
	// snapshotEvery is the Restart preset's per-member WAL compaction
	// threshold — how much un-snapshotted WAL a member may accumulate
	// before its restart replay gets slow.
	snapshotEvery = 256
)

func (c Config) withDefaults() Config {
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
	if c.CrashEvery == 0 {
		c.CrashEvery = 100
	}
	if c.PartitionAt == 0 {
		c.PartitionAt = c.Ops / 3
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 2
	}
	if c.StabilizeInterval == 0 {
		c.StabilizeInterval = 25 * time.Millisecond
	}
	if c.RestartDowntime == 0 {
		c.RestartDowntime = 15
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "mem:0"
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	if c.Repair {
		if c.JoinEvery == 0 {
			c.JoinEvery = c.Ops / 4
		}
		if c.LeaveEvery == 0 {
			c.LeaveEvery = c.Ops / 3
		}
		if c.Breaker == nil {
			c.Breaker = &wire.BreakerPolicy{Seed: c.Seed + 9}
		}
		c.VerifyReplicas = true
	}
	if c.Restart {
		if c.RestartEvery == 0 {
			c.RestartEvery = c.Ops / 3
		}
		c.VerifyReplicas = true
	}
	if c.SplitBrain {
		if c.PartitionWidth == 0 {
			c.PartitionWidth = c.Nodes / 2
		}
		if c.RemoveEvery == 0 {
			c.RemoveEvery = c.Ops / 15
		}
		c.VerifyReplicas = true
	}
	if c.Articles == 0 {
		c.Articles = 24
	}
	if c.QueriesPerOp == 0 {
		c.QueriesPerOp = 2
	}
	if c.Documents == 0 {
		c.Documents = 40
	}
	if c.PoisonEvery == 0 {
		c.PoisonEvery = 10
	}
	return c
}

// hooks is how a scenario layers its workload on the storm. All three
// run sequentially on the storm's goroutine, so a scenario's own state
// needs no locking.
type hooks struct {
	// setup runs after the ring has converged and before the storm
	// starts — e.g. to publish a corpus over the live ring.
	setup func(c *wire.Cluster) error
	// onOp runs once per storm op after the op's own put and read-back.
	onOp func(op int, c *wire.Cluster)
	// postStorm runs after the storm has healed, the ring re-converged
	// and all verification passed. Its error is the run's error.
	postStorm func(c *wire.Cluster, ft *wire.FaultTransport) error
}

// PartitionEpisode records one partition window of a storm.
type PartitionEpisode struct {
	// StartOp is the storm op index where the cut was made.
	StartOp int
	// HealOp is the op index where it healed (-1 when the episode was
	// still open at storm end and the global heal closed it).
	HealOp int
	// SideA and SideB are the side sizes (1 and 1 for the adjacent-pair
	// cut).
	SideA int
	SideB int
}

// StormReport is the outcome of a storm: what was injected, what the
// retry layer absorbed, and whether the ring kept its promises.
type StormReport struct {
	// Faults is what the FaultTransport injected.
	Faults wire.FaultStats
	// Retry is the fleet-wide retry work (all nodes + the cluster).
	Retry wire.RetryStats
	// Repair is the fleet-wide anti-entropy repair work.
	Repair wire.RepairStats
	// Breaker is the fleet-wide circuit-breaker work (zero when no
	// breaker policy was configured).
	Breaker wire.BreakerStats
	// Cluster is the adapter's failover accounting.
	Cluster wire.ClusterMetrics

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
	Merges wire.MergeStats
	// Tombstones is the fleet-wide deletion-record work.
	Tombstones wire.TombstoneStats
	// Joins and Leaves count the churn schedule's executed member
	// additions and graceful departures.
	Joins  int
	Leaves int
	// Restarts counts members crash-restarted from their store
	// (RestartEvery schedule).
	Restarts int
	// Recovery aggregates what the restarted members' durable stores
	// replayed (zero without durable stores).
	Recovery wire.RecoveryStats
	// Converged reports whether the surviving ring re-converged to one
	// ring in both directions (every successor and predecessor ideal)
	// after the storm.
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
	// DataDir is where the Restart preset's member stores lived (empty
	// without it; already removed when Config.DataDir was empty).
	DataDir string `json:",omitempty"`
	// Violations lists every promise the settled ring broke, one line
	// each, judged against the storm's config; empty is a pass. A
	// scenario layered on the storm appends its own gates.
	Violations []string `json:",omitempty"`
}

// RetryAmplification is wire sends per logical RPC across the fleet.
func (r StormReport) RetryAmplification() float64 { return r.Retry.Amplification() }

// Passed reports whether every gate held.
func (r StormReport) Passed() bool { return len(r.Violations) == 0 }

// evaluateStorm holds a finished storm to what its config promised: one
// line per broken promise. Replica coverage is judged only under
// VerifyReplicas and resurrections only under RemoveEvery, because only
// then does verify fill those lists.
func evaluateStorm(cfg Config, r StormReport) []string {
	var v []string
	if !r.Converged {
		v = append(v, "ring did not re-converge after the storm")
	}
	if n := len(r.LostKeys); n > 0 {
		v = append(v, fmt.Sprintf("%d acked keys lost: %v", n, r.LostKeys))
	}
	if n := len(r.ReplicaViolations); n > 0 {
		v = append(v, fmt.Sprintf("%d keys off full replica coverage: %v", n, r.ReplicaViolations))
	}
	if n := len(r.Resurrections); n > 0 {
		v = append(v, fmt.Sprintf("%d removed entries resurrected: %v", n, r.Resurrections))
	}
	if cfg.RestartEvery > 0 && r.Restarts == 0 {
		v = append(v, "no member was crash-restarted")
	}
	if cfg.PartitionWidth > 0 {
		if len(r.Episodes) == 0 {
			v = append(v, "no group partition episode ran")
		} else if r.Merges.Detected == 0 {
			v = append(v, "no ring divergence was detected: the merge path went unexercised")
		}
	}
	return v
}

// cut is the partition episode currently open: the two sides whose
// cross links are blocked (one member each for the adjacent-pair cut).
// The zero value is "no partition".
type cut struct {
	sideA, sideB []string
}

func (c cut) open() bool { return len(c.sideA) > 0 }

// spares reports whether addr is on either side of the open cut. The
// crash, leave and restart schedules spare such members: taking one down
// would quietly end the partition scenario.
func (c cut) spares(addr string) bool {
	for _, side := range [][]string{c.sideA, c.sideB} {
		for _, a := range side {
			if a == addr {
				return true
			}
		}
	}
	return false
}

// heal mends the cut link by link, not globally — the episode must not
// quietly restore links the crash schedule severed — and closes it, so
// its members are eligible victims again.
func (c *cut) heal(ft *wire.FaultTransport) {
	for _, a := range c.sideA {
		for _, b := range c.sideB {
			ft.HealLink(a, b)
		}
	}
	*c = cut{}
}

// written is one write-once entry the workload put under its own key.
type written struct {
	key   string
	entry overlay.Entry
}

// storm is one run's state: the ring, the seeded schedule and what the
// write-once workload has been promised so far.
type storm struct {
	cfg      Config
	ring     *ring
	schedule *rand.Rand
	report   *StormReport
	cut      cut
	// acked is every entry whose put was acked and not since removed —
	// held to the loss check; removed is every acked remove — held to the
	// anti-resurrection check.
	acked   []written
	removed []written
}

// runStorm executes the storm and reports what happened; cfg carries its
// defaults. The error is non-nil only for harness failures (a node
// refusing to boot, a hook failing); ring misbehaviour — lost entries,
// failed convergence — is reported in the StormReport for the caller to
// judge.
func runStorm(cfg Config, h hooks) (StormReport, error) {
	start := time.Now()
	var report StormReport

	if cfg.Restart && cfg.StoreFor == nil {
		dir := cfg.DataDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "dht-restart-soak-"); err != nil {
				return report, fmt.Errorf("soak: data dir: %w", err)
			}
			defer os.RemoveAll(dir)
		}
		report.DataDir = dir
		cfg.StoreFor = func(member int) (wire.Store, error) {
			return durable.Open(filepath.Join(dir, fmt.Sprintf("node-%03d", member)),
				durable.Options{SnapshotEvery: snapshotEvery})
		}
	}

	r, err := bootRing(cfg, wire.Config{Retry: &wire.RetryPolicy{Breaker: cfg.Breaker}})
	if err != nil {
		return report, fmt.Errorf("soak: %w", err)
	}
	defer r.stop()
	if h.setup != nil {
		if err := h.setup(r.cluster); err != nil {
			return report, fmt.Errorf("soak: setup: %w", err)
		}
	}
	cfg.Log("soak: ring of %d converged, starting storm (drop=%.0f%%, latency=%v@%.0f%%)",
		cfg.Nodes, 100*cfg.DropProb, cfg.Latency, 100*latencyProb)

	s := &storm{
		cfg:      cfg,
		ring:     r,
		schedule: rand.New(rand.NewSource(cfg.Seed + 1)),
		report:   &report,
	}
	r.ft.SetDefaultRule(wire.FaultRule{
		DropProb:    cfg.DropProb,
		Latency:     cfg.Latency,
		LatencyProb: latencyProb,
	})
	for op := 0; op < cfg.Ops; op++ {
		// Fault schedule first, so writes land on the faulted topology.
		if err := s.churn(op); err != nil {
			return report, err
		}
		s.write(op)
		if h.onOp != nil {
			h.onOp(op, r.cluster)
		}
	}
	report.Acked = len(s.acked)

	if err := s.settle(); err != nil {
		return report, err
	}
	s.verify()
	if h.postStorm != nil {
		if err := h.postStorm(r.cluster, r.ft); err != nil {
			return report, fmt.Errorf("soak: post-storm probe: %w", err)
		}
	}

	report.Faults = r.ft.Stats()
	fleet := r.stats()
	report.Retry, report.Repair, report.Breaker = fleet.Retry, fleet.Repair, fleet.Breaker
	report.Merges, report.Tombstones = fleet.Merges, fleet.Tombstones
	report.Restarts, report.Recovery = r.restarts, r.recovery
	report.Cluster = r.cluster.Metrics()
	report.Elapsed = time.Since(start)
	report.Violations = evaluateStorm(cfg, report)
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

// churn fires whichever membership and partition events are due at op.
func (s *storm) churn(op int) error {
	cfg, r, report := s.cfg, s.ring, s.report
	// While a group partition is open, pause member churn: a node
	// revived or joined mid-episode sits outside both blocked sides
	// and would bridge the rings, short-circuiting the merge the
	// episode exists to exercise.
	paused := s.cut.open() && cfg.PartitionWidth > 0
	due := func(every int) bool { return every > 0 && op > 0 && op%every == 0 && !paused }

	// Revive downed members whose downtime has elapsed. A failed
	// rejoin re-queues the member a few ops out — its store is durable,
	// so nothing is lost by waiting.
	for i := 0; i < len(r.downed) && !paused; {
		d := r.downed[i]
		if d.reviveAt > op {
			i++
			continue
		}
		ok, err := r.revive(d, s.schedule)
		if err != nil {
			return fmt.Errorf("soak: op %d: restart %s: %w", op, d.addr, err)
		}
		if ok {
			r.downed = append(r.downed[:i], r.downed[i+1:]...)
			cfg.Log("soak: op %d: restarted %s from its data dir (%d nodes)", op, d.addr, len(r.alive))
		} else {
			r.downed[i].reviveAt = op + 5
			cfg.Log("soak: op %d: restart of %s drowned in the storm; retrying", op, d.addr)
			i++
		}
	}
	// Crash-restart schedule: take down a whole replica set of
	// ring-adjacent members, keeping their stores. Until they return,
	// their key ranges live only on disk (plus whatever replicas survive
	// outside the burst), which is exactly the property under test.
	if due(cfg.RestartEvery) {
		burst := cfg.ReplicationFactor + 1
		if tracked := r.cluster.Addrs(); len(tracked) >= burst+2 {
			at := s.schedule.Intn(len(tracked))
			for b := 0; b < burst; b++ {
				addr := tracked[(at+b)%len(tracked)]
				if _, ok := r.alive[addr]; !ok || s.cut.spares(addr) {
					continue
				}
				r.takeDown(addr, op+cfg.RestartDowntime)
				cfg.Log("soak: op %d: crash-restarting %s (down for %d ops, %d nodes left)",
					op, addr, cfg.RestartDowntime, len(r.alive))
			}
		}
	}
	if due(cfg.CrashEvery) && len(r.alive) > cfg.Nodes/2 {
		if victim := pickVictim(s.schedule, r.cluster.Addrs(), r.alive, s.cut); victim != "" {
			r.crash(victim)
			report.Crashes++
			cfg.Log("soak: op %d: crashed %s (%d nodes left)", op, victim, len(r.alive))
		}
	}
	if op == cfg.PartitionAt && len(r.alive) >= 4 {
		s.cut.sideA, s.cut.sideB = cutSides(s.schedule, r.cluster.Addrs(), cfg.PartitionWidth)
		if s.cut.open() {
			r.ft.PartitionGroups(s.cut.sideA, s.cut.sideB)
			report.Partitions++
			report.Episodes = append(report.Episodes, PartitionEpisode{
				StartOp: op, HealOp: -1, SideA: len(s.cut.sideA), SideB: len(s.cut.sideB)})
			if cfg.PartitionWidth > 0 {
				cfg.Log("soak: op %d: group partition %d|%d nodes", op, len(s.cut.sideA), len(s.cut.sideB))
			} else {
				cfg.Log("soak: op %d: partitioned %s <-> %s", op, s.cut.sideA[0], s.cut.sideB[0])
			}
		}
	}
	if s.cut.open() && op == cfg.PartitionAt+cfg.Ops/5 {
		s.cut.heal(r.ft)
		report.Episodes[len(report.Episodes)-1].HealOp = op
		cfg.Log("soak: op %d: partition healed", op)
	}
	if due(cfg.JoinEvery) {
		addr, err := r.join(s.schedule)
		if err != nil {
			return fmt.Errorf("soak: op %d: start joiner: %w", op, err)
		}
		if addr != "" {
			report.Joins++
			cfg.Log("soak: op %d: joined %s (%d nodes)", op, addr, len(r.alive))
		} else {
			cfg.Log("soak: op %d: join attempt drowned in the storm", op)
		}
	}
	if due(cfg.LeaveEvery) && len(r.alive) > cfg.Nodes/2 {
		if victim := pickVictim(s.schedule, r.cluster.Addrs(), r.alive, s.cut); victim != "" {
			if err := r.leave(victim); err != nil {
				// Partial handoff under the storm: the repair loop owns
				// re-replicating whatever the departure dropped.
				cfg.Log("soak: op %d: leave handoff incomplete: %v", op, err)
			}
			report.Leaves++
			cfg.Log("soak: op %d: %s left gracefully (%d nodes left)", op, victim, len(r.alive))
		}
	}
	return nil
}

// write is one op of the write-once workload: put a fresh entry, remove
// an old one when the remove schedule says so, read one back.
func (s *storm) write(op int) {
	cfg, cluster, report := s.cfg, s.ring.cluster, s.report
	w := written{key: fmt.Sprintf("soak-%d", op), entry: overlay.Entry{Kind: "soak", Value: fmt.Sprintf("v%d", op)}}
	if withRetry(func() error { _, err := cluster.Put(keyspace.NewKey(w.key), w.entry); return err }) {
		s.acked = append(s.acked, w)
	} else {
		report.PutFailures++
	}

	// Remove schedule: delete a previously-acked entry through the
	// cluster. The key leaves the loss check either way — the remove
	// handler plants a tombstone on whichever owner it reached, so
	// even a client-visible failure may already have doomed the
	// entry. Only an acked remove joins the resurrection check.
	if cfg.RemoveEvery > 0 && op > 0 && op%cfg.RemoveEvery == 0 && len(s.acked) > 0 {
		i := s.schedule.Intn(len(s.acked))
		rm := s.acked[i]
		s.acked = append(s.acked[:i], s.acked[i+1:]...)
		if withRetry(func() error { _, err := cluster.Remove(keyspace.NewKey(rm.key), rm.entry); return err }) {
			s.removed = append(s.removed, rm)
			report.Removes++
		} else {
			report.RemoveFailures++
			cfg.Log("soak: op %d: remove of %s failed end-to-end", op, rm.key)
		}
	}

	// Read back a random previously-acked key; failures during the
	// storm are tolerated and counted.
	if len(s.acked) > 0 {
		probe := s.acked[s.schedule.Intn(len(s.acked))]
		report.ChaosReads++
		if _, _, err := cluster.Get(keyspace.NewKey(probe.key)); err != nil {
			report.ChaosReadFailures++
		}
	}
}

// settle turns the storm off: heal everything, bring every still-downed
// member back from its store, and let the ring re-converge on a clean
// network.
func (s *storm) settle() error {
	r := s.ring
	r.ft.Heal()
	r.ft.SetDefaultRule(wire.FaultRule{})
	for _, d := range r.downed {
		ok, err := r.revive(d, s.schedule)
		for try := 0; err == nil && !ok && try < 5; try++ {
			time.Sleep(50 * time.Millisecond)
			ok, err = r.revive(d, s.schedule)
		}
		if err != nil {
			return fmt.Errorf("soak: restart %s: %w", d.addr, err)
		}
		if !ok {
			return fmt.Errorf("soak: member %s never rejoined after restart", d.addr)
		}
	}
	r.downed = nil
	if err := r.cluster.WaitConverged(convergeTimeout); err == nil {
		s.report.Converged = true
	} else {
		s.cfg.Log("soak: ring did not re-converge: %v", err)
	}
	s.report.SurvivingNodes = len(r.alive)
	return nil
}

// verify holds the settled ring to its promises, one key at a time.
func (s *storm) verify() {
	r, report := s.ring, s.report
	// Every acked write-once entry must still be served.
	for _, w := range s.acked {
		k := keyspace.NewKey(w.key)
		if !awaitKey(readbackTimeout, 10*time.Millisecond, func() bool { return readable(r.cluster, k) }) {
			report.LostKeys = append(report.LostKeys, w.key)
		}
	}

	// With VerifyReplicas the run is additionally held to the repair
	// loop's invariant: every acked key settles at exactly the ideal
	// replica count — no under-replication (a crash ate a copy nobody
	// re-pushed) and no over-replication (a stale copy nobody dropped).
	if s.cfg.VerifyReplicas && s.cfg.ReplicationFactor > 0 {
		expected := s.cfg.ReplicationFactor + 1
		if len(r.alive) < expected {
			expected = len(r.alive)
		}
		for _, w := range s.acked {
			var got int
			if !awaitKey(replicaVerifyTimeout, 20*time.Millisecond, func() bool {
				got = countHolders(r.ft, r.cluster.Addrs(), w)
				return got == expected
			}) {
				report.ReplicaViolations = append(report.ReplicaViolations,
					fmt.Sprintf("%s: %d copies, want %d", w.key, got, expected))
			}
		}
	}

	// Anti-resurrection: every acked remove must stay removed. Repair and
	// merge traffic may lawfully take a few rounds to push tombstones over
	// stale replicas, so poll toward zero holders; a holder remaining at
	// the deadline is a resurrection — a deleted entry that outlived its
	// removal by riding replica repair past the tombstone exchange.
	for _, rm := range s.removed {
		var holders int
		if !awaitKey(readbackTimeout, 20*time.Millisecond, func() bool {
			holders = countHolders(r.ft, r.cluster.Addrs(), rm)
			return holders == 0
		}) {
			report.Resurrections = append(report.Resurrections,
				fmt.Sprintf("%s: %d nodes still serve the removed entry", rm.key, holders))
		}
	}
}

// awaitKey polls settled every pause until it holds or timeout lapses,
// and reports whether it held. Each key gets a deadline of its own: a
// shared one lets a single slow key (open breakers, post-storm drain)
// starve the keys checked after it into false verdicts.
func awaitKey(timeout, pause time.Duration, settled func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !settled() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pause)
	}
	return true
}

// readable reports whether the cluster serves at least one entry at key.
func readable(c *wire.Cluster, key keyspace.Key) bool {
	entries, _, err := c.Get(key)
	return err == nil && len(entries) > 0
}

// withRetry is the op-level retry loop on top of the RPC retry layer:
// under a storm a put or remove can fail end-to-end (e.g. routing
// resolved to a node that crashed mid-op) and the workload, like any
// real client, tries again. Only an acked op counts.
func withRetry(op func() error) bool {
	for i := 0; i < putRetries; i++ {
		if op() == nil {
			return true
		}
		time.Sleep(time.Duration(10*(i+1)) * time.Millisecond)
	}
	return false
}

// pickVictim chooses a crash or leave victim among the live tracked
// members the open cut does not spare ("" when there is none).
func pickVictim(rng *rand.Rand, ringOrder []string, alive map[string]*wire.Node, open cut) string {
	candidates := make([]string, 0, len(ringOrder))
	for _, addr := range ringOrder {
		if _, ok := alive[addr]; ok && !open.spares(addr) {
			candidates = append(candidates, addr)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	return candidates[rng.Intn(len(candidates))]
}

// countHolders counts how many of the given nodes hold w's entry in
// their LOCAL store. An OpGet without a TTL never forwards, so a direct
// per-node call observes the entry's physical replica placement rather
// than routed availability.
func countHolders(t wire.Transport, addrs []string, w written) int {
	key, holders := keyspace.NewKey(w.key), 0
	for _, addr := range addrs {
		resp, err := t.Call(addr, wire.Message{Op: wire.OpGet, Key: key})
		if err != nil || resp.Err != "" {
			continue
		}
		for _, e := range resp.Entries {
			if e == w.entry {
				holders++
				break
			}
		}
	}
	return holders
}

// cutSides picks the two sides of a partition episode from the
// ring-ordered members. Width 0 is a ring-adjacent pair, one member per
// side — adjacency guarantees the pair actually exchanges stabilization
// traffic, so the partition is exercised rather than decorative. Width
// > 0 is a contiguous arc of that many members against the rest:
// contiguity matters, since an arc is a run of ring neighbours, so each
// side re-closes into its own consistent ring instead of fragmenting.
// The arc is clamped to half the ring so both sides stay viable.
func cutSides(rng *rand.Rand, ringOrder []string, width int) (a, b []string) {
	n := len(ringOrder)
	if n < 4 {
		return nil, nil
	}
	at := rng.Intn(n)
	if width == 0 {
		return []string{ringOrder[at]}, []string{ringOrder[(at+1)%n]}
	}
	if width > n/2 {
		width = n / 2
	}
	for i := 0; i < n; i++ {
		if member := ringOrder[(at+i)%n]; i < width {
			a = append(a, member)
		} else {
			b = append(b, member)
		}
	}
	return a, b
}
