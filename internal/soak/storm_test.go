package soak

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
)

// bareStorm runs the storm with no workload layered on it.
func bareStorm(t *testing.T, cfg Config) StormReport {
	t.Helper()
	report, err := runStorm(cfg.withDefaults(), hooks{})
	if err != nil {
		t.Fatalf("soak harness: %v", err)
	}
	return report
}

// TestChurnSoak is the acceptance soak: a 16-node ring under 10% message
// drop, 50ms injected latency, one partition/heal cycle and one crash
// per 100 operations, with write-once entries continuously written and
// read back. The ring must re-converge, no acked entry may be lost with
// replication ≥ 1, retry amplification must stay bounded, and every
// fault counter must be nonzero — proving the schedule actually fired.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	report := bareStorm(t, Config{
		Seed: 42,
		Log:  t.Logf,
	})

	if !report.Passed() {
		t.Errorf("storm gates failed: %v", report.Violations)
	}
	if report.Crashes < 1 {
		t.Errorf("schedule executed no crashes")
	}
	if report.Partitions < 1 {
		t.Errorf("schedule executed no partition cycle")
	}
	if report.Acked == 0 {
		t.Fatalf("no put ever acked")
	}
	// Puts may fail under the storm, but not wholesale.
	total := report.Acked + report.PutFailures
	if report.Acked*10 < total*9 {
		t.Errorf("only %d/%d puts acked under the storm", report.Acked, total)
	}

	// Every injected-fault counter must be nonzero.
	f := report.Faults
	checks := []struct {
		name string
		v    int64
	}{
		{"Calls", f.Calls},
		{"DroppedRequests", f.DroppedRequests},
		{"DroppedResponses", f.DroppedResponses},
		{"Delayed", f.Delayed},
		{"PartitionBlocked", f.PartitionBlocked},
		{"CrashBlocked", f.CrashBlocked},
	}
	for _, c := range checks {
		if c.v == 0 {
			t.Errorf("fault counter %s = 0: that fault class never fired", c.name)
		}
	}
	if f.DelayTotal < 50*time.Millisecond {
		t.Errorf("DelayTotal = %v, latency injection ineffective", f.DelayTotal)
	}

	// Retried RPCs are observable, and amplification is bounded: with
	// 10% drop and 3 attempts the expected amplification is ~1.1; 2.0
	// leaves headroom without hiding a retry storm.
	r := report.Retry
	if r.Calls == 0 || r.Attempts <= r.Calls {
		t.Errorf("retry stats implausible: %+v (faults were injected, retries must show)", r)
	}
	if r.Retries == 0 {
		t.Errorf("no retries recorded under a 10%% drop schedule")
	}
	if amp := report.RetryAmplification(); amp > 2.0 {
		t.Errorf("retry amplification %.2f exceeds bound 2.0", amp)
	}
}

// TestRepairSoak is the self-healing acceptance soak: on top of the
// fault storm, fresh nodes join and members leave gracefully mid-run,
// the per-peer circuit breaker is armed, and after the storm the ring is
// held to the repair loop's full invariant — every acked key at exactly
// ReplicationFactor+1 live copies, not merely readable. This is the
// "entry coverage returns to 100% after churn" check.
func TestRepairSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	report := bareStorm(t, Config{
		Nodes:          12,
		Ops:            120,
		Seed:           1,
		CrashEvery:     50,
		JoinEvery:      35,
		LeaveEvery:     55,
		Breaker:        &wire.BreakerPolicy{},
		VerifyReplicas: true,
		Log:            t.Logf,
	})
	if !report.Passed() {
		t.Errorf("storm gates failed: %v", report.Violations)
	}
	if report.Crashes < 1 || report.Joins < 1 || report.Leaves < 1 {
		t.Errorf("churn schedule incomplete: crashes=%d joins=%d leaves=%d",
			report.Crashes, report.Joins, report.Leaves)
	}
	// The repair loop must have done real work: digest syncs every round,
	// and pushes re-covering what the churn disturbed.
	if report.Repair.Rounds == 0 || report.Repair.Syncs == 0 || report.Repair.Pushes == 0 {
		t.Errorf("repair loop idle under churn: %+v", report.Repair)
	}
}

// TestSoakDeterministicFaultSchedule runs two small soaks with the same
// seed and asserts the injected-fault totals that are scheduling-
// independent (crash and partition events) match, and that both runs
// keep the data-safety invariant.
func TestSoakDeterministicFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	run := func() StormReport {
		return bareStorm(t, Config{
			Nodes:    8,
			Ops:      40,
			Seed:     7,
			Latency:  10 * time.Millisecond,
			DropProb: 0.05,
		})
	}
	a, b := run(), run()
	if a.Crashes != b.Crashes || a.Partitions != b.Partitions {
		t.Errorf("seeded schedules diverged: %d/%d crashes, %d/%d partitions",
			a.Crashes, b.Crashes, a.Partitions, b.Partitions)
	}
	for _, r := range []StormReport{a, b} {
		if !r.Passed() {
			t.Errorf("seeded soak failed its gates: %v", r.Violations)
		}
	}
}

// TestChurnSoakTCP runs the churn soak over the pooled TCP transport on
// loopback instead of the in-memory transport: real sockets, framed
// multiplexed connections, crash-stops that tear pooled conns down
// mid-flight, and restarts that rebind the same concrete address. The
// schedule is kept lighter than the MemTransport soak (real dial and
// teardown latency), but every survival invariant is the same.
func TestChurnSoakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	tp := wire.NewTCPTransport()
	tp.CallTimeout = 2 * time.Second
	report := bareStorm(t, Config{
		Nodes:      8,
		Ops:        80,
		Seed:       13,
		DropProb:   0.05,
		Latency:    10 * time.Millisecond,
		CrashEvery: 40,
		Transport:  tp,
		ListenAddr: "127.0.0.1:0",
		Log:        t.Logf,
	})
	if !report.Passed() {
		t.Errorf("storm gates failed: %v", report.Violations)
	}
	if report.Acked == 0 {
		t.Fatalf("no put ever acked")
	}
	if report.Crashes < 1 {
		t.Errorf("schedule executed no crashes")
	}
	st := tp.PoolStats()
	if st.Reuses == 0 {
		t.Errorf("soak traffic produced no pooled-connection reuse: %+v", st)
	}
	if st.Dials == 0 {
		t.Errorf("no pooled dials recorded: %+v", st)
	}
	t.Logf("pool after soak: %+v", st)
}

// TestSplitBrainSoak is the acceptance storm: the ring is group-
// partitioned into two halves mid-storm while writes AND removes keep
// landing on both sides, healed link by link, and held to zero
// acked-write loss, zero resurrections, full replica coverage and
// single-ring convergence — which requires the merge path end to end.
func TestSplitBrainSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("split-brain soak skipped in -short mode")
	}
	report := bareStorm(t, Config{
		Nodes:          12,
		Ops:            120,
		Seed:           77,
		PartitionWidth: 6,
		RemoveEvery:    10,
		VerifyReplicas: true,
		Log:            t.Logf,
	})
	if !report.Passed() {
		t.Fatalf("storm gates failed: %v", report.Violations)
	}
	ep := report.Episodes[0]
	if ep.SideA != 6 || ep.SideB != 6 {
		t.Errorf("episode sides %d|%d, want 6|6", ep.SideA, ep.SideB)
	}
	if ep.HealOp < 0 {
		t.Error("episode never healed mid-storm")
	}
	if report.Removes == 0 {
		t.Error("no remove ever acked — the tombstone path went unexercised")
	}
	if report.Tombstones.Created == 0 {
		t.Error("no tombstones created despite acked removes")
	}
	if report.Faults.LinksCut == 0 || report.Faults.LinksHealed == 0 {
		t.Errorf("partition link accounting silent: %+v", report.Faults)
	}
}

// durableStores returns a Config.StoreFor that opens each member's
// durable store in its own directory under dir.
func durableStores(dir string) func(member int) (wire.Store, error) {
	return func(member int) (wire.Store, error) {
		return durable.Open(filepath.Join(dir, fmt.Sprintf("node-%03d", member)),
			durable.Options{SnapshotEvery: 32})
	}
}

// TestRestartSoak is the durable store's scenario: a ring of durable
// nodes where every restart event crash-stops a full replica set (R+1
// adjacent members) keeping their data directories. While a burst is
// down, its key ranges exist only on disk — so zero acked-write loss at
// the post-storm probe proves recovery actually replays state, and the
// VerifyReplicas hold proves the rejoined members reconverge to exact
// replica coverage through the anti-entropy loop.
func TestRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	report := bareStorm(t, Config{
		Nodes:             10,
		Ops:               90,
		Seed:              42,
		ReplicationFactor: 2,
		CrashEvery:        100000, // isolate the restart schedule
		PartitionAt:       -1,     // ditto
		RestartEvery:      30,
		RestartDowntime:   12,
		VerifyReplicas:    true,
		StabilizeInterval: 15 * time.Millisecond,
		Telemetry:         telemetry.NewRegistry(),
		StoreFor:          durableStores(t.TempDir()),
		Log:               t.Logf,
	})
	if !report.Passed() {
		t.Errorf("storm gates failed: %v", report.Violations)
	}
	if report.Acked == 0 {
		t.Fatal("soak acked no writes")
	}
	rec := report.Recovery
	if rec.SnapshotKeys+rec.ReplayedRecords == 0 {
		t.Errorf("restarts recovered nothing from disk: %+v", rec)
	}
	if rec.TornRecords != 0 {
		t.Errorf("clean crash-stops produced torn records: %+v", rec)
	}
	t.Logf("restart soak: acked=%d restarts=%d recovery=%+v", report.Acked, report.Restarts, rec)
}

// TestToyStorm is the storm `go test -short` still runs: small enough to
// finish in a few seconds (no injected latency, 8 nodes, 40 ops), yet
// every schedule must fire at least once — crash, join, leave, a restart
// burst and its revival from durable stores, the adjacent-pair partition
// and its heal, a remove — and the settled ring must have lost nothing
// and resurrected nothing.
func TestToyStorm(t *testing.T) {
	report := bareStorm(t, Config{
		Nodes:    8,
		Ops:      40,
		Seed:     5,
		DropProb: 0.02,
		Latency:  -1, // none; 0 would mean the 50ms default
		// Ops with no injected latency take a few milliseconds, so the
		// maintenance loops tick faster too: the ring gets the same few
		// stabilize and repair rounds between events as in the full storms.
		StabilizeInterval: 5 * time.Millisecond,
		PartitionAt:       4, // heals at op 12
		JoinEvery:         14,
		RestartEvery:      17,
		RestartDowntime:   4,
		CrashEvery:        26,
		LeaveEvery:        31,
		RemoveEvery:       5,
		VerifyReplicas:    true,
		StoreFor:          durableStores(t.TempDir()),
		Log:               t.Logf,
	})
	for _, c := range []struct {
		schedule string
		fired    int
	}{
		{"crash", report.Crashes},
		{"join", report.Joins},
		{"leave", report.Leaves},
		{"restart", report.Restarts},
		{"partition", report.Partitions},
		{"remove", report.Removes},
	} {
		if c.fired == 0 {
			t.Errorf("the %s schedule never fired", c.schedule)
		}
	}
	if len(report.Episodes) != 1 || report.Episodes[0].HealOp != 12 {
		t.Errorf("partition episodes = %+v, want one, healed at op 12", report.Episodes)
	}
	if report.Recovery.SnapshotKeys+report.Recovery.ReplayedRecords == 0 {
		t.Errorf("restarts recovered nothing from disk: %+v", report.Recovery)
	}
	if !report.Passed() {
		t.Errorf("storm gates failed: %v", report.Violations)
	}
}

// TestEvaluateStormOneLinePerDefect holds each preset's gate to
// hand-built reports: a clean report passes, and each defect yields
// exactly one Violations line under the presets that promise otherwise
// and none under the rest.
func TestEvaluateStormOneLinePerDefect(t *testing.T) {
	clean := StormReport{
		Converged: true,
		Restarts:  1,
		Episodes:  []PartitionEpisode{{StartOp: 30, HealOp: 60, SideA: 8, SideB: 8}},
		Merges:    wire.MergeStats{Detected: 1},
	}
	defects := []struct {
		name     string
		judgedBy string // the one preset that judges it; "" for every preset
		line     string
		breaks   func(r *StormReport)
	}{
		{"unconverged", "", "re-converge", func(r *StormReport) { r.Converged = false }},
		{"lost key", "", "1 acked keys lost", func(r *StormReport) { r.LostKeys = []string{"soak-3"} }},
		{"under-replicated", "", "1 keys off full replica coverage",
			func(r *StormReport) { r.ReplicaViolations = []string{"soak-3: 2 copies, want 3"} }},
		{"resurrection", "", "1 removed entries resurrected",
			func(r *StormReport) { r.Resurrections = []string{"soak-5: 1 nodes still serve the removed entry"} }},
		{"no restart", "restart", "crash-restarted", func(r *StormReport) { r.Restarts = 0 }},
		{"no episode", "split-brain", "no group partition episode", func(r *StormReport) { r.Episodes = nil }},
		{"no divergence", "split-brain", "no ring divergence", func(r *StormReport) { r.Merges.Detected = 0 }},
	}
	for preset, cfg := range map[string]Config{
		"churn":       {},
		"repair":      {Repair: true},
		"restart":     {Restart: true},
		"split-brain": {SplitBrain: true},
	} {
		cfg = cfg.withDefaults()
		if v := evaluateStorm(cfg, clean); len(v) != 0 {
			t.Errorf("%s: clean report judged %v", preset, v)
		}
		for _, d := range defects {
			r := clean
			d.breaks(&r)
			got := evaluateStorm(cfg, r)
			want := 0
			if d.judgedBy == "" || d.judgedBy == preset {
				want = 1
			}
			if len(got) != want || (want == 1 && !strings.Contains(got[0], d.line)) {
				t.Errorf("%s, %s: violations %q, want %d line(s) naming %q", preset, d.name, got, want, d.line)
			}
		}
	}
}

// TestVictimPickerSparesOpenCutOnly pins the partition episode's effect
// on the crash/leave/restart schedules: while the adjacent-pair cut is
// open its two members are never picked, and once it heals they are
// eligible again.
func TestVictimPickerSparesOpenCutOnly(t *testing.T) {
	order := []string{"a", "b", "c", "d", "e"}
	alive := map[string]*wire.Node{"a": nil, "b": nil, "c": nil, "d": nil, "e": nil}
	rng := rand.New(rand.NewSource(1))
	picked := func(open cut) map[string]bool {
		seen := map[string]bool{}
		for i := 0; i < 200; i++ {
			seen[pickVictim(rng, order, alive, open)] = true
		}
		return seen
	}

	open := cut{sideA: []string{"b"}, sideB: []string{"c"}}
	if seen := picked(open); seen["b"] || seen["c"] || len(seen) != 3 {
		t.Fatalf("open cut b|c: picked %v, want exactly a, d, e", seen)
	}
	ft := wire.NewFaultTransport(wire.NewMemTransport(), 1)
	ft.PartitionGroups(open.sideA, open.sideB)
	open.heal(ft)
	if st := ft.Stats(); st.LinksHealed != st.LinksCut || st.LinksCut == 0 {
		t.Fatalf("heal left links cut: %+v", st)
	}
	if seen := picked(open); !seen["b"] || !seen["c"] {
		t.Fatalf("after heal: picked %v, want b and c eligible again", seen)
	}
	delete(alive, "d")
	if picked(open)["d"] {
		t.Fatal("picked a member that is not alive")
	}
}
