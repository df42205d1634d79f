package main

// The soak subcommand: the live-wire storm of internal/soak — a
// message-passing ring under drops, latency, partitions and crashes
// while the paper's indexed queries keep resolving — under one of its
// presets. With -substrate pastry it is instead the in-process indexed
// churn soak on the simulated Pastry overlay (joins and graceful leaves).

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"dhtindex/internal/soak"
	"dhtindex/internal/telemetry"
)

// runSoak runs one storm preset:
//   - churn: crashes, drops, latency and one pair partition;
//   - repair: joins and leaves mid-storm, the circuit breaker armed,
//     replica coverage verified back to 100%, and the degraded-lookup
//     probe;
//   - restart: every member on a durable store, whole replica sets
//     crash-restarted from their data directories mid-storm;
//   - split-brain: the ring group-partitioned into two halves that keep
//     serving writes and removes, then healed link by link.
func runSoak(args []string, out io.Writer) error {
	fs := newFlagSet("soak", "storm a live ring under a preset while indexed queries run on it; with a non-chord -substrate, the in-process indexed churn soak on that overlay", out)
	g := newGate(fs)
	g.reportFlag(fs)
	preset := fs.String("preset", "churn", "storm preset: churn|repair|restart|split-brain")
	substrate := fs.String("substrate", "chord", "chord storms the live ring; pastry runs the in-process soak")
	nodes := fs.Int("nodes", 0, "ring size (0: the harness default)")
	ops := fs.Int("ops", 0, "storm operations (0: the harness default)")
	drop := fs.Float64("drop", 0, "per-message drop probability (0: the harness default, 0.10)")
	dataDir := fs.String("data-dir", "", "keep the restart preset's member stores under this directory (default: a temp dir, removed after the run)")
	tracePath := fs.String("trace", "soak-traces.jsonl", "write every LookupTrace to this JSONL file")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *substrate != "chord" {
		if err := onlyWith(fs, "-substrate chord", "preset", "drop", "data-dir", "trace"); err != nil {
			return err
		}
		rep, err := soak.RunSubstrate(soak.SubstrateConfig{
			Substrate: *substrate, Nodes: *nodes, Ops: *ops, Seed: g.seed, Telemetry: g.reg,
		})
		if err == nil {
			printSubstrate(out, rep)
		}
		return g.finish(out, rep, rep.Violations, err)
	}
	cfg := soak.Config{
		Nodes: *nodes, Ops: *ops, DropProb: *drop, Seed: g.seed, DataDir: *dataDir,
		Log: logTo(out), Telemetry: g.reg,
	}
	switch *preset {
	case "churn":
	case "repair":
		cfg.Repair = true
	case "restart":
		cfg.Restart = true
	case "split-brain":
		cfg.SplitBrain = true
	default:
		return usagef(fs, "unknown preset %q", *preset)
	}
	if !cfg.Restart {
		if err := onlyWith(fs, "-preset restart", "data-dir"); err != nil {
			return err
		}
	}

	tf, err := os.Create(*tracePath)
	if err != nil {
		return err
	}
	defer tf.Close()
	sink := telemetry.NewJSONLSink(tf)
	cfg.TraceSink = sink
	report, err := soak.Run(cfg)
	// Flush whatever happened: a failed run's traces are the ones worth
	// inspecting.
	if ferr := sink.Flush(); ferr != nil {
		err = errors.Join(err, fmt.Errorf("flush traces: %w", ferr))
	}
	if err == nil {
		fmt.Fprintf(out, "%d traces written to %s\n", report.Traces, *tracePath)
		printSoak(out, *preset, report)
	}
	return g.finish(out, report, report.Violations, err)
}

// printSoak prints the storm's accounting, and what the preset adds.
func printSoak(out io.Writer, preset string, r soak.Report) {
	f, rt, cl := r.Faults, r.Retry, r.Cluster
	fmt.Fprintf(out, "\nsoak report (preset %s)\n", preset)
	fmt.Fprintf(out, "  ring:        %d nodes left, converged=%v\n", r.SurvivingNodes, r.Converged)
	fmt.Fprintf(out, "  data:        %d acked, %d put failures, %d lost\n", r.Acked, r.PutFailures, len(r.LostKeys))
	fmt.Fprintf(out, "  chaos reads: %d issued, %d failed during storm\n", r.ChaosReads, r.ChaosReadFailures)
	fmt.Fprintf(out, "  queries:     %d indexed lookups, %d found, %d cache hits, %d failed during storm\n",
		r.Queries, r.Found, r.CacheHits, r.QueryFailures)
	fmt.Fprintf(out, "  faults:      %d calls, %d+%d dropped (req+resp), %d delayed (%v total), %d partition-blocked, %d crash-blocked\n",
		f.Calls, f.DroppedRequests, f.DroppedResponses, f.Delayed, f.DelayTotal.Round(time.Millisecond), f.PartitionBlocked, f.CrashBlocked)
	fmt.Fprintf(out, "  retries:     %d calls, %d attempts, %d retries, %d recovered, %d gave up (amplification %.2f)\n",
		rt.Calls, rt.Attempts, rt.Retries, rt.Recovered, rt.GaveUp, r.RetryAmplification())
	fmt.Fprintf(out, "  failover:    %d owner-read failures, %d replica reads, %d entry retries, %d hedged gets (%d hedge wins)\n",
		cl.OwnerReadFailures, cl.FailoverReads, cl.EntryRetries, cl.HedgedGets, cl.HedgeWins)
	switch preset {
	case "repair":
		b, rp := r.Breaker, r.Repair
		fmt.Fprintf(out, "  churn:       %d joins, %d leaves (on top of %d crashes)\n", r.Joins, r.Leaves, r.Crashes)
		fmt.Fprintf(out, "  repair:      %d rounds, %d syncs, %d pulls, %d pushes, %d forwards, %d drops\n",
			rp.Rounds, rp.Syncs, rp.Pulls, rp.Pushes, rp.Forwards, rp.Drops)
		fmt.Fprintf(out, "  breaker:     %d trips, %d fast-fails, %d probes, %d closes, %d still open\n",
			b.Trips, b.FastFails, b.Probes, b.Closes, b.Open)
	case "restart":
		rec := r.Recovery
		fmt.Fprintf(out, "  restarts:    %d members crash-restarted from %s\n", r.Restarts, r.DataDir)
		fmt.Fprintf(out, "  recovery:    %d snapshot keys, %d WAL records replayed, %d skipped, %d torn tails truncated\n",
			rec.SnapshotKeys, rec.ReplayedRecords, rec.SkippedRecords, rec.TornRecords)
	case "split-brain":
		m, tb := r.Merges, r.Tombstones
		for _, ep := range r.Episodes {
			fmt.Fprintf(out, "  episode:     ops %d..%d, sides %d|%d\n", ep.StartOp, ep.HealOp, ep.SideA, ep.SideB)
		}
		fmt.Fprintf(out, "  removes:     %d acked, %d failed, %d resurrections\n",
			r.Removes, r.RemoveFailures, len(r.Resurrections))
		fmt.Fprintf(out, "  merge:       %d probes, %d divergences detected, %d aborts, %d coordinations, %d rejoins, %d adopts\n",
			m.Probes, m.Detected, m.Aborts, m.Coordinations, m.Rejoins, m.Adopts)
		fmt.Fprintf(out, "  tombstones:  %d created, %d merged from peers, %d puts suppressed, %d collected\n",
			tb.Created, tb.Merged, tb.Suppressed, tb.GCd)
	}
}

// printSubstrate prints one in-process soak's accounting.
func printSubstrate(out io.Writer, r soak.SubstrateReport) {
	fmt.Fprintf(out, "\nsubstrate soak report\n")
	fmt.Fprintf(out, "  substrate:   %s, %d nodes\n", r.Substrate, r.Nodes)
	fmt.Fprintf(out, "  churn:       %d joins, %d leaves over %d ops\n", r.Joins, r.Leaves, r.Ops)
	fmt.Fprintf(out, "  queries:     %d issued, %d found, %d cache hits, %d failed\n",
		r.Queries, r.Found, r.CacheHits, r.QueryFailures)
	fmt.Fprintf(out, "  latency:     p50 %.0fµs, p99 %.0fµs (mean %.2f hops/lookup)\n",
		r.P50QueryMicros, r.P99QueryMicros, r.MeanLookupHops)
	fmt.Fprintf(out, "  maintenance: %d items moved\n", r.MaintenanceItems)
	fmt.Fprintf(out, "  data:        %d acked articles, %d lost\n", r.AckedArticles, r.LostArticles)
}
