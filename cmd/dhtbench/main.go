// Command dhtbench exercises the overlay substrates on their own:
// routing hop counts versus network size, key-load balance, and
// behaviour under churn. The paper treats the DHT as a black box (§V-E:
// "we do not explicitly study the performance of the P2P substrate");
// this harness verifies the substrate provides what the indexing layer
// assumes. -substrate selects chord, pastry or kademlia for the hop
// sweep, and -matrix runs the indexed churn soak on all three and
// publishes the comparison (hops, p99 query latency, maintenance
// traffic, acked-write loss) — merged into BENCH_wire.json when
// -bench-out names it.
//
// With -soak it instead runs the live-wire indexed churn soak
// (internal/soak): a message-passing ring under drops, latency,
// partitions and crashes while indexed queries keep resolving. With a
// non-chord -substrate the soak runs in-process on that substrate's
// overlay (joins, leaves and — on Kademlia — hard crashes absorbed by
// replication and republish) and fails on any acked-write loss. -repair
// adds joins/leaves and the self-healing verification; -restart puts
// every member on a disk-backed durable store and crash-restarts whole
// replica sets from their data directories mid-storm (-data-dir keeps
// the directories around for offline inspection with `indexctl
// snapshot`); -split-brain group-partitions the ring into two halves
// that keep serving writes and removes, heals it link by link, and
// fails on lost writes, resurrected removes, or a ring that never
// re-merged (-split-out writes the episode/merge/tombstone JSON
// report). Every layer reports into one telemetry registry;
// -metrics-addr serves the Prometheus-style snapshot over HTTP,
// -metrics-out writes it to a file, and -trace records every
// LookupTrace as JSONL (soak default: soak-traces.jsonl). See
// docs/OBSERVABILITY.md for the full catalog.
//
// With -bench-out it runs the wire fast-path microbenchmarks instead
// (pooled transport round trip, batched vs sequential puts and
// publish, parallel vs sequential search) and writes the ops/s and
// latency-percentile report to the given JSON file — the source of the
// repo's committed BENCH_wire.json.
//
// With -load it runs the open-loop overload harness: a ring with
// admission control armed is driven at a rated arrival rate and then at
// a 2-4x multiple with a flash crowd on the hottest article, and the
// run is held to an SLO gate (rated p99, proportional goodput under
// overload, bounded retry traffic, zero acked-write loss) — non-zero
// exit on any violation. -load-out writes the JSON load report;
// combined with -bench-out the run's goodput trajectory is merged into
// the committed bench report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"dhtindex/internal/dht"
	"dhtindex/internal/kademlia"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/pastry"
	"dhtindex/internal/soak"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
)

func main() {
	var (
		maxNodes  = flag.Int("max-nodes", 1024, "largest network size in the sweep")
		lookups   = flag.Int("lookups", 2000, "lookups per configuration")
		churn     = flag.Float64("churn", 0.2, "fraction of nodes failed in the churn test")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		substrate = flag.String("substrate", "chord", "substrate for the hop sweep and soak (chord|pastry|kademlia)")

		matrixMode    = flag.Bool("matrix", false, "run the indexed churn soak on every substrate and publish the cross-substrate matrix; merged into -bench-out when given")
		matrixNodes   = flag.Int("matrix-nodes", 0, "matrix: overlay size per substrate (0 = harness default)")
		matrixOps     = flag.Int("matrix-ops", 0, "matrix: churn-storm operations per substrate (0 = harness default)")
		matrixQueries = flag.Int("matrix-queries", 0, "matrix: indexed lookups per storm op (0 = harness default)")

		soakMode    = flag.Bool("soak", false, "run the live-wire indexed churn soak instead of the simulation sweeps")
		soakRepair  = flag.Bool("repair", false, "soak: self-healing mode — joins/leaves during the storm, circuit breaker armed, post-storm replica coverage verified to 100%, degraded-lookup probe")
		soakRestart = flag.Bool("restart", false, "soak: crash-restart mode — members run on disk-backed durable stores and whole replica sets are crash-restarted from their data directories mid-storm")
		soakSplit   = flag.Bool("split-brain", false, "soak: split-brain mode — the ring is group-partitioned into two halves that keep serving writes and removes, then healed link by link; fails on lost writes, resurrected removes, or a ring that never re-merged")
		splitOut    = flag.String("split-out", "", "soak: write the split-brain episode/merge/tombstone JSON report to this file")
		soakDataDir = flag.String("data-dir", "", "soak: root directory for the restart mode's per-member stores (default: a temp dir, removed after the run)")
		soakNodes   = flag.Int("soak-nodes", 16, "soak: ring size")
		soakOps     = flag.Int("soak-ops", 150, "soak: write-once operations")
		soakDrop    = flag.Float64("soak-drop", 0.10, "soak: per-message drop probability")
		soakLatency = flag.Duration("soak-latency", 50*time.Millisecond, "soak: injected latency")
		soakQueries = flag.Int("soak-queries", 2, "soak: indexed lookups per storm op")

		benchOut   = flag.String("bench-out", "", "run the wire fast-path microbenchmarks (pooled transport, batched puts, batched publish, parallel search) and write the JSON report to this file (e.g. BENCH_wire.json); with -load, merge the load trajectory into it instead")
		benchCheck = flag.String("bench-check", "", "re-measure the pooled transport's bytes/op and allocs/op and fail if they regressed past tolerance against the committed report at this path (e.g. BENCH_wire.json) — CI's cheap wire-efficiency gate")
		profileDir = flag.String("profile", "", "write cpu.pprof and heap.pprof covering the run to this directory (created if missing)")

		ingestMode   = flag.Bool("ingest", false, "run the continuous-ingest soak (durable backpressured pipeline feeding a stormed ring, ingester crash-restart mid-stream, poison quarantine) and exit non-zero on any gate violation")
		ingestDocs   = flag.Int("ingest-docs", 0, "ingest: documents streamed through the pipeline (0 = harness default)")
		ingestBudget = flag.Duration("ingest-budget", 15*time.Second, "ingest: ack-to-visibility freshness budget")
		ingestSpool  = flag.String("ingest-spool", "", "ingest: pipeline spool directory, kept after the run for indexctl queue (default: a temp dir, removed after the run)")
		ingestOut    = flag.String("ingest-out", "", "ingest: write the full JSON ingest report to this file")

		loadMode   = flag.Bool("load", false, "run the open-loop overload harness (rated phase, then 2-4x overload with a flash crowd) and exit non-zero on any SLO violation")
		loadRated  = flag.Float64("load-rated", 0, "load: rated arrival rate in ops/s (0 = harness default)")
		loadFactor = flag.Float64("load-factor", 0, "load: overload multiple of the rated rate (0 = harness default)")
		duration   = flag.Duration("duration", 0, "load: total arrival window, split evenly across the rated and overload phases (0 = harness default)")
		loadOut    = flag.String("load-out", "", "load: write the full JSON load report to this file")

		metricsAddr = flag.String("metrics-addr", "", "serve the telemetry snapshot on this address (e.g. :8080) after the run")
		metricsOut  = flag.String("metrics-out", "", "write the telemetry snapshot to this file after the run")
		tracePath   = flag.String("trace", "", "write every LookupTrace to this JSONL file (soak default: soak-traces.jsonl)")
	)
	flag.Parse()
	reg := telemetry.NewRegistry()
	var err error
	stopProfiles := func() {}
	if *profileDir != "" {
		stop, perr := startProfiles(*profileDir)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "dhtbench:", perr)
			os.Exit(1)
		}
		stopProfiles = stop
	}
	if *ingestMode {
		err = runIngestMode(ingestOpts{
			nodes: *soakNodes, ops: *soakOps, drop: *soakDrop, latency: *soakLatency,
			seed: *seed, docs: *ingestDocs, budget: *ingestBudget,
			spoolDir: *ingestSpool, out: *ingestOut,
		}, reg, *metricsAddr, *metricsOut)
	} else if *loadMode {
		err = runLoadMode(loadOpts{
			rated: *loadRated, factor: *loadFactor, duration: *duration,
			seed: *seed, out: *loadOut, benchOut: *benchOut,
		}, reg, *metricsAddr, *metricsOut)
	} else if *matrixMode {
		err = runMatrix(matrixOpts{
			nodes: *matrixNodes, ops: *matrixOps, queries: *matrixQueries,
			seed: *seed, benchOut: *benchOut,
		}, reg, *metricsAddr, *metricsOut)
	} else if *benchOut != "" {
		err = runBenchOut(*benchOut, *seed)
	} else if *benchCheck != "" {
		err = runBenchCheck(*benchCheck, *seed)
	} else if *soakMode && *substrate != "chord" {
		err = runSubstrateSoak(*substrate, soakOpts{
			nodes: *soakNodes, ops: *soakOps, queries: *soakQueries, seed: *seed,
		}, reg, *metricsAddr, *metricsOut)
	} else if *soakMode {
		err = runSoak(soakOpts{
			nodes: *soakNodes, ops: *soakOps, queries: *soakQueries,
			drop: *soakDrop, latency: *soakLatency, seed: *seed,
			trace: *tracePath, repair: *soakRepair,
			restart: *soakRestart, dataDir: *soakDataDir,
			splitBrain: *soakSplit, splitOut: *splitOut,
		}, reg, *metricsAddr, *metricsOut)
	} else {
		err = run(*maxNodes, *lookups, *churn, *seed, *substrate, reg, *metricsAddr, *metricsOut)
	}
	// Flush the profiles before any exit: os.Exit skips defers, and a
	// failing run is exactly when the profile is worth having.
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhtbench:", err)
		os.Exit(1)
	}
}

// startProfiles begins a CPU profile in dir and returns a stop function
// that ends it and writes a heap profile next to it. The artifacts
// (cpu.pprof, heap.pprof) are what CI uploads for offline `go tool
// pprof` triage of bench or soak regressions.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	cpuPath := filepath.Join(dir, "cpu.pprof")
	cf, err := os.Create(cpuPath)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, fmt.Errorf("profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		cf.Close()
		heapPath := filepath.Join(dir, "heap.pprof")
		hf, err := os.Create(heapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dhtbench: heap profile:", err)
			return
		}
		defer hf.Close()
		runtime.GC() // capture live objects, not garbage awaiting collection
		if err := pprof.Lookup("heap").WriteTo(hf, 0); err != nil {
			fmt.Fprintln(os.Stderr, "dhtbench: heap profile:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "dhtbench: profiles written to %s and %s\n", cpuPath, heapPath)
	}, nil
}

// soakOpts bundles the soak flag values.
type soakOpts struct {
	nodes, ops, queries int
	drop                float64
	latency             time.Duration
	seed                int64
	trace               string
	repair              bool
	restart             bool
	dataDir             string
	splitBrain          bool
	splitOut            string
}

// runSoak exercises the LIVE wire layer (message-passing nodes, fault
// injection, retry stack) under the paper's index workload — the live
// analogue of churnTest below, fully instrumented.
func runSoak(o soakOpts, reg *telemetry.Registry, metricsAddr, metricsOut string) error {
	tracePath := o.trace
	if tracePath == "" {
		tracePath = "soak-traces.jsonl"
	}
	tf, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	defer tf.Close()
	sink := telemetry.NewJSONLSink(tf)

	report, err := soak.Run(soak.Config{
		Nodes:    o.nodes,
		Ops:      o.ops,
		DropProb: o.drop,
		Latency:  o.latency,
		Seed:     o.seed,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
		Repair:       o.repair,
		Restart:      o.restart,
		SplitBrain:   o.splitBrain,
		DataDir:      o.dataDir,
		QueriesPerOp: o.queries,
		Telemetry:    reg,
		TraceSink:    sink,
	})
	// Flush before looking at the harness error (a failed degraded-lookup
	// probe included): that run's traces are the ones worth inspecting.
	if ferr := sink.Flush(); ferr != nil && err == nil {
		err = fmt.Errorf("flush traces: %w", ferr)
	}
	if err != nil {
		return failWithMetrics(reg, metricsOut, err)
	}
	fmt.Fprintf(os.Stderr, "dhtbench: %d traces written to %s\n", report.Traces, tracePath)

	f, r := report.Faults, report.Retry
	fmt.Printf("\nsoak report (seed %d)\n", o.seed)
	fmt.Printf("  ring:        %d -> %d nodes, converged=%v\n", o.nodes, report.SurvivingNodes, report.Converged)
	fmt.Printf("  data:        %d acked, %d put failures, %d lost\n", report.Acked, report.PutFailures, len(report.LostKeys))
	fmt.Printf("  chaos reads: %d issued, %d failed during storm\n", report.ChaosReads, report.ChaosReadFailures)
	fmt.Printf("  queries:     %d indexed lookups, %d found, %d cache hits, %d failed during storm\n",
		report.Queries, report.Found, report.CacheHits, report.QueryFailures)
	fmt.Printf("  faults:      %d calls, %d+%d dropped (req+resp), %d delayed (%v total), %d partition-blocked, %d crash-blocked\n",
		f.Calls, f.DroppedRequests, f.DroppedResponses, f.Delayed, f.DelayTotal.Round(time.Millisecond), f.PartitionBlocked, f.CrashBlocked)
	fmt.Printf("  retries:     %d calls, %d attempts, %d retries, %d recovered, %d gave up (amplification %.2f)\n",
		r.Calls, r.Attempts, r.Retries, r.Recovered, r.GaveUp, report.RetryAmplification())
	fmt.Printf("  failover:    %d owner-read failures, %d replica reads, %d entry retries, %d hedged gets (%d hedge wins)\n",
		report.Cluster.OwnerReadFailures, report.Cluster.FailoverReads, report.Cluster.EntryRetries,
		report.Cluster.HedgedGets, report.Cluster.HedgeWins)
	if o.repair {
		b, rp := report.Breaker, report.Repair
		fmt.Printf("  churn:       %d joins, %d leaves (on top of %d crashes)\n",
			report.Joins, report.Leaves, report.Crashes)
		fmt.Printf("  repair:      %d rounds, %d syncs, %d pushes, %d forwards, %d drops; replica violations: %d\n",
			rp.Rounds, rp.Syncs, rp.Pushes, rp.Forwards, rp.Drops, len(report.ReplicaViolations))
		fmt.Printf("  breaker:     %d trips, %d fast-fails, %d probes, %d closes, %d still open\n",
			b.Trips, b.FastFails, b.Probes, b.Closes, b.Open)
		p := report.IncompleteProbe
		fmt.Printf("  degradation: probe crashed %d nodes, incomplete=%v (%d unresolved) in %v\n",
			p.Crashed, p.Incomplete, p.Unresolved, p.Elapsed.Round(time.Millisecond))
	}
	if o.restart {
		rec := report.Recovery
		fmt.Printf("  restarts:    %d members crash-restarted from %s\n", report.Restarts, report.DataDir)
		fmt.Printf("  recovery:    %d snapshot keys, %d WAL records replayed, %d skipped, %d torn tails truncated\n",
			rec.SnapshotKeys, rec.ReplayedRecords, rec.SkippedRecords, rec.TornRecords)
	}
	if o.splitBrain {
		m, tb := report.Merges, report.Tombstones
		for _, ep := range report.Episodes {
			fmt.Printf("  episode:     ops %d..%d, sides %d|%d\n", ep.StartOp, ep.HealOp, ep.SideA, ep.SideB)
		}
		fmt.Printf("  removes:     %d acked, %d failed, %d resurrections\n",
			report.Removes, report.RemoveFailures, len(report.Resurrections))
		fmt.Printf("  merge:       %d probes, %d divergences detected, %d aborts, %d coordinations, %d rejoins, %d adopts\n",
			m.Probes, m.Detected, m.Aborts, m.Coordinations, m.Rejoins, m.Adopts)
		fmt.Printf("  tombstones:  %d created, %d merged from peers, %d puts suppressed, %d collected\n",
			tb.Created, tb.Merged, tb.Suppressed, tb.GCd)
		if o.splitOut != "" {
			if err := writeSplitReport(o.splitOut, report); err != nil {
				return err
			}
		}
	}
	if err := emitMetrics(reg, metricsOut); err != nil {
		return err
	}
	if !report.Converged || len(report.LostKeys) > 0 {
		return fmt.Errorf("soak failed: converged=%v lost=%d", report.Converged, len(report.LostKeys))
	}
	if o.repair {
		if len(report.ReplicaViolations) > 0 {
			return fmt.Errorf("repair soak failed: %d keys off full replica coverage: %v",
				len(report.ReplicaViolations), report.ReplicaViolations)
		}
		if p := report.IncompleteProbe; !p.Ran || !p.Incomplete {
			return fmt.Errorf("repair soak failed: degraded-lookup probe = %+v", p)
		}
	}
	if o.restart {
		if report.Restarts == 0 {
			return fmt.Errorf("restart soak failed: no crash-restarts executed")
		}
		if len(report.ReplicaViolations) > 0 {
			return fmt.Errorf("restart soak failed: %d keys off full replica coverage after recovery: %v",
				len(report.ReplicaViolations), report.ReplicaViolations)
		}
	}
	if o.splitBrain {
		if len(report.Episodes) == 0 {
			return fmt.Errorf("split-brain soak failed: no partition episode executed")
		}
		if report.Merges.Detected == 0 {
			return fmt.Errorf("split-brain soak failed: no ring divergence was ever detected — the merge path went unexercised")
		}
		if len(report.Resurrections) > 0 {
			return fmt.Errorf("split-brain soak failed: %d removed entries resurrected: %v",
				len(report.Resurrections), report.Resurrections)
		}
		if len(report.ReplicaViolations) > 0 {
			return fmt.Errorf("split-brain soak failed: %d keys off full replica coverage after the merge: %v",
				len(report.ReplicaViolations), report.ReplicaViolations)
		}
	}
	return serveMetrics(reg, metricsAddr)
}

// runSubstrateSoak runs the in-process indexed churn soak on a single
// non-chord substrate (the -soak -substrate path) and fails on any
// acked-write loss.
func runSubstrateSoak(substrate string, o soakOpts, reg *telemetry.Registry, metricsAddr, metricsOut string) error {
	rep, err := soak.RunSubstrate(soak.SubstrateConfig{
		Substrate:    substrate,
		Nodes:        o.nodes,
		Ops:          o.ops,
		QueriesPerOp: o.queries,
		Seed:         o.seed,
		Telemetry:    reg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nsubstrate soak report (seed %d)\n", o.seed)
	fmt.Printf("  substrate:   %s, %d nodes\n", rep.Substrate, rep.Nodes)
	fmt.Printf("  churn:       %d joins, %d leaves, %d crashes over %d ops\n",
		rep.Joins, rep.Leaves, rep.Crashes, rep.Ops)
	fmt.Printf("  queries:     %d issued, %d found, %d cache hits, %d failed\n",
		rep.Queries, rep.Found, rep.CacheHits, rep.QueryFailures)
	fmt.Printf("  latency:     p50 %.0fµs, p99 %.0fµs (mean %.2f hops/lookup)\n",
		rep.P50QueryMicros, rep.P99QueryMicros, rep.MeanLookupHops)
	fmt.Printf("  maintenance: %d items, %d bytes moved\n",
		rep.MaintenanceItems, rep.MaintenanceBytes)
	fmt.Printf("  data:        %d acked articles, %d lost\n", rep.AckedArticles, rep.LostArticles)
	if err := emitMetrics(reg, metricsOut); err != nil {
		return err
	}
	if rep.LostArticles > 0 {
		return fmt.Errorf("substrate soak failed: %d of %d acked articles lost",
			rep.LostArticles, rep.AckedArticles)
	}
	return serveMetrics(reg, metricsAddr)
}

// writeSplitReport writes the split-brain run's verdict — episode
// windows, merge/tombstone work, and the loss/resurrection gates — as a
// JSON artifact for CI upload and offline triage.
func writeSplitReport(path string, report soak.Report) error {
	out := struct {
		Converged         bool
		Acked             int
		LostKeys          []string
		Removes           int
		RemoveFailures    int
		Resurrections     []string
		ReplicaViolations []string
		Episodes          []soak.PartitionEpisode
		Merges            wire.MergeStats
		Tombstones        wire.TombstoneStats
		Faults            wire.FaultStats
	}{
		Converged:         report.Converged,
		Acked:             report.Acked,
		LostKeys:          report.LostKeys,
		Removes:           report.Removes,
		RemoveFailures:    report.RemoveFailures,
		Resurrections:     report.Resurrections,
		ReplicaViolations: report.ReplicaViolations,
		Episodes:          report.Episodes,
		Merges:            report.Merges,
		Tombstones:        report.Tombstones,
		Faults:            report.Faults,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dhtbench: split-brain report written to %s\n", path)
	return nil
}

// failWithMetrics returns a harness error after writing the metrics
// snapshot all the same, so CI's always() uploads hold the snapshot of
// exactly the runs worth inspecting.
func failWithMetrics(reg *telemetry.Registry, path string, err error) error {
	if merr := emitMetrics(reg, path); merr != nil {
		fmt.Fprintln(os.Stderr, "dhtbench:", merr)
	}
	return err
}

// emitMetrics writes the registry's text snapshot to a file when asked.
func emitMetrics(reg *telemetry.Registry, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := reg.WriteText(f); err != nil {
		return fmt.Errorf("write metrics snapshot: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dhtbench: metrics snapshot written to %s\n", path)
	return nil
}

// serveMetrics blocks serving the registry at /metrics when an address
// is given (curl http://<addr>/metrics for the live snapshot).
func serveMetrics(reg *telemetry.Registry, addr string) error {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	fmt.Fprintf(os.Stderr, "dhtbench: serving metrics on http://%s/metrics (Ctrl-C to stop)\n", addr)
	return http.ListenAndServe(addr, mux)
}

func run(maxNodes, lookups int, churn float64, seed int64, substrate string, reg *telemetry.Registry, metricsAddr, metricsOut string) error {
	fmt.Printf("substrate: %s\n", substrate)
	fmt.Printf("%-8s %10s %8s %10s %10s %12s\n",
		"nodes", "mean hops", "max", "log2(N)", "mean keys", "max/mean keys")
	for n := 16; n <= maxNodes; n *= 4 {
		var err error
		switch substrate {
		case "chord":
			err = chordSweep(n, lookups, seed, reg)
		case "pastry":
			err = pastrySweep(n, lookups, seed)
		case "kademlia":
			err = kademliaSweep(n, lookups, seed, reg)
		default:
			err = fmt.Errorf("unknown substrate %q", substrate)
		}
		if err != nil {
			return err
		}
	}
	if err := churnTest(maxNodes/4, churn, seed, reg); err != nil {
		return err
	}
	if err := emitMetrics(reg, metricsOut); err != nil {
		return err
	}
	return serveMetrics(reg, metricsAddr)
}

func chordSweep(n, lookups int, seed int64, reg *telemetry.Registry) error {
	net := dht.NewNetwork(seed)
	if _, err := net.Populate(n); err != nil {
		return err
	}
	net.Instrument(reg)
	for i := 0; i < 10*n; i++ {
		if _, err := net.Put(nil, keyspace.NewKey(fmt.Sprintf("key-%d", i)),
			dht.Entry{Kind: "data", Value: "x"}); err != nil {
			return err
		}
	}
	net.ResetMetrics()
	nodes := net.Nodes()
	for i := 0; i < lookups; i++ {
		start := nodes[i%len(nodes)]
		if _, err := net.Lookup(start, keyspace.NewKey(fmt.Sprintf("probe-%d", i))); err != nil {
			return err
		}
	}
	m := net.Metrics()
	load := net.KeyLoad()
	fmt.Printf("%-8d %10.2f %8d %10.2f %10.1f %12.2f\n",
		n, float64(m.Hops)/float64(m.Lookups), m.MaxHops, math.Log2(float64(n)),
		load.MeanKeys, float64(load.MaxKeys)/load.MeanKeys)
	return nil
}

func pastrySweep(n, lookups int, seed int64) error {
	net := pastry.NewNetwork()
	nodes, err := net.Populate(n)
	if err != nil {
		return err
	}
	ov := pastry.AsOverlay(net, seed)
	for i := 0; i < 10*n; i++ {
		if _, err := ov.Put(keyspace.NewKey(fmt.Sprintf("key-%d", i)),
			overlay.Entry{Kind: "data", Value: "x"}); err != nil {
			return err
		}
	}
	keyTotal, keyMax := 0, 0
	for _, addr := range ov.Addrs() {
		st, err := ov.StatsOf(addr)
		if err != nil {
			return err
		}
		keyTotal += st.Keys
		if st.Keys > keyMax {
			keyMax = st.Keys
		}
	}
	before := net.Metrics()
	for i := 0; i < lookups; i++ {
		start := nodes[i%len(nodes)]
		if _, err := net.Lookup(start, keyspace.NewKey(fmt.Sprintf("probe-%d", i))); err != nil {
			return err
		}
	}
	m := net.Metrics()
	mean := float64(keyTotal) / float64(n)
	fmt.Printf("%-8d %10.2f %8d %10.2f %10.1f %12.2f\n",
		n, float64(m.Hops-before.Hops)/float64(m.Lookups-before.Lookups),
		m.MaxHops, math.Log2(float64(n)), mean, float64(keyMax)/mean)
	return nil
}

// kademliaSweep mirrors chordSweep on the iterative XOR substrate: hop
// depth here is the α-parallel lookup's round count (how many probe
// waves before the K closest converged), which plays the role the
// forwarding hop count plays on the recursive rings.
func kademliaSweep(n, lookups int, seed int64, reg *telemetry.Registry) error {
	net := kademlia.NewNetwork(kademlia.Config{Replicas: 1, Seed: seed})
	if _, err := net.Populate(n); err != nil {
		return err
	}
	net.Instrument(reg)
	ov := kademlia.AsOverlay(net, seed)
	for i := 0; i < 10*n; i++ {
		if _, err := ov.Put(keyspace.NewKey(fmt.Sprintf("key-%d", i)),
			overlay.Entry{Kind: "data", Value: "x"}); err != nil {
			return err
		}
	}
	keyTotal, keyMax := 0, 0
	for _, addr := range ov.Addrs() {
		st, err := ov.StatsOf(addr)
		if err != nil {
			return err
		}
		keyTotal += st.Keys
		if st.Keys > keyMax {
			keyMax = st.Keys
		}
	}
	net.ResetMetrics()
	nodes := net.Nodes()
	for i := 0; i < lookups; i++ {
		start := nodes[i%len(nodes)].Addr
		if _, err := net.Lookup(start, keyspace.NewKey(fmt.Sprintf("probe-%d", i))); err != nil {
			return err
		}
	}
	m := net.Metrics()
	mean := float64(keyTotal) / float64(n)
	fmt.Printf("%-8d %10.2f %8d %10.2f %10.1f %12.2f\n",
		n, float64(m.Rounds)/float64(m.Lookups), m.MaxRounds, math.Log2(float64(n)),
		mean, float64(keyMax)/mean)
	return nil
}

// churnTest fails a fraction of a replicated network and reports surviving
// data and post-stabilization routing health.
func churnTest(n int, frac float64, seed int64, reg *telemetry.Registry) error {
	fmt.Printf("\nchurn test: %d nodes, replication 2, failing %.0f%%\n", n, 100*frac)
	net := dht.NewNetwork(seed)
	net.ReplicationFactor = 2
	nodes, err := net.Populate(n)
	if err != nil {
		return err
	}
	net.Instrument(reg)
	const keys = 2000
	for i := 0; i < keys; i++ {
		if _, err := net.Put(nil, keyspace.NewKey(fmt.Sprintf("doc-%d", i)),
			dht.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			return err
		}
	}
	fail := int(frac * float64(n))
	for i := 0; i < fail; i++ {
		if err := net.FailNode(nodes[i*3%n].Addr); err != nil {
			// Node may already be gone when the stride wraps; skip.
			continue
		}
	}
	net.Stabilize()
	if err := net.VerifyRing(); err != nil {
		return fmt.Errorf("ring not converged: %w", err)
	}
	survived := 0
	for i := 0; i < keys; i++ {
		entries, _, err := net.Get(nil, keyspace.NewKey(fmt.Sprintf("doc-%d", i)))
		if err != nil {
			return err
		}
		if len(entries) > 0 {
			survived++
		}
	}
	m := net.Metrics()
	fmt.Printf("data survived: %d/%d (%.1f%%), failover reads: %d\n",
		survived, keys, 100*float64(survived)/keys, m.FailoverReads)
	return nil
}
