package main

// The -ingest mode: the continuous-ingest soak (internal/soak.RunIngest)
// as a CI gate. A crawl-rate document stream is fed through the durable
// ingest pipeline into a stormed ring, the ingester is crash-restarted
// mid-stream, poison documents are salted in, and the run is held to the
// scenario gates — zero acked-document loss, 100% freshness-SLO
// compliance, total poison quarantine, spool recovery across the
// restart, a live republisher. It prints the stream accounting,
// optionally writes the full JSON IngestReport (-ingest-out), and exits
// non-zero on any gate violation.

import (
	"errors"
	"fmt"
	"os"
	"time"

	"dhtindex/internal/soak"
	"dhtindex/internal/telemetry"
)

// ingestOpts bundles the -ingest flag values.
type ingestOpts struct {
	nodes    int
	ops      int
	drop     float64
	latency  time.Duration
	seed     int64
	docs     int
	budget   time.Duration
	spoolDir string
	out      string
}

// errIngestGate marks an ingest-gate failure (as opposed to a harness
// error).
var errIngestGate = errors.New("ingest gate failed")

// runIngestMode executes the continuous-ingest soak and holds it to the
// scenario gates.
func runIngestMode(o ingestOpts, reg *telemetry.Registry, metricsAddr, metricsOut string) error {
	report, err := soak.RunIngest(soak.Config{
		Nodes:    o.nodes,
		Ops:      o.ops,
		DropProb: o.drop,
		Latency:  o.latency,
		Seed:     o.seed,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
		Documents:       o.docs,
		FreshnessBudget: o.budget,
		SpoolDir:        o.spoolDir,
		Telemetry:       reg,
	})
	if err != nil {
		return failWithMetrics(reg, metricsOut, err)
	}

	fmt.Printf("\ningest report (seed %d)\n", o.seed)
	fmt.Printf("  ring:      %d -> %d nodes, converged=%v, %d wire keys acked, %d lost\n",
		o.nodes, report.SurvivingNodes, report.Converged, report.StormReport.Acked, len(report.LostKeys))
	fmt.Printf("  stream:    %d enqueued, %d acked (%d poison), %d published, %d dead-lettered\n",
		report.Enqueued, report.Acked, report.Poison, report.Published, report.DeadLettered)
	fmt.Printf("  retries:   %d budgeted retries, %d overload backoffs, %d shed\n",
		report.Retries, report.OverloadBackoffs, report.Shed)
	fmt.Printf("  restart:   %d ingester crash-restarts, %d spool records recovered\n",
		report.IngesterRestarts, report.SpoolRecovered)
	fmt.Printf("  freshness: max ack-to-visible %v (budget %v), %d violations, %d lost docs\n",
		report.MaxAckToVisible.Round(time.Millisecond), o.budget, len(report.FreshnessViolations), len(report.LostDocs))
	fmt.Printf("  republish: %d refreshes, %d failures\n", report.Republished, report.RepublishFailures)
	for reason, n := range report.DeadLetterReasons {
		fmt.Printf("  quarantine: %d x %s\n", n, reason)
	}

	if o.out != "" {
		if err := writeJSON(o.out, report); err != nil {
			return fmt.Errorf("write ingest report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "dhtbench: ingest report written to %s\n", o.out)
	}
	if err := emitMetrics(reg, metricsOut); err != nil {
		return err
	}
	if !report.Passed() {
		for _, v := range report.Violations {
			fmt.Fprintf(os.Stderr, "dhtbench: ingest violation: %s\n", v)
		}
		return fmt.Errorf("%w: %d violations", errIngestGate, len(report.Violations))
	}
	fmt.Println("  gate:      PASS")
	return serveMetrics(reg, metricsAddr)
}
