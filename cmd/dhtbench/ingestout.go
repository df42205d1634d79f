package main

// The ingest subcommand: the continuous-ingest soak (soak.RunIngest). A
// crawl-rate document stream is fed through the durable ingest pipeline
// into a stormed ring, the ingester is crash-restarted mid-stream,
// poison documents are salted in, and the run is held to the storm's
// gates plus the stream's: zero acked-document loss, 100% freshness-SLO
// compliance, total poison quarantine, spool recovery across the
// restart, a live republisher.

import (
	"fmt"
	"io"
	"time"

	"dhtindex/internal/soak"
)

func runIngest(args []string, out io.Writer) error {
	fs := newFlagSet("ingest", "stream documents through the durable ingest pipeline into a stormed ring, crash-restarting the ingester mid-stream", out)
	g := newGate(fs)
	g.reportFlag(fs)
	nodes := fs.Int("nodes", 0, "ring size (0: the harness default)")
	ops := fs.Int("ops", 0, "storm operations (0: the harness default)")
	spool := fs.String("spool", "", "keep the pipeline's spool in this directory, for indexctl queue (default: a temp dir, removed after the run)")
	if err := parse(fs, args); err != nil {
		return err
	}
	r, err := soak.RunIngest(soak.Config{
		Nodes: *nodes, Ops: *ops, Seed: g.seed, SpoolDir: *spool, Log: logTo(out), Telemetry: g.reg,
	})
	if err == nil {
		fmt.Fprintf(out, "\ningest report\n")
		fmt.Fprintf(out, "  ring:      %d nodes left, converged=%v, %d wire keys acked, %d lost\n",
			r.SurvivingNodes, r.Converged, r.StormReport.Acked, len(r.LostKeys))
		fmt.Fprintf(out, "  stream:    %d enqueued, %d acked (%d poison), %d published, %d dead-lettered\n",
			r.Enqueued, r.Acked, r.Poison, r.Published, r.DeadLettered)
		fmt.Fprintf(out, "  retries:   %d budgeted retries, %d overload backoffs\n",
			r.Retries, r.OverloadBackoffs)
		fmt.Fprintf(out, "  restart:   %d ingester crash-restarts, %d spool records recovered\n",
			r.IngesterRestarts, r.SpoolRecovered)
		fmt.Fprintf(out, "  freshness: max ack-to-visible %v, %d violations, %d lost docs\n",
			r.MaxAckToVisible.Round(time.Millisecond), len(r.FreshnessViolations), len(r.LostDocs))
		fmt.Fprintf(out, "  republish: %d refreshes, %d failures\n", r.Republished, r.RepublishFailures)
		for reason, n := range r.DeadLetterReasons {
			fmt.Fprintf(out, "  quarantine: %d x %s\n", n, reason)
		}
	}
	return g.finish(out, r, r.Violations, err)
}
