package soak_test

import (
	"strings"
	"testing"
	"time"

	"dhtindex/internal/soak"
	"dhtindex/internal/telemetry"
)

// TestIndexedSoakTracesComplete runs a small indexed soak under real
// fault injection (drops, latency, a crash and a partition) and checks
// the telemetry contract: every indexed lookup — found or not — emits
// exactly one complete LookupTrace, and the registry snapshot contains
// every layer's families.
func TestIndexedSoakTracesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("indexed soak is a multi-second live-ring test")
	}
	reg := telemetry.NewRegistry()
	col := &telemetry.Collector{}
	report, err := soak.Run(soak.Config{
		Nodes:        8,
		Ops:          30,
		Seed:         11,
		DropProb:     0.15,
		Latency:      2 * time.Millisecond,
		CrashEvery:   20,
		Articles:     12,
		QueriesPerOp: 2,
		Telemetry:    reg,
		TraceSink:    col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("storm gates failed: %v", report.Violations)
	}
	if report.Queries != 60 || report.Found+report.QueryFailures != report.Queries {
		t.Fatalf("query accounting inconsistent: %+v", report)
	}
	if report.Found == 0 {
		t.Fatal("no query resolved despite a converged ring")
	}

	traces := col.Traces()
	if len(traces) != report.Queries || report.Traces != report.Queries {
		t.Fatalf("got %d traces (report says %d) for %d queries — want one per lookup",
			len(traces), report.Traces, report.Queries)
	}
	seen := map[int64]bool{}
	for _, tr := range traces {
		if tr.ID <= 0 || seen[tr.ID] {
			t.Fatalf("trace ID %d missing or duplicated", tr.ID)
		}
		seen[tr.ID] = true
		if tr.Scheme != "live/simple/single-cache" {
			t.Fatalf("trace scheme = %q", tr.Scheme)
		}
		if tr.Query == "" || tr.Target == "" {
			t.Fatalf("trace missing query/target: %+v", tr)
		}
		if len(tr.Hops) == 0 {
			t.Fatalf("trace %d has no hops", tr.ID)
		}
		if !tr.Found {
			continue
		}
		// A found trace must end at the data and count its rounds.
		last := tr.Hops[len(tr.Hops)-1]
		if last.Kind != "data" && last.Kind != "cache-jump" {
			t.Fatalf("found trace %d ends with %q hop", tr.ID, last.Kind)
		}
		if tr.Interactions < 1 || tr.BytesShipped <= 0 {
			t.Fatalf("found trace %d incomplete: %+v", tr.ID, tr)
		}
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	snapshot := sb.String()
	for _, family := range []string{
		"# TYPE dht_lookup_hops histogram",
		"# TYPE wire_rpc_latency_seconds histogram",
		"# TYPE index_interactions_per_query histogram",
		"index_lookups_total",
		"index_cache_hits_total",
		"index_cache_misses_total",
		"wire_retry_calls_total",
		"wire_retry_attempts_total",
		"wire_fault_calls_total",
		"wire_fault_dropped_requests_total",
		"wire_ring_nodes",
	} {
		if !strings.Contains(snapshot, family) {
			t.Errorf("snapshot missing %s", family)
		}
	}
}

// TestIndexedRepairSoak runs the self-healing variant end-to-end: churn
// with joins/leaves/crashes, breaker armed, post-storm replica coverage
// verified back to 100%, and the degraded-lookup probe asserting a
// search through a crash-stopped replica set returns a partial result
// flagged Incomplete within its budget instead of an error.
func TestIndexedRepairSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("indexed soak is a multi-second live-ring test")
	}
	reg := telemetry.NewRegistry()
	report, err := soak.Run(soak.Config{
		Nodes:        10,
		Ops:          80,
		Seed:         23,
		DropProb:     0.08,
		Latency:      2 * time.Millisecond,
		CrashEvery:   35,
		Repair:       true,
		Articles:     12,
		QueriesPerOp: 1,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("storm gates failed: %v", report.Violations)
	}
	if report.Joins == 0 || report.Leaves == 0 {
		t.Errorf("repair-mode churn incomplete: joins=%d leaves=%d", report.Joins, report.Leaves)
	}
	if report.Repair.Pushes == 0 {
		t.Errorf("repair loop pushed nothing under churn: %+v", report.Repair)
	}
	p := report.IncompleteProbe
	if !p.Ran || !p.Incomplete || p.Crashed == 0 {
		t.Fatalf("incomplete probe = %+v, want a degraded lookup through crashed nodes", p)
	}
	if p.Elapsed > 5*time.Second {
		t.Errorf("probe took %v, want within the deadline budget", p.Elapsed)
	}

	// The new robustness metric families must be in the snapshot.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	snapshot := sb.String()
	for _, family := range []string{
		"wire_repair_rounds_total",
		"wire_repair_pushes_total",
		"wire_repair_drops_total",
		"wire_breaker_open",
		"wire_hedged_gets_total",
		"index_incomplete_lookups_total",
	} {
		if !strings.Contains(snapshot, family) {
			t.Errorf("snapshot missing %s", family)
		}
	}
}
