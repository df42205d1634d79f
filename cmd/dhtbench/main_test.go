package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// dhtbench runs one command line and returns its exit status and
// everything it printed.
func dhtbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out, &out)
	return code, out.String()
}

// readJSON decodes the JSON file at path into a map.
func readJSON(t *testing.T, path string) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// TestCommandLineRefused holds the front door: no subcommand, an unknown
// one, a flag another subcommand owns, and a flag the chosen mode would
// ignore all exit 2 before any harness runs.
func TestCommandLineRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		says string
	}{
		{nil, "usage: dhtbench <sweep|soak|ingest|load|matrix>"},
		{[]string{"hop-sweep"}, `unknown subcommand "hop-sweep"`},
		{[]string{"soak", "-spool", "x"}, "flag provided but not defined: -spool"},
		{[]string{"ingest", "-trace", "x"}, "flag provided but not defined: -trace"},
		{[]string{"sweep", "-repair"}, "flag provided but not defined: -repair"},
		{[]string{"soak", "-substrate", "pastry", "-preset", "repair"}, "-preset applies only to -substrate chord"},
		{[]string{"soak", "-data-dir", "d"}, "-data-dir applies only to -preset restart"},
		{[]string{"soak", "-preset", "flood"}, `unknown preset "flood"`},
		{[]string{"sweep", "-substrate", "can"}, `unknown substrate "can"`},
		{[]string{"matrix", "extra"}, `unexpected argument "extra"`},
	} {
		code, out := dhtbench(t, c.args...)
		if code != 2 || !strings.Contains(out, c.says) {
			t.Errorf("dhtbench %q: exit %d, want 2 saying %q; printed:\n%s", c.args, code, c.says, out)
		}
	}
	if code, out := dhtbench(t, "load", "-h"); code != 0 || !strings.Contains(out, "-duration") {
		t.Errorf("load -h: exit %d, want 0 listing the flags; printed:\n%s", code, out)
	}
}

func TestSweep(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.prom")
	code, out := dhtbench(t, "sweep", "-max-nodes", "16", "-metrics-out", metrics)
	if code != 0 || !strings.Contains(out, "churn test: 4 nodes") {
		t.Fatalf("exit %d; printed:\n%s", code, out)
	}
	if raw, err := os.ReadFile(metrics); err != nil || !strings.Contains(string(raw), "dht_lookup_hops") {
		t.Errorf("metrics snapshot: %v", err)
	}
}

// TestSoakPresets storms a toy ring under every preset. The split-brain
// storm needs a longer episode than the others for the merge path to
// detect the divergence, so it runs more ops.
func TestSoakPresets(t *testing.T) {
	for _, c := range []struct {
		preset, ops string
	}{
		{"churn", "12"}, {"repair", "12"}, {"restart", "12"}, {"split-brain", "60"},
	} {
		t.Run(c.preset, func(t *testing.T) {
			dir := t.TempDir()
			report := filepath.Join(dir, "report.json")
			code, out := dhtbench(t, "soak", "-preset", c.preset, "-nodes", "8", "-ops", c.ops,
				"-trace", filepath.Join(dir, "t.jsonl"), "-report", report)
			if code != 0 || !strings.Contains(out, "soak report (preset "+c.preset+")") {
				t.Fatalf("exit %d; printed:\n%s", code, out)
			}
			got := readJSON(t, report)
			// The keys the split-brain report carried when it was a
			// hand-picked struct: the whole report keeps every one.
			for _, key := range []string{"Converged", "Acked", "LostKeys", "Removes", "RemoveFailures",
				"Resurrections", "ReplicaViolations", "Episodes", "Merges", "Tombstones", "Faults"} {
				if _, ok := got[key]; !ok {
					t.Errorf("report lacks %s", key)
				}
			}
		})
	}
	t.Run("pastry", func(t *testing.T) {
		report := filepath.Join(t.TempDir(), "report.json")
		code, out := dhtbench(t, "soak", "-substrate", "pastry", "-nodes", "8", "-ops", "12", "-report", report)
		if code != 0 || readJSON(t, report)["substrate"] != "pastry" {
			t.Fatalf("exit %d; printed:\n%s", code, out)
		}
	})
}

func TestIngest(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	code, out := dhtbench(t, "ingest", "-nodes", "8", "-ops", "12", "-report", report)
	if code != 0 {
		t.Fatalf("exit %d; printed:\n%s", code, out)
	}
	if got := readJSON(t, report); got["ingester_restarts"] != 1.0 {
		t.Errorf("report: %v ingester restarts, want 1", got["ingester_restarts"])
	}
}

// TestLoadFailureWritesReports forces the load gate red: a 10ms window
// never fills an admission queue. The run must exit 1 and still write
// -report and -metrics-out.
func TestLoadFailureWritesReports(t *testing.T) {
	dir := t.TempDir()
	report, metrics := filepath.Join(dir, "r.json"), filepath.Join(dir, "m.prom")
	code, out := dhtbench(t, "load", "-duration", "10ms", "-report", report, "-metrics-out", metrics)
	if code != 1 || !strings.Contains(out, "violation: no admission sheds fleet-wide") {
		t.Fatalf("exit %d, want 1 naming the violation; printed:\n%s", code, out)
	}
	if v, ok := readJSON(t, report)["slo_violations"].([]any); !ok || len(v) == 0 {
		t.Errorf("report carries no violations: %v", v)
	}
	if raw, err := os.ReadFile(metrics); err != nil || !strings.Contains(string(raw), "wire_admitted_total") {
		t.Errorf("metrics snapshot: %v", err)
	}
}

// TestMatrix runs the matrix at toy scale: the printed table has a row
// per substrate and the run passes the zero-loss gate.
func TestMatrix(t *testing.T) {
	code, out := dhtbench(t, "matrix", "-nodes", "8", "-ops", "10")
	if code != 0 || !strings.Contains(out, "substrate matrix (seed 1: ") {
		t.Fatalf("exit %d; printed:\n%s", code, out)
	}
	for _, substrate := range matrixSubstrates {
		if !regexp.MustCompile(`(?m)^` + substrate + ` +\d+ `).MatchString(out) {
			t.Errorf("no %s row in the table:\n%s", substrate, out)
		}
	}
}
