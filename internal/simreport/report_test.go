package simreport

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhtindex/internal/index"
)

// tinyConfig keeps report tests fast.
func tinyConfig(experiment string) Config {
	return Config{
		Experiment: experiment,
		Nodes:      30,
		Articles:   300,
		Queries:    1500,
		Seed:       1,
	}
}

// TestRunAllExperiments renders the whole report twice: every section
// must be present, the first rendering must equal the pinned golden
// testdata/all-tiny.txt byte for byte, and the second rendering must
// repeat the first — no cell may depend on scheduling or the wall
// clock. A change that moves a cell on purpose regenerates the golden
// with
//
//	go run ./cmd/indexsim -nodes 30 -articles 300 -queries 1500 > internal/simreport/testdata/all-tiny.txt
//
// and says in its description which cells moved and why.
func TestRunAllExperiments(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		if err := Run(&sb, tinyConfig("all")); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	out := render()
	for _, want := range []string{
		"Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "§V-B", "Fig. 11",
		"Fig. 12", "Fig. 13", "Fig. 14", "Fig. 15", "Table I", "§V-E",
		"simple", "flat", "complex",
		"no-cache", "multi-cache", "single-cache", "lru-30",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "all-tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if want := string(golden); out != want {
		outLines, wantLines := strings.Split(out, "\n"), strings.Split(want, "\n")
		for i := range min(len(outLines), len(wantLines)) {
			if outLines[i] != wantLines[i] {
				t.Fatalf("report differs from testdata/all-tiny.txt at line %d:\n got: %s\nwant: %s",
					i+1, outLines[i], wantLines[i])
			}
		}
		t.Fatalf("report differs from testdata/all-tiny.txt: %d lines, want %d", len(outLines), len(wantLines))
	}
	if again := render(); again != out {
		outLines, againLines := strings.Split(out, "\n"), strings.Split(again, "\n")
		for i := range min(len(outLines), len(againLines)) {
			if outLines[i] != againLines[i] {
				t.Fatalf("report differs between two renderings at line %d:\n first: %s\nsecond: %s",
					i+1, outLines[i], againLines[i])
			}
		}
		t.Fatalf("report differs between two renderings: %d lines, then %d", len(outLines), len(againLines))
	}
}

func TestRunSingleExperiment(t *testing.T) {
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "storage",
		"fig11", "fig12", "fig13", "fig14", "fig15", "table1", "substrate", "availability", "sensitivity", "variance"} {
		var sb strings.Builder
		if err := Run(&sb, tinyConfig(id)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s: empty report", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := Run(&sb, tinyConfig("fig99")); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r, err := newRunner(Config{Nodes: 20, Articles: 200, Queries: 500, Seed: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	spec := allPolicies()[0]
	a, err := r.run(index.Simple, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.run(index.Simple, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoization returned a different pointer")
	}
}

func TestModelCCDFRenormalized(t *testing.T) {
	// At n=10000 modelCCDF is exactly the paper's formula.
	if got, want := modelCCDF(1, 10000), 1-0.063; !approx(got, want) {
		t.Fatalf("ccdf(1, 10000) = %v, want %v", got, want)
	}
	// For other n it still starts near 1 and ends at 0.
	if got := modelCCDF(500, 500); !approx(got, 0) {
		t.Fatalf("ccdf(n, n) = %v, want 0", got)
	}
	if got := modelCCDF(1, 500); got < 0.8 {
		t.Fatalf("ccdf(1, 500) = %v, want near 1", got)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
