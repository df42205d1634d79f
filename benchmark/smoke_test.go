package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetricDef `json:"end_to_end"`
	PerLayer []jsonMetricDef `json:"per_layer"`
}

type jsonMetricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// in step, and both inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads a driver runs and gates on, in the
	// package's order: all but ungated.
	const ungated = "mixed_ingest"
	listed := map[string]bool{}
	next := 0
	for _, bw := range b.Workloads {
		listed[bw.Name] = true
		for next < len(workloads) && workloads[next].name != bw.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("BENCHMARK.json workload %q is not a workload of the package, or out of order", bw.Name)
		}
		if w := workloads[next]; bw.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the package %q", w.name, bw.Why, w.why)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or why of %d characters", w.name, len(w.why))
		}
		if listed[w.name] == (w.name == ungated) {
			t.Errorf("workload %s: listed in BENCHMARK.json = %v, ungated = %q", w.name, listed[w.name], ungated)
		}
	}
	seen := map[string]bool{}
	same := func(kind string, got []jsonMetricDef, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, package %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the package", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("%s %s: better = %q", kind, d.name, d.better)
			}
			seen[d.name] = true
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}

func toyConfig(t *testing.T) runConfig {
	return runConfig{seed: 7, seconds: 0.4, sz: toySizes, tmpRoot: t.TempDir()}
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that no operation fails and every declared metric is reported.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rc := toyConfig(t)
			for _, traced := range []bool{false, true} {
				var res result
				var err error
				if traced {
					res, err = runTraced(w, rc, "")
				} else {
					res, err = runEndToEnd(w, rc)
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("traced=%v: %d of %d operations failed", traced, res.failed, res.attempted)
				}
				for _, d := range res.defs {
					v, ok := res.metrics[d.name]
					if !ok {
						t.Errorf("traced=%v: %s not reported", traced, d.name)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
					}
				}
				if len(res.metrics) != len(res.defs) {
					t.Errorf("traced=%v: %d metrics reported, %d declared", traced, len(res.metrics), len(res.defs))
				}
			}
		})
	}
}

// TestSameSeedSameInputs checks that a seed fixes the inputs: the same
// operation stream, and — on MemTransport, where node addresses repeat —
// the same warm-up interactions and cache hits.
func TestSameSeedSameInputs(t *testing.T) {
	type fingerprint struct {
		stream             uint64
		finds, inter, hits int64
	}
	take := func(seed int64) fingerprint {
		rc := toyConfig(t)
		rc.seed = seed
		made, err := setupQueryCachedMem(rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer made.close()
		e := made.(*queryEnv)
		h := fnv.New64a()
		gen := e.generator(0)
		for i := 0; i < 500; i++ {
			q := gen.Next()
			h.Write([]byte(q.Query.String()))
			h.Write([]byte(e.files[q.Rank]))
		}
		return fingerprint{stream: h.Sum64(), finds: e.warmFinds, inter: e.warmInteractions, hits: e.warmHits}
	}
	a, b, c := take(7), take(7), take(8)
	if a != b {
		t.Errorf("same seed, different inputs: %+v and %+v", a, b)
	}
	if a.stream == c.stream {
		t.Errorf("seeds 7 and 8 give the same operation stream")
	}
	if a.finds == 0 || a.inter < a.finds {
		t.Errorf("warm-up did not run: %+v", a)
	}
}
