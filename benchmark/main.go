// Command benchmark is the repository's benchmark: four workloads that
// drive the live index path (xpath → index.Searcher → cache → wire.Cluster
// → retry → transport → admission → handler → store → WAL) end to end,
// and a traced pass that splits the same path layer by layer. README.md
// in this directory documents the workloads and every metric;
// BENCHMARK.json at the repository root is the contract a driver runs it
// by:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: one of the four workloads, all, or probes")
		seed     = flag.Int64("seed", 1, "seed of the operation streams (the corpus is fixed)")
		seconds  = flag.Float64("seconds", 26, "nominal measuring time of a run: each of its 3 windows is the workload's frozen rates times seconds/3 operations")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the resolved spans to this file as JSON")
		aa       = flag.Bool("aa", false, "run the selected workloads twice and compare the end-to-end medians against their bounds")
		spinFor  = flag.Int("spin", 0, "internal: be a spinner for the parent with this process id")
	)
	flag.Parse()
	if *spinFor != 0 {
		spin(*spinFor)
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	tmpRoot, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	stopSpinners, err := keepAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: keep-awake:", err)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, sz: fullSizes, tmpRoot: tmpRoot}
	code := run(rc, *name, *traced == 1, *traceOut, *aa)
	stopSpinners()
	os.RemoveAll(tmpRoot)
	os.Exit(code)
}

// scratchDir makes this process's temporary directory under the
// checkout's build directory, so nothing is written outside the checkout.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func run(rc runConfig, name string, traced bool, traceOut string, aa bool) int {
	if name == "probes" {
		v, err := runProbes(rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: probes:", err)
			return 1
		}
		printValues(v, perLayer, nil)
		return 0
	}
	selected := workloads
	if name != "all" {
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		selected = []workloadDef{*w}
	}
	code := 0
	for i := range selected {
		w := &selected[i]
		var res result
		var err error
		switch {
		case aa:
			res, err = runAA(w, rc)
		case traced:
			res, err = runTraced(w, rc, traceOut)
		default:
			res, err = runEndToEnd(w, rc)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !aa {
			res.print()
		}
		if res.failed > 0 {
			code = 1
		}
	}
	return code
}

// result is one run's verdict and metrics.
type result struct {
	workload  *workloadDef
	defs      []metricDef
	metrics   values
	samples   map[string][]float64 // per-window (or per-set-up) values behind a median
	attempted int
	failed    int
}

// print writes every metric by name with its unit, then the JSON line.
func (r result) print() {
	fmt.Printf("workload %s: attempted %d, failed %d\n  op   = %s\n  side = %s\n",
		r.workload.name, r.attempted, r.failed, r.workload.op, r.workload.side)
	printValues(r.metrics, r.defs, r.samples)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs {
		out.Metrics[d.name] = jsonMetric{Value: r.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}

func printValues(v values, defs []metricDef, samples map[string][]float64) {
	for _, d := range defs {
		val, ok := v[d.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-42s %14.4f %-6s", d.name, val, d.unit)
		if s := samples[d.name]; len(s) > 0 {
			fmt.Printf(" %.4g", s)
		}
		fmt.Println()
	}
}

// runWindow runs the clients as one closed-loop window, each for its fixed
// number of operations, and then the workload's end-of-window hook. It
// returns the clients' merged log, the time until the last client that
// issued primary operations was done, and the window's whole wall time.
func runWindow(e env, clients []client) (total clientLog, primary, elapsed time.Duration) {
	logs := make([]clientLog, len(clients))
	done := make([]time.Duration, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < c.count; n++ {
				c.step(&logs[i])
			}
			done[i] = time.Since(start)
		}()
	}
	wg.Wait()
	e.endWindow(&total)
	elapsed = time.Since(start)
	for i := range logs {
		if len(logs[i].primary) > 0 && done[i] > primary {
			primary = done[i]
		}
		total.merge(&logs[i])
	}
	return total, primary, elapsed
}

// runEndToEnd runs the workload's rounds with every decorator off. A
// round is a fresh set-up (timed: setup_s), a short untimed warm-up by
// the window's own clients, one timed window and the output checks. Each
// metric is the median of the rounds' values, so a round that met one of
// the host's slow spells (they last from seconds to minutes) does not
// move the run; setup_s needs the set-ups anyway, and a window on each
// costs no more than the same windows on the last.
func runEndToEnd(w *workloadDef, rc runConfig) (result, error) {
	res := result{workload: w, defs: endToEnd, metrics: values{}, samples: map[string][]float64{}}
	add := func(name string, v float64) { res.samples[name] = append(res.samples[name], v) }
	var primaryNs []int64 // primary-operation latencies of all rounds' windows
	for k := 0; k < rc.sz.rounds; k++ {
		round := rc
		round.seed = rc.seed*1_000_003 + int64(k)*1009 // streams of a round are seed+0..999
		start := time.Now()
		e, err := w.setup(round, nil)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		add("setup_s", time.Since(start).Seconds())
		clients := e.clients(rc.seconds / float64(rc.sz.rounds))
		warm := make([]client, len(clients))
		for i, c := range clients {
			warm[i] = client{step: c.step, count: max(1, c.count/warmShare)}
		}
		log, _, _ := runWindow(e, warm)
		failed := log.failed

		r := e.ring()
		calls, sent := r.clientRetry.Stats().Calls, r.poolStats().BytesSent
		log, primary, elapsed := runWindow(e, clients)
		ops := float64(log.ops())
		add("ops_per_s", float64(len(log.primary))/primary.Seconds())
		add("side_ops_per_s", float64(len(log.side))/elapsed.Seconds())
		add("side_mean_us", meanUs(log.side))
		add("op_p50_us", usPercentile(log.primary, 50))
		add("op_p99_us", usPercentile(log.primary, 99))
		primaryNs = append(primaryNs, log.primary...)
		add("interactions_per_find", orFloor(ratio(float64(log.interactions), float64(log.finds))))
		add("cache_hit_ratio", orFloor(ratio(float64(log.cacheHits), float64(log.finds))))
		add("rpcs_per_op", ratio(float64(r.clientRetry.Stats().Calls-calls), ops))
		add("wire_bytes_per_op", orFloor(ratio(float64(r.poolStats().BytesSent-sent), ops)))
		add("disk_bytes_per_doc", orFloor(e.diskBytesPerDoc()))
		add("live_heap_mb", liveHeapMB())
		e.check(&log)
		e.close()
		res.attempted += log.ops() + log.checks
		res.failed += failed + log.failed
	}
	for name, s := range res.samples {
		res.metrics[name] = median(s)
	}
	// The latency percentiles are taken over the rounds' samples together:
	// what lies beyond a 99th percentile is rare events (a snapshot, a
	// repair round, a scheduler slice), and one round of publish_durable
	// holds some thirty of them.
	res.metrics["op_p50_us"] = usPercentile(primaryNs, 50)
	res.metrics["op_p99_us"] = usPercentile(primaryNs, 99)
	return res, nil
}

// warmShare is the part of a window's operations that the same clients
// run untimed before it: the first second of two clients on a fresh ring
// dials the pool's connections and grows the heap to its working size.
const warmShare = 10

// liveHeapMB returns the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // twice: sync.Pool contents survive one collection
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runAA runs the workload's end-to-end run twice back to back and prints,
// per metric, both medians, their relative difference in the worse
// direction and the bound. A difference beyond the bound, or a failed
// operation, fails the comparison.
func runAA(w *workloadDef, rc runConfig) (result, error) {
	first, err := runEndToEnd(w, rc)
	if err != nil {
		return first, err
	}
	second, err := runEndToEnd(w, rc)
	if err != nil {
		return second, err
	}
	fmt.Printf("A/A %s: failed %d and %d\n", w.name, first.failed, second.failed)
	second.failed += first.failed
	for _, d := range endToEnd {
		a, b := first.metrics[d.name], second.metrics[d.name]
		worse := ratio(b-a, a)
		if d.better == "higher" {
			worse = ratio(a-b, a)
		}
		verdict := "ok"
		if worse > d.bound {
			verdict = "OUT OF BOUND"
			second.failed++
		}
		fmt.Printf("  %-16s %14.4f %14.4f %-6s worse by %+7.2f%%  bound %4.0f%%  %s\n",
			d.name, a, b, d.unit, 100*worse, 100*d.bound, verdict)
	}
	return second, nil
}
