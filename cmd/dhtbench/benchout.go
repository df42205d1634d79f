package main

// The bench subcommand. With -out it is an in-process microbenchmark
// harness for the wire fast path: the pooled transport's round trip,
// batched cluster puts against sequential routed puts, batched article
// publish against per-mapping inserts, and batched against
// one-lookup-at-a-time automated search, merged as rows (ops/s, p50/p99
// latency, wire bytes and allocations per op) into a JSON report — the
// source of the committed BENCH_wire.json. The same scenarios exist as
// `go test -bench` benchmarks in internal/wire; this subcommand produces
// the report without the Go toolchain's test machinery. With -check it
// is the cheap regression gate over that report (benchcheck.go).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/soak"
	"dhtindex/internal/wire"
)

// benchResult is one scenario's row in the JSON report.
type benchResult struct {
	Name       string  `json:"name"`
	Ops        int     `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	BytesPerOp int64   `json:"bytes_per_op"`
	// AllocsPerOp is the process-wide heap allocation count per op
	// (runtime Mallocs delta / ops). Background goroutines contribute, so
	// it is an upper bound on the scenario's own allocations — the
	// bench -check regression gate compares it with tolerance.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchReport is the whole BENCH_wire.json document. Three writers share
// it — bench -out, load -bench and matrix -bench — each replacing only
// its own rows, ratios or matrix through updateBench.
type benchReport struct {
	GeneratedBy string             `json:"generated_by"`
	Seed        int64              `json:"seed"`
	Results     []benchResult      `json:"results"`
	Ratios      map[string]float64 `json:"ratios"`

	// SubstrateMatrix holds the cross-substrate churn-soak comparison
	// (hops, query percentiles, maintenance traffic, acked-write loss)
	// produced by the matrix subcommand; see matrixout.go.
	SubstrateMatrix []soak.SubstrateReport `json:"substrate_matrix,omitempty"`
}

// updateBench is the one read-modify-write of a bench report: it reads
// the report at path (a missing file starts empty), lets update replace
// its writer's part, and writes the result back with the rows in name
// order, so the writers compose in any order.
func updateBench(path string, update func(*benchReport)) error {
	var b benchReport
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &b)
	} else if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("bench report %s: %w", path, err)
	}
	b.GeneratedBy = "dhtbench"
	update(&b)
	slices.SortFunc(b.Results, func(x, y benchResult) int { return strings.Compare(x.Name, y.Name) })
	if err := writeJSON(path, b); err != nil {
		return fmt.Errorf("bench report %s: %w", path, err)
	}
	return nil
}

// replace swaps the rows and ratios own selects for fresh ones, keeping
// every other writer's.
func (b *benchReport) replace(own func(name string) bool, rows []benchResult, ratios map[string]float64) {
	b.Results = append(slices.DeleteFunc(b.Results, func(r benchResult) bool { return own(r.Name) }), rows...)
	if b.Ratios == nil {
		b.Ratios = make(map[string]float64)
	}
	maps.DeleteFunc(b.Ratios, func(name string, _ float64) bool { return own(name) })
	maps.Copy(b.Ratios, ratios)
}

// isLoad reports whether a row or ratio belongs to the load writer;
// every other one is the microbenchmarks'.
func isLoad(name string) bool { return strings.HasPrefix(name, "load") }

// setMicro replaces the microbenchmark rows and ratios.
func (b *benchReport) setMicro(seed int64, rows []benchResult, ratios map[string]float64) {
	b.Seed = seed
	b.replace(func(name string) bool { return !isLoad(name) }, rows, ratios)
}

// seqPublishNet hides the cluster's BatchNetwork extension so the index
// layer publishes over the sequential per-entry path.
type seqPublishNet struct{ overlay.Network }

func runBench(args []string, out io.Writer) error {
	fs := newFlagSet("bench", "run the wire fast-path microbenchmarks into a bench report (-out), or gate the pooled transport's bytes and allocations per op against one (-check)", out)
	var g gate // no registry, report or snapshot: only the verdict applies
	fs.Int64Var(&g.seed, "seed", 1, "seed of the -out scenarios' rings and corpora")
	outPath := fs.String("out", "", "run every scenario and, on a pass, merge the rows and ratios into this bench report (e.g. BENCH_wire.json)")
	check := fs.String("check", "", "re-measure the pooled transport's bytes/op and allocs/op and fail past tolerance against the committed bench report at this path")
	profile := fs.String("profile", "", "write cpu.pprof and heap.pprof covering the run to this directory (created if missing)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if (*outPath == "") == (*check == "") {
		return usagef(fs, "bench takes exactly one of -out and -check")
	}
	if *check != "" {
		if err := onlyWith(fs, "-out", "seed"); err != nil {
			return err
		}
	}
	if *profile != "" {
		stop, err := startProfiles(out, *profile)
		if err != nil {
			return err
		}
		defer stop()
	}
	var violations []string
	var err error
	if *check != "" {
		violations, err = benchCheck(out, *check)
	} else {
		violations, err = benchOut(out, *outPath, g.seed)
	}
	return g.finish(out, nil, violations, err)
}

// startProfiles begins a CPU profile in dir and returns a stop function
// that ends it and writes a heap profile next to it. The artifacts
// (cpu.pprof, heap.pprof) are what CI uploads for offline `go tool
// pprof` triage of bench regressions.
func startProfiles(out io.Writer, dir string) (func(), error) {
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
			fmt.Fprintln(out, "heap profile:", err)
			return
		}
		defer hf.Close()
		runtime.GC() // capture live objects, not garbage awaiting collection
		if err := pprof.Lookup("heap").WriteTo(hf, 0); err != nil {
			fmt.Fprintln(out, "heap profile:", err)
			return
		}
		fmt.Fprintf(out, "profiles written to %s and %s\n", cpuPath, heapPath)
	}, nil
}

// benchOut executes every wire fast-path scenario and, when the batched
// search sent fewer RPCs than the sequential one, merges the rows and
// ratios into the bench report at path.
func benchOut(out io.Writer, path string, seed int64) ([]string, error) {
	var rows []benchResult
	ratios := make(map[string]float64)
	add := func(r benchResult, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		rows = append(rows, r)
		fmt.Fprintf(out, "%-28s %8d ops  %12.0f ops/s  p50 %8.1fµs  p99 %8.1fµs  %7d B/op  %8.1f allocs/op\n",
			r.Name, r.Ops, r.OpsPerSec, r.P50Micros, r.P99Micros, r.BytesPerOp, r.AllocsPerOp)
		return nil
	}

	// Transport round-trips over one pooled connection.
	const callOps = 2000
	pooled, err := benchTransport(callOps)
	if err := add(pooled, err); err != nil {
		return nil, err
	}

	// Cluster puts: one 16-key batch vs 16 sequential routed puts.
	const putOps = 200
	batch, err := benchClusterPut(true, putOps, seed)
	if err := add(batch, err); err != nil {
		return nil, err
	}
	seqPut, err := benchClusterPut(false, putOps, seed)
	if err := add(seqPut, err); err != nil {
		return nil, err
	}
	ratios["put_batch_vs_sequential"] = ratio(batch, seqPut)

	// Article publish with the Complex scheme (1 data entry + 9 index
	// mappings): batched vs per-mapping inserts.
	const pubOps = 200
	pubBatch, err := benchPublish(true, pubOps, seed)
	if err := add(pubBatch, err); err != nil {
		return nil, err
	}
	pubSeq, err := benchPublish(false, pubOps, seed)
	if err := add(pubSeq, err); err != nil {
		return nil, err
	}
	ratios["publish_batch_vs_sequential"] = ratio(pubBatch, pubSeq)

	// Automated search over the index DAG: the frontier fetched one
	// lookup at a time (Parallelism 1) vs one owner-grouped GetBatch per
	// level (Parallelism 8). The sequential baseline runs first (a cold
	// process penalizes whichever arm goes first; the baseline should
	// absorb it). What the batched arm is for is fewer messages, and that
	// is what is asserted: the RPC counts are exact and repeat on any
	// host, while the timing ratio is reported, not gated.
	const searchOps = 300
	searchSeq, seqRPCs, err := benchSearchAll(1, searchOps, seed)
	if err := add(searchSeq, err); err != nil {
		return nil, err
	}
	searchPar, parRPCs, err := benchSearchAll(8, searchOps, seed)
	if err := add(searchPar, err); err != nil {
		return nil, err
	}
	ratios["search_parallel_vs_sequential"] = ratio(searchPar, searchSeq)
	ratios["search_rpcs_parallel_vs_sequential"] = parRPCs / seqRPCs
	fmt.Fprintf(out, "search_all client RPCs per search: sequential %.1f, parallel-8 %.1f\n", seqRPCs, parRPCs)
	for name, r := range ratios {
		fmt.Fprintf(out, "ratio %-36s %.2fx\n", name, r)
	}
	if parRPCs >= seqRPCs {
		return []string{fmt.Sprintf("batched search sends %.1f client RPCs per search, the sequential walk %.1f: grouping saved nothing",
			parRPCs, seqRPCs)}, nil
	}
	return nil, updateBench(path, func(b *benchReport) { b.setMicro(seed, rows, ratios) })
}

// ratio compares two scenarios by throughput (fast / slow baseline).
func ratio(fast, slow benchResult) float64 {
	if slow.OpsPerSec == 0 {
		return 0
	}
	return fast.OpsPerSec / slow.OpsPerSec
}

// summarize folds per-op latencies, a wire byte count and an allocation
// count into one row.
func summarize(name string, lats []time.Duration, bytes int64, allocs uint64) benchResult {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var total time.Duration
	for _, l := range lats {
		total += l
	}
	n := len(lats)
	pct := func(p float64) float64 {
		i := int(p * float64(n-1))
		return float64(lats[i].Nanoseconds()) / 1e3
	}
	return benchResult{
		Name:        name,
		Ops:         n,
		OpsPerSec:   float64(n) / total.Seconds(),
		P50Micros:   pct(0.50),
		P99Micros:   pct(0.99),
		BytesPerOp:  bytes / int64(n),
		AllocsPerOp: float64(allocs) / float64(n),
	}
}

// measure times n runs of fn and returns the per-op latencies, the
// transport bytes (sent + received) the runs moved, and the heap
// allocation count they cost (process-wide Mallocs delta).
func measure(tp *wire.TCPTransport, n int, fn func(i int) error) ([]time.Duration, int64, uint64, error) {
	before := tp.PoolStats()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, 0, 0, err
		}
		lats = append(lats, time.Since(start))
	}
	runtime.ReadMemStats(&msAfter)
	after := tp.PoolStats()
	moved := (after.BytesSent + after.BytesReceived) - (before.BytesSent + before.BytesReceived)
	return lats, moved, msAfter.Mallocs - msBefore.Mallocs, nil
}

// benchTransport measures one echo round-trip per op on loopback TCP.
func benchTransport(ops int) (benchResult, error) {
	const name = "transport_call/pooled"
	server := wire.NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", func(req wire.Message) wire.Message {
		return wire.Message{Op: req.Op, Ok: true, Addr: req.Addr}
	})
	if err != nil {
		return benchResult{Name: name}, err
	}
	defer closer.Close()
	client := wire.NewTCPTransport()
	req := wire.Message{Op: wire.OpPing, Addr: "bench"}
	if _, err := client.Call(addr, req); err != nil { // warm the pool
		return benchResult{Name: name}, err
	}
	lats, bytes, allocs, err := measure(client, ops, func(int) error {
		_, err := client.Call(addr, req)
		return err
	})
	if err != nil {
		return benchResult{Name: name}, err
	}
	return summarize(name, lats, bytes, allocs), nil
}

// clientCalls counts the RPCs a cluster issues. The transport under it is
// shared with the ring's nodes, whose own traffic does not count.
type clientCalls struct {
	*wire.TCPTransport
	n atomic.Int64
}

// Call implements wire.Transport.
func (c *clientCalls) Call(addr string, req wire.Message) (wire.Message, error) {
	c.n.Add(1)
	return c.TCPTransport.Call(addr, req)
}

// CallCtx keeps the deadline-aware call the cluster looks for.
func (c *clientCalls) CallCtx(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	c.n.Add(1)
	return c.TCPTransport.CallCtx(ctx, addr, req)
}

// benchOutRing boots a converged 4-node loopback ring for the cluster
// scenarios. The cluster calls through the returned counter.
func benchOutRing(seed int64) (*wire.Cluster, *clientCalls, func(), error) {
	tp := wire.NewTCPTransport()
	client := &clientCalls{TCPTransport: tp}
	cluster := wire.NewCluster(client, seed, 0)
	var stops []func()
	stop := func() {
		for _, s := range stops {
			s()
		}
	}
	var bootstrap string
	for i := 0; i < 4; i++ {
		n, err := wire.Start(wire.Config{
			Transport:         tp,
			Addr:              "127.0.0.1:0",
			StabilizeInterval: 20 * time.Millisecond,
		})
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		stops = append(stops, n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			stop()
			return nil, nil, nil, err
		}
		cluster.Track(n.Addr())
	}
	if err := cluster.WaitConverged(20 * time.Second); err != nil {
		stop()
		return nil, nil, nil, err
	}
	return cluster, client, stop, nil
}

// benchClusterPut stores 16 distinct keys per op, batched or one routed
// put at a time.
func benchClusterPut(batched bool, ops int, seed int64) (benchResult, error) {
	name := "cluster_put/sequential"
	if batched {
		name = "cluster_put/batch"
	}
	cluster, tp, stop, err := benchOutRing(seed)
	if err != nil {
		return benchResult{Name: name}, err
	}
	defer stop()
	items := func(round int) []overlay.KeyEntry {
		out := make([]overlay.KeyEntry, 16)
		for i := range out {
			out[i] = overlay.KeyEntry{
				Key:   keyspace.NewKey(fmt.Sprintf("bench-%s-%d-%d", name, round, i)),
				Entry: overlay.Entry{Kind: "index", Value: fmt.Sprintf("v-%d-%d", round, i)},
			}
		}
		return out
	}
	lats, bytes, allocs, err := measure(tp.TCPTransport, ops, func(i int) error {
		if batched {
			return cluster.PutBatch(context.Background(), items(i))
		}
		for _, it := range items(i) {
			if _, err := cluster.Put(it.Key, it.Entry); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return benchResult{Name: name}, err
	}
	return summarize(name, lats, bytes, allocs), nil
}

// benchPublish publishes one article per op with the Complex scheme.
func benchPublish(batched bool, ops int, seed int64) (benchResult, error) {
	name := "publish/sequential"
	if batched {
		name = "publish/batch"
	}
	corpus, err := dataset.Generate(dataset.Config{Articles: 64, Seed: seed})
	if err != nil {
		return benchResult{Name: name}, err
	}
	cluster, tp, stop, err := benchOutRing(seed)
	if err != nil {
		return benchResult{Name: name}, err
	}
	defer stop()
	var net overlay.Network = cluster
	if !batched {
		net = seqPublishNet{cluster}
	}
	svc := index.New(net, cache.None, 0)
	lats, bytes, allocs, err := measure(tp.TCPTransport, ops, func(i int) error {
		a := corpus.Articles[i%len(corpus.Articles)]
		return svc.PublishArticle(fmt.Sprintf("bench-%s-%d.pdf", name, i), a, index.Complex)
	})
	if err != nil {
		return benchResult{Name: name}, err
	}
	return summarize(name, lats, bytes, allocs), nil
}

// benchSearchAll explores a published corpus's index DAG per op. Beside
// the row it returns the client RPCs one search costs — an exact count.
func benchSearchAll(parallelism, ops int, seed int64) (benchResult, float64, error) {
	name := fmt.Sprintf("search_all/parallel-%d", parallelism)
	if parallelism <= 1 {
		name = "search_all/sequential"
	}
	corpus, err := dataset.Generate(dataset.Config{Articles: 48, Seed: seed})
	if err != nil {
		return benchResult{Name: name}, 0, err
	}
	cluster, tp, stop, err := benchOutRing(seed)
	if err != nil {
		return benchResult{Name: name}, 0, err
	}
	defer stop()
	svc := index.New(cluster, cache.None, 0)
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("s-%d.pdf", i), a, index.Complex); err != nil {
			return benchResult{Name: name}, 0, err
		}
	}
	searcher := index.NewSearcher(svc)
	searcher.Parallelism = parallelism
	query := dataset.ConfQuery(corpus.Articles[0].Conf)
	if _, _, err := searcher.SearchAll(query); err != nil { // warm up
		return benchResult{Name: name}, 0, err
	}
	before := tp.n.Load()
	lats, bytes, allocs, err := measure(tp.TCPTransport, ops, func(int) error {
		results, _, err := searcher.SearchAll(query)
		if err == nil && len(results) == 0 {
			err = fmt.Errorf("search returned nothing")
		}
		return err
	})
	if err != nil {
		return benchResult{Name: name}, 0, err
	}
	return summarize(name, lats, bytes, allocs), float64(tp.n.Load()-before) / float64(ops), nil
}
