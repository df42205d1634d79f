package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// tables; smoke_test.go holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the index sees, on every workload. "op" is
// the workload's primary operation and "side" its second operation class
// (see the workload table in workloads.go).
//
// The bounds come from the measured spread between runs of one commit on
// the host class the benchmark was written on (2 shared virtual CPUs; see
// README.md for the figures). The pure counts repeat within 0.1–1.5 %,
// because a window is a fixed number of operations, and carry 5–10 %.
// The sizes (wire bytes, disk bytes, heap) include what the nodes'
// maintenance sends, writes and holds, which grows with a run's length
// in time: they repeat within 0.2–5 % on a quiet host and within 6–10 %
// across one of the host's slow spells, and carry 15–20 %. The timings
// move by 2–12 % between runs on a quiet host and by 20–30 % across a slow
// spell — minutes in which everything runs a quarter slower, which longer
// windows do not average out — so they carry the widest bound a benchmark
// may state; a tighter one would reject the commit it was measured on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"side_ops_per_s", "1/s", "higher", 0.25},
	{"side_mean_us", "us", "lower", 0.25},
	{"interactions_per_find", "count", "lower", 0.05},
	{"cache_hit_ratio", "ratio", "higher", 0.05},
	{"rpcs_per_op", "count", "lower", 0.1},
	{"wire_bytes_per_op", "B", "lower", 0.2},
	{"disk_bytes_per_doc", "B", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.2},
}

// notApplicable is what a count or byte metric reads on a workload where
// the thing it counts does not happen — finds on publish_durable, cache
// hits without a cache, wire bytes on MemTransport, data directories on
// in-memory stores. Every workload must report every end-to-end metric
// and none may be 0, so these read a constant no measurement can produce.
const notApplicable = 0.001

func orFloor(v float64) float64 {
	if v == 0 {
		return notApplicable
	}
	return v
}

// perLayer lists the per-layer metrics of a traced run, layer by layer.
// Source T is the traced pass, S a public stats snapshot of the program,
// P a stand-alone probe of public functions (probes.go). A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// xpath (P)
	{name: "xpath.parse_us", unit: "us", better: "lower"},
	{name: "xpath.covers_us", unit: "us", better: "lower"},
	{name: "xpath.msd_key_us", unit: "us", better: "lower"},
	// index (T; interactions and probes from Searcher traces)
	{name: "index.find_self_us", unit: "us", better: "lower"},
	{name: "index.search_all_self_us", unit: "us", better: "lower"},
	{name: "index.publish_self_us", unit: "us", better: "lower"},
	{name: "index.unpublish_us", unit: "us", better: "lower"},
	{name: "index.publish_p99_us", unit: "us", better: "lower"},
	{name: "index.lookups_per_find", unit: "count", better: "lower"},
	{name: "index.lookups_per_search_all", unit: "count", better: "lower"},
	{name: "index.items_per_publish", unit: "count", better: "lower"},
	{name: "index.generalization_probes_per_find", unit: "count", better: "lower"},
	// cache (T/S/P)
	{name: "cache.first_node_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.full_fraction", unit: "ratio", better: "higher"},
	{name: "cache.mean_keys", unit: "count", better: "higher"},
	{name: "cache.store_op_us", unit: "us", better: "lower"},
	// wire.cluster (T/S)
	{name: "wire.cluster.get_us", unit: "us", better: "lower"},
	{name: "wire.cluster.get_self_us", unit: "us", better: "lower"},
	{name: "wire.cluster.put_batch_us", unit: "us", better: "lower"},
	{name: "wire.cluster.remove_us", unit: "us", better: "lower"},
	{name: "wire.cluster.rpcs_per_get", unit: "count", better: "lower"},
	{name: "wire.cluster.rpcs_per_put_batch", unit: "count", better: "lower"},
	{name: "wire.cluster.hops_per_get", unit: "count", better: "lower"},
	{name: "wire.cluster.failover_reads", unit: "count", better: "lower"},
	{name: "wire.cluster.hedged_gets", unit: "count", better: "lower"},
	// wire.retry (S/P)
	{name: "wire.retry.retries_per_kop", unit: "count", better: "lower"},
	{name: "wire.retry.gave_up", unit: "count", better: "lower"},
	{name: "wire.retry.overloads", unit: "count", better: "lower"},
	{name: "wire.retry.breaker_opens", unit: "count", better: "lower"},
	{name: "wire.retry.overhead_us", unit: "us", better: "lower"},
	// wire.transport (T/S/P)
	{name: "wire.transport.call_us", unit: "us", better: "lower"},
	{name: "wire.transport.call_p99_us", unit: "us", better: "lower"},
	{name: "wire.transport.net_us", unit: "us", better: "lower"},
	{name: "wire.transport.bytes_per_rpc", unit: "B", better: "lower"},
	{name: "wire.transport.dials", unit: "count", better: "lower"},
	{name: "wire.transport.reuse_ratio", unit: "ratio", better: "higher"},
	{name: "wire.transport.conns_open", unit: "count", better: "lower"},
	{name: "wire.transport.maintenance_bytes_per_s", unit: "B/s", better: "lower"},
	{name: "wire.transport.echo_small_us", unit: "us", better: "lower"},
	{name: "wire.transport.echo_large_us", unit: "us", better: "lower"},
	{name: "wire.transport.echo_small_bytes", unit: "B", better: "lower"},
	{name: "wire.transport.echo_large_bytes", unit: "B", better: "lower"},
	{name: "wire.transport.echo_small_allocs", unit: "count", better: "lower"},
	{name: "wire.transport.echo_large_allocs", unit: "count", better: "lower"},
	// wire.admission (S)
	{name: "wire.admission.waited_ratio", unit: "ratio", better: "lower"},
	{name: "wire.admission.shed", unit: "count", better: "lower"},
	{name: "wire.admission.max_queue_depth", unit: "count", better: "lower"},
	// wire.handler (T)
	{name: "wire.handler.get_us", unit: "us", better: "lower"},
	{name: "wire.handler.find_successor_us", unit: "us", better: "lower"},
	{name: "wire.handler.put_batch_us", unit: "us", better: "lower"},
	{name: "wire.handler.remove_us", unit: "us", better: "lower"},
	{name: "wire.handler.maintenance_rpcs_per_s", unit: "1/s", better: "lower"},
	// wire.store (T/P)
	{name: "wire.store.get_us", unit: "us", better: "lower"},
	{name: "wire.store.put_us", unit: "us", better: "lower"},
	{name: "wire.store.remove_us", unit: "us", better: "lower"},
	{name: "wire.store.ops_per_find", unit: "count", better: "lower"},
	{name: "wire.store.ops_per_publish", unit: "count", better: "lower"},
	{name: "wire.store.entries_per_get", unit: "count", better: "lower"},
	{name: "wire.store.keys", unit: "count", better: "lower"},
	{name: "wire.store.sharded_get_ns", unit: "ns", better: "lower"},
	{name: "wire.store.sharded_put_ns", unit: "ns", better: "lower"},
	// wire.durable (P/S)
	{name: "wire.durable.put_us", unit: "us", better: "lower"},
	{name: "wire.durable.put_fsync_us", unit: "us", better: "lower"},
	{name: "wire.durable.snapshot_pause_ms", unit: "ms", better: "lower"},
	{name: "wire.durable.reopen_ms", unit: "ms", better: "lower"},
	{name: "wire.durable.wal_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wire.durable.replayed_records", unit: "count", better: "lower"},
	// ingest (T/S)
	{name: "ingest.enqueue_us", unit: "us", better: "lower"},
	{name: "ingest.spool_bytes_per_doc", unit: "B", better: "lower"},
	{name: "ingest.retries", unit: "count", better: "lower"},
	{name: "ingest.overload_backoffs", unit: "count", better: "lower"},
	{name: "ingest.dead_letters", unit: "count", better: "lower"},
	{name: "ingest.max_queue_depth", unit: "count", better: "lower"},
	// process (S, untraced single-client pass)
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.cpu_s_per_kop", unit: "s", better: "lower"},
	{name: "process.goroutines", unit: "count", better: "lower"},
	// trace (T)
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.share.index", unit: "ratio", better: "lower"},
	{name: "trace.share.wire.cluster", unit: "ratio", better: "lower"},
	{name: "trace.share.wire.transport", unit: "ratio", better: "lower"},
	{name: "trace.share.wire.handler", unit: "ratio", better: "lower"},
	{name: "trace.share.wire.store", unit: "ratio", better: "lower"},
}

// values maps a metric name to its measured value.
type values map[string]float64

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 for an empty sample.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank])
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// usPercentile sorts a sample of nanosecond latencies and returns its
// p-th percentile in microseconds.
func usPercentile(ns []int64, p float64) float64 {
	sortInt64(ns)
	return percentile(ns, p) / 1e3
}

// meanUs returns the mean of a sample of nanosecond latencies in
// microseconds.
func meanUs(ns []int64) float64 {
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return ratio(sum, float64(len(ns))) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
