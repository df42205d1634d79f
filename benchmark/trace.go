package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dhtindex/internal/wire"
)

// A traced run is two single-client passes over the same operation
// stream — decorators off, then on, each on a fresh set-up — followed by
// the stand-alone probes. One client, so that at most one client
// operation is in progress and every non-maintenance span belongs to it.
// The first pass gives the process.* rows and the untraced median the
// tracing overhead is measured against; the second gives every T and S
// row.
const (
	untracedShare = 0.25 // of -seconds
	tracedShare   = 0.5
)

// pass runs the client alone and returns its log and wall time.
func pass(e env, c client) (clientLog, time.Duration) {
	var log clientLog
	start := time.Now()
	for n := 0; n < c.count; n++ {
		c.step(&log)
	}
	e.endWindow(&log)
	return log, time.Since(start)
}

func runTraced(w *workloadDef, rc runConfig, traceOut string) (result, error) {
	res := result{workload: w, defs: perLayer, metrics: values{}}
	v := res.metrics
	for _, d := range perLayer {
		v[d.name] = 0
	}

	// Pass 1: decorators off.
	e, err := w.setup(rc, nil)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	bare, _ := pass(e, e.tracedClient(untracedShare*rc.seconds))
	cpu = cpuTime() - cpu
	runtime.ReadMemStats(&after)
	ops := float64(bare.ops())
	v["process.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), ops)
	v["process.alloc_bytes_per_op"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), ops)
	v["process.gc_cycles"] = float64(after.NumGC - before.NumGC)
	v["process.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	v["process.cpu_s_per_kop"] = ratio(cpu.Seconds(), ops/1000)
	v["process.goroutines"] = float64(runtime.NumGoroutine())
	e.close()
	res.attempted, res.failed = bare.ops(), bare.failed

	// Pass 2: decorators on.
	tr := newTracer()
	if e, err = w.setup(rc, tr); err != nil {
		return res, fmt.Errorf("traced set-up: %w", err)
	}
	r := e.ring()
	stopSampler := sampleAdmission(r, v)
	pool, adm := r.poolStats(), r.admissionStats()
	retry, breaker := r.retryStats()
	cluster := r.cluster.Metrics()
	walBytes, userBytes := r.walBytes(), r.traced.userBytes.Load()
	from := tr.now()
	log, elapsed := pass(e, e.tracedClient(tracedShare*rc.seconds))
	to := tr.now()
	stopSampler()
	ops = float64(log.ops())

	pool2, adm2 := r.poolStats(), r.admissionStats()
	retry2, breaker2 := r.retryStats()
	cluster2 := r.cluster.Metrics()
	v["wire.cluster.failover_reads"] = float64(cluster2.FailoverReads - cluster.FailoverReads)
	v["wire.cluster.hedged_gets"] = float64(cluster2.HedgedGets - cluster.HedgedGets)
	v["wire.retry.retries_per_kop"] = ratio(float64(retry2.Retries-retry.Retries), ops/1000)
	v["wire.retry.gave_up"] = float64(retry2.GaveUp - retry.GaveUp)
	v["wire.retry.overloads"] = float64(retry2.Overloads - retry.Overloads)
	v["wire.retry.breaker_opens"] = float64(breaker2.Trips - breaker.Trips)
	v["wire.transport.dials"] = float64(pool2.Dials - pool.Dials)
	v["wire.transport.reuse_ratio"] = ratio(float64(pool2.Reuses-pool.Reuses), float64(pool2.Reuses-pool.Reuses+pool2.Dials-pool.Dials))
	v["wire.transport.conns_open"] = float64(pool2.Conns)
	v["wire.admission.waited_ratio"] = ratio(float64(adm2.Waited-adm.Waited), float64(adm2.Admitted-adm.Admitted))
	v["wire.admission.shed"] = float64(adm2.Shed() - adm.Shed())
	v["wire.store.keys"] = float64(r.keyCount())
	v["wire.durable.wal_bytes_per_user_byte"] = ratio(float64(r.walBytes()-walBytes), float64(r.traced.userBytes.Load()-userBytes))
	v["index.generalization_probes_per_find"] = ratio(float64(log.genProbes), float64(log.finds))
	v["cache.first_node_hit_ratio"] = ratio(float64(log.firstNodeHits), float64(log.finds))
	v["trace.overhead_ratio"] = ratio(usPercentile(log.primary, 50), usPercentile(bare.primary, 50))

	// An idle ring still stabilizes, fixes fingers and repairs.
	time.Sleep(rc.sz.idle)
	v["wire.transport.maintenance_bytes_per_s"] = float64(r.poolStats().BytesSent-pool2.BytesSent) / rc.sz.idle.Seconds()

	e.check(&log)
	e.layerValues(v, &log)
	res.attempted += log.ops() + log.checks
	res.failed += log.failed

	// Nothing else may run beside the analysis and the probes.
	e.close()
	tt := analyze(tr.take())
	spanValues(tt, from, to, w.primary, float64(pool2.BytesSent-pool.BytesSent), elapsed, v)
	if traceOut != "" {
		if err := writeSpans(traceOut, tt.spans); err != nil {
			return res, err
		}
	}

	probes, err := runProbes(rc)
	if err != nil {
		return res, fmt.Errorf("probes: %w", err)
	}
	for name, val := range probes {
		v[name] = val
	}
	return res, nil
}

// sampleAdmission polls the nodes' admission queue depth, which the
// program reports only as a point-in-time value, and stores the maximum
// seen when stopped.
func sampleAdmission(r *ring, v values) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	maxDepth := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if d := r.admissionStats().QueueDepth; d > maxDepth {
					maxDepth = d
				}
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		v["wire.admission.max_queue_depth"] = float64(maxDepth)
	}
}

// spanValues derives the T rows from the spans that lie inside the
// traced pass [from, to].
func spanValues(tt *traceTree, from, to int64, primary opName, wireBytes float64, elapsed time.Duration, v values) {
	rootName := map[int32]opName{}
	for i := range tt.spans {
		if s := &tt.spans[i]; s.layer == layerIndex {
			rootName[s.id] = s.name
		}
	}
	durs := map[string][]int64{}   // span durations by metric stem
	sums := map[string]float64{}   // running sums by metric stem
	counts := map[string]float64{} // and their denominators
	mean := func(stem string, x float64) { sums[stem] += x; counts[stem]++ }
	var selfByLayer [numLayers]float64
	calls, maintenance := 0.0, 0.0
	for i := range tt.spans {
		s := &tt.spans[i]
		if s.start < from || s.end > to {
			continue
		}
		idx := int32(i)
		if s.layer == layerTransport {
			calls++
		}
		if s.root == 0 {
			if s.layer == layerHandler {
				maintenance++
			}
			continue
		}
		owner := rootName[s.root]
		if owner == primary {
			selfByLayer[s.layer] += float64(tt.self(idx))
		}
		switch s.layer {
		case layerIndex:
			durs["index."+s.label()] = append(durs["index."+s.label()], s.dur())
			durs["index."+s.label()+"_self"] = append(durs["index."+s.label()+"_self"], tt.self(idx))
			lookups, items := 0, 0
			for _, k := range tt.kids[idx] {
				switch c := &tt.spans[k]; c.name {
				case opGet:
					lookups++
				case opPutBatch:
					items += int(c.n)
				}
			}
			mean("lookups."+s.label(), float64(lookups))
			mean("items."+s.label(), float64(items))
			mean("store."+s.label(), 0) // denominators of the per-root store counts
		case layerCluster:
			stem := "wire.cluster." + s.label()
			durs[stem] = append(durs[stem], s.dur())
			durs[stem+"_self"] = append(durs[stem+"_self"], tt.self(idx))
			mean("rpcs."+s.label(), float64(tt.countKids(idx, layerTransport)))
			mean("hops."+s.label(), float64(s.n))
		case layerTransport:
			if s.node != 0 {
				continue // a node's forwarding or replication call
			}
			durs["wire.transport.call"] = append(durs["wire.transport.call"], s.dur())
			for _, k := range tt.kids[idx] {
				if c := &tt.spans[k]; c.layer == layerHandler {
					durs["wire.transport.net"] = append(durs["wire.transport.net"], s.dur()-c.dur())
					break
				}
			}
		case layerHandler:
			stem := "wire.handler." + s.label()
			durs[stem] = append(durs[stem], s.dur())
		case layerStore:
			stem := "wire.store." + s.label()
			durs[stem] = append(durs[stem], s.dur())
			sums["store."+opNames[owner]]++
			if s.name == opGet {
				mean("entries.get", float64(s.n))
			}
		}
	}
	p50 := func(stem string) float64 { return usPercentile(durs[stem], 50) }
	avg := func(stem string) float64 { return ratio(sums[stem], counts[stem]) }
	v["index.find_self_us"] = p50("index.find_self")
	v["index.search_all_self_us"] = p50("index.search_all_self")
	v["index.publish_self_us"] = p50("index.publish_self")
	v["index.unpublish_us"] = p50("index.unpublish")
	v["index.publish_p99_us"] = usPercentile(durs["index.publish"], 99)
	v["index.lookups_per_find"] = avg("lookups.find")
	v["index.lookups_per_search_all"] = avg("lookups.search_all")
	v["index.items_per_publish"] = avg("items.publish")
	v["wire.cluster.get_us"] = p50("wire.cluster.get")
	v["wire.cluster.get_self_us"] = p50("wire.cluster.get_self")
	v["wire.cluster.put_batch_us"] = p50("wire.cluster.put_batch")
	v["wire.cluster.remove_us"] = p50("wire.cluster.remove")
	v["wire.cluster.rpcs_per_get"] = avg("rpcs.get")
	v["wire.cluster.rpcs_per_put_batch"] = avg("rpcs.put_batch")
	v["wire.cluster.hops_per_get"] = avg("hops.get")
	v["wire.transport.call_us"] = p50("wire.transport.call")
	v["wire.transport.call_p99_us"] = usPercentile(durs["wire.transport.call"], 99)
	v["wire.transport.net_us"] = p50("wire.transport.net")
	v["wire.transport.bytes_per_rpc"] = ratio(wireBytes, calls)
	v["wire.handler.get_us"] = p50("wire.handler." + wire.OpGet.String())
	v["wire.handler.find_successor_us"] = p50("wire.handler." + wire.OpFindSuccessor.String())
	v["wire.handler.put_batch_us"] = p50("wire.handler." + wire.OpPutBatch.String())
	v["wire.handler.remove_us"] = p50("wire.handler." + wire.OpRemove.String())
	v["wire.handler.maintenance_rpcs_per_s"] = maintenance / elapsed.Seconds()
	v["wire.store.get_us"] = p50("wire.store.get")
	v["wire.store.put_us"] = p50("wire.store.put")
	v["wire.store.remove_us"] = p50("wire.store.remove")
	v["wire.store.ops_per_find"] = avg("store.find")
	v["wire.store.ops_per_publish"] = avg("store.publish")
	v["wire.store.entries_per_get"] = avg("entries.get")
	total := 0.0
	for _, self := range selfByLayer {
		total += self
	}
	for l, self := range selfByLayer {
		v["trace.share."+layerNames[l]] = ratio(self, total)
	}
}
