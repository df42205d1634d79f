package soak

// The open-loop overload harness: unlike the churn soak (which measures
// survival under faults at the workload's natural pace), RunLoad drives
// the ring at a wall-clock arrival rate that does NOT slow down when the
// ring does — the open-loop discipline that actually reveals overload
// collapse. A closed-loop driver (issue, wait, issue) self-throttles
// exactly when the system degrades and reports flattering latency; an
// open-loop driver keeps arriving at rate λ and exposes whether the
// admission layer sheds cleanly or the queues collapse.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/workload"
)

// LoadConfig parameterizes an open-loop overload run: a small ring whose
// per-node service time is inflated to a controlled value, driven first
// at a rated arrival rate and then at a multiple of it with a flash
// crowd concentrated on the most popular article. The ring, the rates,
// the traffic mix and the SLO thresholds are the constants below.
type LoadConfig struct {
	// Seed drives corpus generation, the query stream and the write coin.
	Seed int64
	// RatedDuration / OverloadDuration are the phase lengths
	// (default 3s each).
	RatedDuration    time.Duration
	OverloadDuration time.Duration
	// Telemetry, when non-nil, receives every layer's metrics including
	// the admission controllers' shed counters and load gauges.
	Telemetry *telemetry.Registry
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.RatedDuration == 0 {
		c.RatedDuration = 3 * time.Second
	}
	if c.OverloadDuration == 0 {
		c.OverloadDuration = 3 * time.Second
	}
	return c
}

// The load run's fixed shape. These were configuration once; no test,
// command or example sets them, so each is a constant — at its former
// default, except overloadFactor.
const (
	// ratedRPS is the rated-phase arrival rate. Each directed lookup
	// costs a few delayed store ops, concentrated by the popularity skew
	// on the hottest node's key range; at this rate that node stays
	// comfortably under saturation.
	ratedRPS = 150.0
	// overloadFactor multiplies ratedRPS for the overload phase, inside
	// the 2–4x band the SLO gate is defined over. It is sized so the
	// flash crowd ALONE saturates a node: every lookup for the hottest
	// article ends with one data read at its MSD key's owner, and with
	// flashFraction plus rank 0's ~39% share of the rest, that owner
	// takes ≈ 0.70 × (1-writeFraction) × overload rate of them — 354/s
	// at 4x, past the ≈ 333/s a serviceTime store serves. At 3x it took
	// 266/s, so whether any node queued depended on where the corpus
	// hash put the hot key: a seed whose hot key landed on the member
	// with the smallest arc never saturated a node at all.
	overloadFactor = 4.0
	// loadNodes is the ring size — small enough that the popularity skew
	// concentrates real load on one node's key range.
	loadNodes = 5
	// loadReplication gives overloaded reads a replica to fail over to.
	loadReplication = 1
	// loadArticles is the corpus size; the paper's popularity fit
	// renormalized to 24 articles puts ~39% of queries on rank 0.
	loadArticles      = 24
	loadStabilizeTick = 50 * time.Millisecond
	// loadRepairEvery is the number of stabilize rounds between
	// anti-entropy repair rounds — effectively quiescent for a short run.
	// Repair scans every owned key through the slowed store, so a
	// production cadence would stall client traffic on scan artifacts
	// rather than genuine overload; puts replicate synchronously, so
	// read failover works without it, and the post-storm readback
	// forces one RepairNow round per node to re-home anything overload
	// routing misplaced.
	loadRepairEvery = 1000
	// serviceTime is the injected per-data-op store latency. The slowed
	// store serializes its own data ops (see slowStore), so this makes
	// each node a single-server queue with capacity ≈ 1/serviceTime data
	// ops/s — what lets a test-sized arrival rate saturate a node.
	serviceTime = 3 * time.Millisecond
	// flashFraction is the share of overload-phase lookups aimed at the
	// single hottest article.
	flashFraction = 0.5
	// writeFraction is the share of arrivals that are writes — fresh
	// unique keys whose acks are verified after the run.
	writeFraction = 0.15
	// maxOutstanding bounds dispatched-but-unfinished operations;
	// arrivals beyond it are counted as generator drops, not dispatched.
	// This is a harness safety valve, not admission control — a healthy
	// run never reaches it.
	maxOutstanding = 512
	// requestTimeout is the per-operation deadline. The retry layer
	// stamps the remaining budget into each RPC, so servers can
	// deadline-shed work the client has already abandoned.
	requestTimeout = 400 * time.Millisecond
	// loadReadbackTimeout is how long one acked write may take to read
	// back once the load is gone.
	loadReadbackTimeout = 10 * time.Second
)

// loadAdmission is each member's admission control, tighter than the
// server default so saturation is reachable at test-sized rates.
// Handlers hold their slot across nested routing calls, so the inflight
// bound must stay well above the routing fan-through or slot-holding,
// not the store, becomes the bottleneck.
var loadAdmission = wire.AdmissionConfig{
	MaxInflight:  32,
	MaxQueue:     32,
	QueueTimeout: 30 * time.Millisecond,
}

// The load run's pass/fail gate. Every unmet criterion becomes a line in
// LoadReport.Violations; an empty list is a pass.
const (
	// sloRatedP99 is the maximum p99 latency of successful operations at
	// rated load — queueing on the skew-hot node puts a real tail on
	// even a healthy rated phase.
	sloRatedP99 = 300 * time.Millisecond
	// sloMinRatedSuccess is the minimum fraction of dispatched
	// rated-phase operations that must succeed.
	sloMinRatedSuccess = 0.9
	// sloMinGoodputFraction is the minimum overload-phase goodput as a
	// fraction of rated-phase goodput: under 2–4x overload the ring must
	// keep serving a proportional share, shedding the rest, instead of
	// collapsing.
	sloMinGoodputFraction = 0.6
	// sloMaxRetryFraction is the maximum fleet-wide retries-per-call
	// ratio: the retry budget must keep retry traffic a bounded fraction
	// of fresh traffic even while every retryable error fires.
	sloMaxRetryFraction = 0.25
)

// PhaseReport is one load phase's accounting.
type PhaseReport struct {
	// Name labels the phase ("rated" or "overload").
	Name string `json:"name"`
	// TargetRPS is the open-loop arrival rate the phase was driven at.
	TargetRPS float64 `json:"target_rps"`
	// Duration is the arrival window length.
	Duration time.Duration `json:"duration_ns"`
	// Offered is the number of arrivals the open-loop clock generated.
	Offered int `json:"offered"`
	// Dropped counts arrivals not dispatched because MaxOutstanding
	// operations were already in flight (generator-side drops).
	Dropped int `json:"dropped"`
	// OK counts operations that succeeded (lookups that found their
	// target, writes that were acked).
	OK int `json:"ok"`
	// Shed counts operations rejected with a typed overload NACK
	// (ErrOverload), directly or inside a degraded lookup trace.
	Shed int `json:"shed"`
	// Failed counts every other failure (timeouts, misses, transport
	// errors).
	Failed int `json:"failed"`
	// GoodputRPS is OK operations per second of arrival window.
	GoodputRPS float64 `json:"goodput_rps"`
	// ShedRate is Shed over dispatched operations.
	ShedRate float64 `json:"shed_rate"`
	// P50 / P99 are latency percentiles of OK operations.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// LoadReport is the outcome of an open-loop overload run.
type LoadReport struct {
	// Rated and Overload are the two phases' accounting.
	Rated    PhaseReport `json:"rated"`
	Overload PhaseReport `json:"overload"`
	// AckedWrites is the number of writes acknowledged across both
	// phases; every one is read back after the run.
	AckedWrites int `json:"acked_writes"`
	// LostWrites lists acked write keys that could not be read back —
	// must be empty: shedding load must never shed acked data.
	LostWrites []string `json:"lost_writes,omitempty"`
	// Admission is the fleet-wide admission-controller accounting.
	Admission wire.AdmissionStats `json:"admission"`
	// Retry is the fleet-wide retry accounting (nodes + cluster).
	Retry wire.RetryStats `json:"retry"`
	// Breaker is the fleet-wide circuit-breaker accounting.
	Breaker wire.BreakerStats `json:"breaker"`
	// Violations lists every unmet SLO criterion; empty is a pass.
	Violations []string `json:"slo_violations,omitempty"`
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Passed reports whether every SLO criterion held.
func (r LoadReport) Passed() bool { return len(r.Violations) == 0 }

// slowStore injects a fixed service time into a store's data operations
// (Get/Put — the ops client traffic lands on). The sleep happens under
// the store's OWN mutex, turning each node into a single-server queue
// with capacity ≈ 1/serviceTime data ops per second. The mutex is load-bearing:
// since the node's data path was sharded off the routing lock (DESIGN.md
// §17), concurrent reads no longer serialize anywhere else, and an
// unserialized sleep would model infinite parallel servers — pure added
// latency, no queueing, and the overload phase could never saturate
// admission control. Maintenance operations (Replace, ForEach) stay fast
// so repair and handoff are not throttled.
type slowStore struct {
	wire.Store
	mu *sync.Mutex
}

func (s slowStore) Get(key keyspace.Key) []overlay.Entry {
	s.mu.Lock()
	time.Sleep(serviceTime)
	s.mu.Unlock()
	return s.Store.Get(key)
}

func (s slowStore) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	s.mu.Lock()
	time.Sleep(serviceTime)
	s.mu.Unlock()
	return s.Store.Put(key, e)
}

// Operation outcomes for phase accounting.
const (
	outcomeOK = iota
	outcomeShed
	outcomeFailed
)

// classifyLookup folds a directed lookup's trace and error into one
// outcome. An overload NACK can surface either as an ErrOverload-wrapped
// error or — because the searcher degrades instead of failing — as an
// Incomplete trace whose unresolved branch names the overload.
func classifyLookup(trace index.Trace, err error) int {
	switch {
	case err != nil && errors.Is(err, wire.ErrOverload):
		return outcomeShed
	case err != nil:
		return outcomeFailed
	case trace.Found:
		return outcomeOK
	case shedTrace(trace):
		return outcomeShed
	default:
		return outcomeFailed
	}
}

// shedTrace reports whether a degraded trace's unresolved branches
// carry an overload NACK (ErrOverload's message survives the searcher's
// reason string).
func shedTrace(trace index.Trace) bool {
	for _, u := range trace.Unresolved {
		if strings.Contains(u.Reason, "overloaded") {
			return true
		}
	}
	return false
}

// RunLoad executes the open-loop overload run: boot a ring with
// admission control armed and inflated service times, publish the
// corpus, drive the paper's query mix at the rated rate, then at
// OverloadFactor times the rated rate with a flash crowd on the hottest
// article, and hold the outcome against the SLO gate. The error is
// non-nil only for harness failures; SLO violations are reported in
// LoadReport.Violations for the caller to judge.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	var report LoadReport

	articles, gen, err := corpusAndQueries(loadArticles, cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("load: %w", err)
	}
	flash := workload.NewFlashCrowd(gen, flashFraction, cfg.Seed+7)

	// Boot the ring with its fault layer idle: every member runs
	// admission control over a slowed store; members and the cluster
	// client retry under a token budget — so retries stay a bounded
	// fraction of fresh traffic — and a per-peer breaker (the product
	// path diverts around an overloaded peer).
	r, err := bootRing(Config{
		Nodes:             loadNodes,
		Seed:              cfg.Seed,
		ReplicationFactor: loadReplication,
		StabilizeInterval: loadStabilizeTick,
		Telemetry:         cfg.Telemetry,
		Log:               cfg.Log,
		StoreFor: func(int) (wire.Store, error) {
			return slowStore{Store: wire.NewMemStore(), mu: new(sync.Mutex)}, nil
		},
	}.withDefaults(), wire.Config{
		RepairEvery: loadRepairEvery,
		Admission:   &loadAdmission,
		Retry: &wire.RetryPolicy{
			Budget:  &wire.RetryBudget{},
			Breaker: &wire.BreakerPolicy{Seed: cfg.Seed + 9},
		},
	})
	if err != nil {
		return report, fmt.Errorf("load: %w", err)
	}
	defer r.stop()
	cluster, log := r.cluster, r.cfg.Log // Config.withDefaults made Log callable

	// Publish the corpus on the idle ring (sequential, so well under the
	// admission limits even with the slowed stores).
	svc, err := publishCorpus(cluster, cfg.Telemetry, "load", "load", articles)
	if err != nil {
		return report, fmt.Errorf("load: %w", err)
	}
	searcher := index.NewSearcher(svc)

	// Shared write bookkeeping across phases.
	var (
		writeSeq atomic.Int64
		ackedMu  sync.Mutex
		acked    []keyspace.Key
	)
	writeRng := rand.New(rand.NewSource(cfg.Seed + 5))

	// runPhase drives one open-loop phase: arrival i fires at
	// start + i/rps regardless of how previous arrivals are doing. The
	// query draw happens on the dispatcher goroutine (the generators are
	// not safe for concurrent use); the operation itself runs on its own
	// goroutine under the per-op deadline.
	runPhase := func(name string, rps float64, dur time.Duration, draw func() workload.Query) PhaseReport {
		interval := time.Duration(float64(time.Second) / rps)
		var (
			mu     sync.Mutex
			lats   []time.Duration
			ok     int
			shed   int
			failed int
		)
		var outstanding atomic.Int64
		var wg sync.WaitGroup
		offered, dropped := 0, 0
		phaseStart := time.Now()
		for i := 0; ; i++ {
			target := phaseStart.Add(time.Duration(i) * interval)
			if target.Sub(phaseStart) >= dur {
				break
			}
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
			offered++
			isWrite := writeRng.Float64() < writeFraction
			var (
				wq     workload.Query
				wkey   keyspace.Key
				wentry overlay.Entry
			)
			if isWrite {
				seq := writeSeq.Add(1)
				wkey = keyspace.NewKey(fmt.Sprintf("load-write-%d", seq))
				wentry = overlay.Entry{Kind: "load", Value: fmt.Sprintf("v%d", seq)}
			} else {
				wq = draw()
			}
			if int(outstanding.Load()) >= maxOutstanding {
				dropped++
				continue
			}
			outstanding.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer outstanding.Add(-1)
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				defer cancel()
				t0 := time.Now()
				var out int
				if isWrite {
					_, err := cluster.PutCtx(ctx, wkey, wentry)
					switch {
					case err == nil:
						ackedMu.Lock()
						acked = append(acked, wkey)
						ackedMu.Unlock()
						out = outcomeOK
					case errors.Is(err, wire.ErrOverload):
						out = outcomeShed
					default:
						out = outcomeFailed
					}
				} else {
					trace, err := searcher.FindCtx(ctx, wq.Query, dataset.MSD(wq.Target))
					out = classifyLookup(trace, err)
				}
				lat := time.Since(t0)
				mu.Lock()
				switch out {
				case outcomeOK:
					ok++
					lats = append(lats, lat)
				case outcomeShed:
					shed++
				default:
					failed++
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
		dispatched := ok + shed + failed
		pr := PhaseReport{
			Name:       name,
			TargetRPS:  rps,
			Duration:   dur,
			Offered:    offered,
			Dropped:    dropped,
			OK:         ok,
			Shed:       shed,
			Failed:     failed,
			GoodputRPS: float64(ok) / dur.Seconds(),
			P50:        percentile(lats, 0.50),
			P99:        percentile(lats, 0.99),
		}
		if dispatched > 0 {
			pr.ShedRate = float64(shed) / float64(dispatched)
		}
		log("load: %s phase: offered=%d dropped=%d ok=%d shed=%d failed=%d goodput=%.1f/s p50=%v p99=%v",
			name, offered, dropped, ok, shed, failed, pr.GoodputRPS,
			pr.P50.Round(time.Millisecond), pr.P99.Round(time.Millisecond))
		return pr
	}

	log("load: ring of %d converged, rated phase at %.0f/s for %v", loadNodes, ratedRPS, cfg.RatedDuration)
	report.Rated = runPhase("rated", ratedRPS, cfg.RatedDuration, gen.Next)
	overloadRPS := ratedRPS * overloadFactor
	log("load: overload phase at %.0f/s (%.1fx) for %v, flash=%.0f%%",
		overloadRPS, overloadFactor, cfg.OverloadDuration, 100*flashFraction)
	report.Overload = runPhase("overload", overloadRPS, cfg.OverloadDuration, flash.Next)

	// Zero acked-write loss: every write the ring acknowledged — in
	// either phase, shedding or not — must be readable once the load is
	// gone. Overload shedding deliberately drops maintenance RPCs first,
	// so peers may have routed around the saturated node mid-storm and
	// acked a write at an interim owner; the product-level remedy is
	// anti-entropy's misplaced-key forwarding, which this harness pins
	// to a quiescent cadence for clean latency numbers. Force the
	// convergence it suppressed: one synchronous repair round per node
	// re-homes any stranded entries before the readback gate.
	for _, n := range r.nodes {
		n.RepairNow()
	}
	report.AckedWrites = len(acked)
	for _, key := range acked {
		if !awaitKey(loadReadbackTimeout, 10*time.Millisecond, func() bool { return readable(cluster, key) }) {
			report.LostWrites = append(report.LostWrites, key.String())
		}
	}

	fleet := r.stats()
	report.Admission, report.Retry, report.Breaker = fleet.Admission, fleet.Retry, fleet.Breaker
	report.Elapsed = time.Since(start)
	report.Violations = evaluateSLO(report)
	log("load: done in %v: acked=%d lost=%d sheds=%d (fleet) retries=%d/%d calls, violations=%d",
		report.Elapsed.Round(time.Millisecond), report.AckedWrites, len(report.LostWrites),
		report.Admission.Shed(), report.Retry.Retries, report.Retry.Calls, len(report.Violations))
	return report, nil
}

// evaluateSLO holds a finished run against the gate.
func evaluateSLO(r LoadReport) []string {
	var v []string
	if r.Rated.P99 > sloRatedP99 {
		v = append(v, fmt.Sprintf("rated p99 %v exceeds %v", r.Rated.P99.Round(time.Millisecond), sloRatedP99))
	}
	if dispatched := r.Rated.OK + r.Rated.Shed + r.Rated.Failed; dispatched > 0 {
		if got := float64(r.Rated.OK) / float64(dispatched); got < sloMinRatedSuccess {
			v = append(v, fmt.Sprintf("rated success rate %.2f below %.2f", got, sloMinRatedSuccess))
		}
	}
	if r.Overload.GoodputRPS < sloMinGoodputFraction*r.Rated.GoodputRPS {
		v = append(v, fmt.Sprintf("overload goodput %.1f/s below %.0f%% of rated %.1f/s",
			r.Overload.GoodputRPS, 100*sloMinGoodputFraction, r.Rated.GoodputRPS))
	}
	if r.Admission.Shed() == 0 {
		// Fleet-wide, not client-terminal: a shed the client recovered from
		// via a replica read still proves the admission layer engaged.
		v = append(v, "no admission sheds fleet-wide: admission control did not engage")
	}
	if len(r.LostWrites) > 0 {
		v = append(v, fmt.Sprintf("%d acked writes lost", len(r.LostWrites)))
	}
	if r.Retry.Calls > 0 {
		if got := float64(r.Retry.Retries) / float64(r.Retry.Calls); got > sloMaxRetryFraction {
			v = append(v, fmt.Sprintf("retry fraction %.2f exceeds %.2f", got, sloMaxRetryFraction))
		}
	}
	return v
}

// percentile returns the p-th latency percentile (nearest-rank on the
// sorted sample; zero for an empty sample). It sorts lats in place.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	i := int(p * float64(len(lats)-1))
	return lats[i]
}
