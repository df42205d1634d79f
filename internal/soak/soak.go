// Package soak is the storm harness for the live wire substrate
// (internal/wire), built on that package's exported API only. One
// unexported ring boots and churns the members of a faulted live ring;
// one runner storms it — drops, latency, partitions, crashes, joins,
// leaves, restarts — while write-once entries are written and read back,
// then holds the settled ring to its promises. Three scenarios share the
// ring: Run layers the paper's index workload on the storm (a
// bibliographic corpus published through the ring, indexed queries
// resolved while it is stormed), RunIngest a continuous document stream,
// and RunLoad drives an unfaulted ring open-loop past its capacity.
// RunSubstrate is the in-process companion over the hand-driven Chord
// ring and the simulated Pastry.
// Every lookup is traced (telemetry.LookupTrace) and every layer —
// faults, retries, failover, DHT hops, index interactions, cache hits —
// reports into one telemetry.Registry, so a single run produces both the
// Prometheus-style snapshot and the JSONL trace stream documented in
// docs/OBSERVABILITY.md.
package soak

import (
	"context"
	"fmt"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/workload"
)

// What every scenario indexes with: the paper's simple scheme and, where
// a scenario caches at all, single-entry shortcut caches. No caller ever
// chose otherwise (the schemes and policies are compared in the
// simulator, EXPERIMENTS.md), so they are not configuration.
var scheme = index.Simple

const policy = cache.Single

// probeBudget is the deadline budget of the Repair preset's
// degraded-lookup probe.
const probeBudget = 3 * time.Second

// label tags a scenario's metrics and traces with its name and the
// scheme/policy combination — "live/..." distinguishes storm traces from
// simulation traces in a mixed JSONL stream.
func label(scenario string) string {
	return fmt.Sprintf("%s/%s/%s", scenario, scheme.Name(), policy)
}

// corpusAndQueries generates a scenario's bibliographic corpus and the
// paper-shaped query stream over it.
func corpusAndQueries(articles int, seed int64) ([]descriptor.Article, *workload.Generator, error) {
	corpus, err := dataset.Generate(dataset.Config{Articles: articles, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %w", err)
	}
	gen, err := workload.NewGeneratorWith(corpus.Articles, workload.PaperStructureModel(), seed+41, 0.063, 0.3)
	if err != nil {
		return nil, nil, fmt.Errorf("generator: %w", err)
	}
	return corpus.Articles, gen, nil
}

// publishCorpus creates a scenario's index service over net, labelled
// for reg, and publishes every article through it as <file>-NNNN.pdf.
// The LRU capacity is read only under cache.LRU, so there is none to
// pass.
func publishCorpus(net overlay.Network, reg *telemetry.Registry, scenario, file string, articles []descriptor.Article) (*index.Service, error) {
	svc := index.New(net, policy, 0)
	if reg != nil {
		svc.Instrument(reg, telemetry.L("scheme", label(scenario)))
	}
	for i, a := range articles {
		if err := svc.PublishArticle(fmt.Sprintf("%s-%04d.pdf", file, i), a, scheme); err != nil {
			return nil, fmt.Errorf("publish article %d: %w", i, err)
		}
	}
	return svc, nil
}

// Report is the outcome of an indexed soak: the storm's own report, its
// Violations included, plus the indexed workload's accounting.
type Report struct {
	StormReport

	// Queries is the number of indexed lookups issued during the storm.
	Queries int
	// Found counts lookups that retrieved their target despite the storm.
	Found int
	// CacheHits counts found lookups short-circuited by a shortcut.
	CacheHits int
	// QueryFailures counts lookups that errored or missed — tolerated
	// during the storm, but reported.
	QueryFailures int
	// Traces is the number of LookupTrace records emitted (one per
	// lookup, found or not).
	Traces int
	// IncompleteProbe is the degraded-lookup probe's outcome (Repair
	// preset only; Ran is false otherwise).
	IncompleteProbe ProbeResult
}

// ProbeResult is the outcome of the repair mode's degraded-lookup probe:
// a search issued while one key's whole replica set is crash-stopped.
type ProbeResult struct {
	// Ran reports whether the probe executed.
	Ran bool
	// Incomplete reports whether the search degraded to a partial result
	// (the required outcome) rather than erroring or fully succeeding.
	Incomplete bool
	// Unresolved is the number of branches the degraded search reported
	// as unreachable.
	Unresolved int
	// Crashed is the number of nodes crash-stopped for the probe.
	Crashed int
	// Elapsed is how long the probe's search took; it must stay within
	// the deadline budget.
	Elapsed time.Duration
}

// Run executes the indexed churn soak. The error is non-nil only for
// harness failures (corpus generation, node boot, publishing before the
// storm); storm-time query failures are reported in the Report.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	var report Report

	articles, gen, err := corpusAndQueries(cfg.Articles, cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("soak: %w", err)
	}

	collector := &telemetry.Collector{}
	var sink telemetry.Sink = collector
	if cfg.TraceSink != nil {
		sink = telemetry.Tee(collector, cfg.TraceSink)
	}

	// The searcher is created in setup (it needs the converged cluster)
	// and driven from onOp and the probe.
	var searcher *index.Searcher
	h := hooks{
		setup: func(c *wire.Cluster) error {
			svc, err := publishCorpus(c, cfg.Telemetry, "live", "soak", articles)
			if err != nil {
				return err
			}
			searcher = index.NewSearcher(svc)
			searcher.Recorder = telemetry.NewRecorder(sink, label("live"))
			return nil
		},
		onOp: func(op int, c *wire.Cluster) {
			for i := 0; i < cfg.QueriesPerOp; i++ {
				wq := gen.Next()
				report.Queries++
				trace, err := searcher.Find(wq.Query, dataset.MSD(wq.Target))
				if err != nil || !trace.Found {
					report.QueryFailures++
					continue
				}
				report.Found++
				if trace.CacheHit {
					report.CacheHits++
				}
			}
		},
	}
	if cfg.Repair {
		h.postStorm = func(c *wire.Cluster, ft *wire.FaultTransport) error {
			err := incompleteProbe(cfg.ReplicationFactor, articles[0], searcher, c, ft, &report.IncompleteProbe)
			p := report.IncompleteProbe
			cfg.Log("soak: degraded-lookup probe crashed %d nodes: incomplete=%v (%d unresolved) in %v",
				p.Crashed, p.Incomplete, p.Unresolved, p.Elapsed.Round(time.Millisecond))
			return err
		}
	}

	report.StormReport, err = runStorm(cfg, h)
	report.Traces = len(collector.Traces())
	return report, err
}

// incompleteProbe is the Repair preset's degradation check, run by the
// storm after it has healed and replica coverage has been
// verified. It crash-stops the owner of one published article's MSD key
// together with the whole failover window behind it, then issues a
// directed search whose chain ends at that key under a deadline budget.
// The required outcome is graceful degradation: a nil error, a trace
// flagged Incomplete naming the unreachable branch, and a return within
// the budget. The crashed nodes are restored before the probe returns.
func incompleteProbe(replication int, target descriptor.Article, searcher *index.Searcher, c *wire.Cluster, ft *wire.FaultTransport, out *ProbeResult) error {
	msd := dataset.MSD(target)
	key := msd.Key()
	route, err := c.FindOwner(key)
	if err != nil {
		return fmt.Errorf("probe: find owner of %s: %w", msd, err)
	}
	addrs := c.Addrs() // ring-ordered tracked members
	idx := -1
	for i, a := range addrs {
		if a == route.Node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("probe: owner %s not tracked", route.Node)
	}
	// Crash the owner, its replica set, and the failover slack slot — the
	// whole window a degraded read would otherwise fall back through.
	crashN := replication + 2
	if crashN > len(addrs)-1 {
		crashN = len(addrs) - 1 // always leave a live node to search from
	}
	crashed := make([]string, 0, crashN)
	for i := 0; i < crashN; i++ {
		a := addrs[(idx+i)%len(addrs)]
		ft.Crash(a)
		crashed = append(crashed, a)
	}
	defer func() {
		for _, a := range crashed {
			ft.Restore(a)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), probeBudget)
	defer cancel()
	start := time.Now()
	trace, err := searcher.FindCtx(ctx, dataset.AuthorQuery(target.AuthorFirst, target.AuthorLast), msd)
	elapsed := time.Since(start)
	*out = ProbeResult{
		Ran:        true,
		Incomplete: trace.Incomplete,
		Unresolved: len(trace.Unresolved),
		Crashed:    len(crashed),
		Elapsed:    elapsed,
	}
	if err != nil {
		return fmt.Errorf("probe: search through crash-stopped replica set must degrade, not error: %w", err)
	}
	if !trace.Incomplete {
		return fmt.Errorf("probe: search did not degrade (found=%v) with %d nodes crash-stopped", trace.Found, len(crashed))
	}
	// Grace on top of the budget: the ctx stops retries, not an RPC
	// already on the wire.
	if elapsed > probeBudget+2*time.Second {
		return fmt.Errorf("probe: degraded search took %v, budget %v", elapsed, probeBudget)
	}
	return nil
}
