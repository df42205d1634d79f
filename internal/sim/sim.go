// Package sim is the evaluation engine of §V: it builds a P2P network, a
// distributed bibliographic database and its indexes, replays the query
// workload, and collects every metric the paper's figures and table
// report.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/overlay"
	"dhtindex/internal/pastry"
	"dhtindex/internal/stats"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/workload"
)

// Options configures one simulation run. The zero value is completed with
// the paper's experimental setup: 500 nodes, 10,000 articles, 50,000
// queries (§V-E).
type Options struct {
	Nodes    int
	Articles int
	Queries  int
	Scheme   index.Scheme
	Policy   cache.Policy
	// LRUCapacity is the per-node cached-key bound (used with cache.LRU;
	// the paper tests 10, 20 and 30).
	LRUCapacity int
	// AdaptiveIndexing enables §IV-C's permanent on-demand index entries.
	AdaptiveIndexing bool
	// Seed drives corpus generation, node placement and the workload.
	Seed int64
	// Corpus, when non-nil, is used instead of generating one (lets a
	// sweep share the corpus across runs).
	Corpus *dataset.Corpus
	// Substrate selects the DHT implementation: "chord" (default: the
	// live ring of internal/wire on an in-memory transport, maintained
	// by hand) or "pastry". The indexing layer's metrics are
	// substrate-independent (§V-E); only placement and hop counts change.
	Substrate string
	// PromoteTop short-circuits the N most popular articles with deep
	// links after indexing (§IV-C's "very popular file can be linked to
	// deep in the hierarchy").
	PromoteTop int
	// PopularityExponent overrides the exponent of the popularity family
	// F(i) = 0.063·i^exp (0 keeps the paper's 0.3). Smaller exponents are
	// more head-heavy.
	PopularityExponent float64
	// Telemetry, when non-nil, receives the run's registry metrics: the
	// substrate counters and hop histogram plus the index layer's
	// counters, labeled with the run's scheme/policy combination.
	Telemetry *telemetry.Registry
	// TraceSink, when non-nil, additionally receives every structured
	// LookupTrace the run produces (e.g. a telemetry.JSONLSink). The run
	// always collects traces internally — every figure-level metric is
	// aggregated from them via AggregateTraces.
	TraceSink telemetry.Sink
}

// label names the run's scheme/policy combination for metric labels and
// trace scheme tags (e.g. "simple/single-cache", "simple/lru-30").
func (o Options) label() string {
	if o.Policy == cache.LRU {
		return fmt.Sprintf("%s/lru-%d", o.Scheme.Name(), o.LRUCapacity)
	}
	return o.Scheme.Name() + "/" + o.Policy.String()
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 500
	}
	if o.Articles == 0 {
		o.Articles = 10000
	}
	if o.Queries == 0 {
		o.Queries = 50000
	}
	if o.Scheme == nil {
		o.Scheme = index.Simple
	}
	if o.Policy == 0 {
		o.Policy = cache.None
	}
	if o.LRUCapacity == 0 {
		o.LRUCapacity = 30
	}
	if o.Substrate == "" {
		o.Substrate = "chord"
	}
	return o
}

// buildSubstrate creates the selected overlay with opts.Nodes live nodes,
// instrumenting it against opts.Telemetry when set. The caller runs
// stop when it is done with the overlay.
func buildSubstrate(opts Options) (ov overlay.Network, stop func(), err error) {
	switch opts.Substrate {
	case "chord":
		ring, err := wire.StartMemRing(opts.Nodes, 0, opts.Seed+2)
		if err != nil {
			return nil, nil, err
		}
		ring.Instrument(opts.Telemetry)
		// The figures count one message per key.
		return overlay.PerKey(ring), ring.Close, nil
	case "pastry":
		net := pastry.NewNetwork()
		if _, err := net.Populate(opts.Nodes); err != nil {
			return nil, nil, err
		}
		return pastry.AsOverlay(net, opts.Seed+2), func() {}, nil
	default:
		return nil, nil, fmt.Errorf("sim: unknown substrate %q", opts.Substrate)
	}
}

// Metrics aggregates one run's results. Field comments reference the
// figure or table each value reproduces.
type Metrics struct {
	Scheme      string
	Policy      cache.Policy
	LRUCapacity int
	Queries     int

	// InteractionsPerQuery is Fig. 11's bar: the mean number of
	// user-system rounds to find data, including the final retrieval.
	InteractionsPerQuery float64
	// Interactions summarizes the full distribution.
	Interactions stats.Summary

	// NormalTrafficPerQuery and CacheTrafficPerQuery are Fig. 12's
	// stacked bars (bytes per query).
	NormalTrafficPerQuery float64
	CacheTrafficPerQuery  float64
	// TrafficPerQuery is their sum.
	TrafficPerQuery float64

	// HitRatio is Fig. 13: the fraction of queries short-circuited by a
	// shortcut.
	HitRatio float64
	// FirstNodeHitShare is §V-e's "most cache hits occur in the first
	// node of the chain" percentage.
	FirstNodeHitShare float64

	// Cache reports Fig. 14's occupancy (mean/max cached keys per node,
	// full and empty cache fractions).
	Cache index.CacheStats
	// Storage reports regular keys and index bytes (§V-B, §V-f).
	Storage index.StorageStats
	// RegularKeysPerNode is Fig. 14's companion number (155/195/180 in
	// the paper): stored entries per node.
	RegularKeysPerNode float64

	// NonIndexedQueries is Table I: queries that hit no index entry and
	// needed the generalization fallback.
	NonIndexedQueries int
	// ExtraInteractionsForErrors is the mean number of extra rounds an
	// erroring query needed (§V-h reports "generally one").
	ExtraInteractionsForErrors float64

	// NodeLoadPercent is Fig. 15: for each node, the percentage of the
	// workload's queries that accessed it, sorted descending.
	NodeLoadPercent []float64

	// Failures counts queries whose target could not be retrieved —
	// always 0 in a healthy run.
	Failures int

	// DHTHopsPerInteraction is substrate routing cost (not a paper
	// metric; reported for the layered-protocol discussion of §V-E).
	DHTHopsPerInteraction float64
}

// Run executes one simulation.
func Run(opts Options) (*Metrics, error) {
	opts = opts.withDefaults()
	corpus := opts.Corpus
	if corpus == nil {
		var err error
		corpus, err = dataset.Generate(dataset.Config{Articles: opts.Articles, Seed: opts.Seed})
		if err != nil {
			return nil, fmt.Errorf("sim: corpus: %w", err)
		}
	}
	if len(corpus.Articles) == 0 {
		return nil, errors.New("sim: empty corpus")
	}

	ov, stop, err := buildSubstrate(opts)
	if err != nil {
		return nil, fmt.Errorf("sim: substrate: %w", err)
	}
	defer stop()
	svc := index.New(ov, opts.Policy, opts.LRUCapacity)
	if opts.Telemetry != nil {
		svc.Instrument(opts.Telemetry, telemetry.L("scheme", opts.label()))
	}
	for i, a := range corpus.Articles {
		file := fmt.Sprintf("article-%05d.pdf", i)
		if err := svc.PublishArticle(file, a, opts.Scheme); err != nil {
			return nil, fmt.Errorf("sim: publish %d: %w", i, err)
		}
	}

	for i := 0; i < opts.PromoteTop && i < len(corpus.Articles); i++ {
		if err := svc.PromoteArticle(corpus.Articles[i], opts.Scheme); err != nil {
			return nil, fmt.Errorf("sim: promote %d: %w", i, err)
		}
	}

	exp := opts.PopularityExponent
	if exp == 0 {
		exp = 0.3
	}
	gen, err := workload.NewGeneratorWith(corpus.Articles, workload.PaperStructureModel(), opts.Seed+1, 0.063, exp)
	if err != nil {
		return nil, fmt.Errorf("sim: generator: %w", err)
	}
	searcher := index.NewSearcher(svc)
	searcher.AdaptiveIndexing = opts.AdaptiveIndexing

	// Every figure-level metric is aggregated from the structured traces
	// the searcher emits — the collector is the single source of truth,
	// and an external TraceSink sees exactly the same records.
	collector := &telemetry.Collector{}
	var sink telemetry.Sink = collector
	if opts.TraceSink != nil {
		sink = telemetry.Tee(collector, opts.TraceSink)
	}
	searcher.Recorder = telemetry.NewRecorder(sink, opts.label())

	m := &Metrics{
		Scheme:      opts.Scheme.Name(),
		Policy:      opts.Policy,
		LRUCapacity: opts.LRUCapacity,
		Queries:     opts.Queries,
	}
	for i := 0; i < opts.Queries; i++ {
		wq := gen.Next()
		// Failures are recorded in the trace (Found=false) and counted
		// during aggregation.
		_, _ = searcher.Find(wq.Query, dataset.MSD(wq.Target))
	}
	nodeHits := AggregateTraces(m, collector.Traces())
	m.Cache = svc.CacheStats()
	m.Storage = svc.StorageStats()
	m.RegularKeysPerNode = m.Storage.MeanEntriesPerNode

	loads := make([]float64, 0, opts.Nodes)
	for _, addr := range ov.Addrs() {
		loads = append(loads, 100*float64(nodeHits[addr])/float64(opts.Queries))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(loads)))
	m.NodeLoadPercent = loads
	return m, nil
}

// AggregateTraces folds structured lookup traces into the figure-level
// metrics of one run, exactly as the live loop used to: only traces that
// found their target contribute to the interaction, traffic and cache
// metrics; unfound traces count as Failures. It returns the per-node
// access counts behind Fig. 15's hot-spot ranking. simreport.Replay uses
// the same function over traces read back from a JSONL stream, so
// figures can be regenerated offline from recorded runs.
func AggregateTraces(m *Metrics, traces []telemetry.LookupTrace) map[string]int {
	nodeHits := make(map[string]int)
	interactions := make([]float64, 0, len(traces))
	var (
		normalBytes, cacheBytes int64
		hits, firstHits         int
		errExtra                int
		totalHops               int
	)
	for _, t := range traces {
		if !t.Found {
			m.Failures++
			continue
		}
		interactions = append(interactions, float64(t.Interactions))
		normalBytes += t.ResponseBytes + t.RequestBytes
		cacheBytes += t.CacheBytes
		totalHops += t.DHTHops
		if t.CacheHits > 0 {
			hits++
			if len(t.Hops) > 0 && t.Hops[0].CacheHit {
				firstHits++
			}
		}
		if t.NonIndexed {
			m.NonIndexedQueries++
			// Extra rounds for a recoverable error: the failed original
			// lookup plus any unsuccessful generalization probes (the
			// successful probe replaces a lookup the user would have
			// issued anyway). §V-h reports this is "generally one (two in
			// a few rare cases)".
			errExtra += extraInteractions(t)
		}
		for _, h := range t.Hops {
			if h.Node != "" {
				nodeHits[h.Node]++
			}
		}
	}
	n := float64(len(interactions))
	if n > 0 {
		m.Interactions = stats.Summarize(interactions)
		m.InteractionsPerQuery = m.Interactions.Mean
		m.NormalTrafficPerQuery = float64(normalBytes) / n
		m.CacheTrafficPerQuery = float64(cacheBytes) / n
		m.TrafficPerQuery = m.NormalTrafficPerQuery + m.CacheTrafficPerQuery
		m.HitRatio = float64(hits) / n
		m.DHTHopsPerInteraction = float64(totalHops) / m.Interactions.Sum
	}
	if hits > 0 {
		m.FirstNodeHitShare = float64(firstHits) / float64(hits)
	}
	if m.NonIndexedQueries > 0 {
		m.ExtraInteractionsForErrors = float64(errExtra) / float64(m.NonIndexedQueries)
	}
	return nodeHits
}

// extraInteractions counts the rounds the generalization fallback added
// to one traced lookup: the number of generalization probes, or one when
// the fallback succeeded on its first candidate.
func extraInteractions(t telemetry.LookupTrace) int {
	probes := 0
	for _, h := range t.Hops {
		if h.Kind == "generalization" {
			probes++
		}
	}
	if probes == 0 {
		return 1
	}
	return probes
}
