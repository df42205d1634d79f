package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/workload"
)

// workloadDef names one workload, why it exists, and what its two
// operation classes are. Every workload is a closed loop of 2 client
// goroutines (the host has 2 cores, and the ring's nodes live in the same
// process): a directed lookup is a dependent chain of interactions and
// each resolver waits for its reply, so callers that wait — not an
// arrival schedule — are the natural load model. The open-loop rate
// ladder stays with `dhtbench -load`.
//
// A window is a fixed number of operations, not a length of time, so
// that the count and byte metrics compare across commits whatever their
// speed: each why ends with the workload's frozen nominal rates, and a
// window's counts are those rates times -seconds/3 (a run has 3 rounds).
type workloadDef struct {
	name string
	why  string
	op   string // primary operation: ops_per_s, op_p50_us, op_p99_us
	side string // second operation class: side_ops_per_s, side_mean_us
	// primary is the root span of the primary operation, the one whose
	// time trace.share.* splits.
	primary opName
	setup   func(rc runConfig, tr *tracer) (env, error)
}

// BENCHMARK.json lists the first three, which a driver runs and gates on.
// mixed_ingest is left out of that list: the driver's time allows three
// workloads a run of 26 seconds or four a run of 18, and the longer runs
// repeat better. It stays a workload of the program (-workload
// mixed_ingest, and part of -workload all and of the smoke test), because
// only it runs the ingest pipeline.
var workloads = []workloadDef{
	{
		name:    "query_tcp",
		why:     "8-node loopback-TCP ring, no cache: every interaction crosses codec, pool, frame, admission and handler, so wire.transport and wire.cluster do the work; window = 3600 ops/s x seconds/3",
		op:      "Searcher.Find(q, MSD)",
		side:    "Searcher.SearchAll(AuthorQuery(target)), every 50th op",
		primary: opFind, setup: setupQueryTCP,
	},
	{
		name:    "query_cached_mem",
		why:     "32-node MemTransport ring, 10,000 articles, LRU-30 caches: no sockets or codec, so time is in xpath, index, cache and routing; a codec or pool gain must not show; window = 16000 ops/s x seconds/3",
		op:      "Searcher.Find(q, MSD)",
		side:    "Searcher.SearchAll(AuthorQuery(target)), every 200th op",
		primary: opFind, setup: setupQueryCachedMem,
	},
	{
		name:    "publish_durable",
		why:     "8-node TCP ring on durable sharded stores, one writer publishing and unpublishing at 2,000 live articles: store, WAL, batch fan-out, replication, tombstones; window = 360 publishes/s x seconds/3",
		op:      "Service.PublishArticle (complex scheme)",
		side:    "Service.UnpublishArticle of the oldest live article",
		primary: opPublish, setup: setupPublishDurable,
	},
	{
		name:    "mixed_ingest",
		why:     "query_tcp's ring, one reader and one ingest producer: reads and writes contend for index lock, cluster, pool and store stripes; only user of ingest; window = 2000 finds/s + 1700 docs/s x seconds/3",
		op:      "Searcher.Find(q, MSD) while the pipeline publishes",
		side:    "Pipeline.Enqueue (ack = spooled) of a re-crawled document; rate counts documents published by Drain",
		primary: opFind, setup: setupMixedIngest,
	},
}

// The frozen nominal rates, in operations per second of all a workload's
// clients together: about what the commit that introduced the benchmark
// sustains on the 2-vCPU host it was written on, so that a run there
// measures for about -seconds. The workloads' whys state them too.
const (
	queryTCPOpsPerSecond = 3600
	queryMemOpsPerSecond = 16000
	publishesPerSecond   = 360
	mixedFindsPerSecond  = 2000
	mixedDocsPerSecond   = 1700
)

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizes scale the workloads. fullSizes is what every reported number
// comes from; toySizes is the smoke test's.
type sizes struct {
	tcpNodes      int
	tcpArticles   int
	tcpWarmup     int
	memNodes      int
	memArticles   int
	memWarmup     int
	lruCapacity   int
	liveArticles  int // publish_durable's stationary live set
	publishCorpus int // articles available to publish_durable
	ingestPool    int // documents mixed_ingest's producer cycles through
	checkFinds    int // seeded re-finds after each round's window
	probeDiv      int // divides the probes' iteration counts
	rounds        int // set-ups per run, each with one timed window; metrics are their median
	// idle is the traced run's idle-ring window: one anti-entropy period
	// at full scale, in which on average every node runs one repair
	// round and one hand-over.
	idle time.Duration
}

var fullSizes = sizes{
	tcpNodes: 8, tcpArticles: 2000, tcpWarmup: 2000,
	memNodes: 32, memArticles: 10000, memWarmup: 10000,
	lruCapacity:  30,
	liveArticles: 2000, publishCorpus: 12000, ingestPool: 2000,
	checkFinds: 334, probeDiv: 1, rounds: 3,
	idle: repairEvery * stabilizeInterval,
}

var toySizes = sizes{
	tcpNodes: 4, tcpArticles: 64, tcpWarmup: 50,
	memNodes: 4, memArticles: 64, memWarmup: 200,
	lruCapacity:  4,
	liveArticles: 16, publishCorpus: 600, ingestPool: 32,
	checkFinds: 32, probeDiv: 50, rounds: 2,
	idle: 2 * stabilizeInterval,
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	sz      sizes
	tmpRoot string // scratch directory inside the checkout
}

// clientLog is what one client records during a window (or a check).
type clientLog struct {
	primary []int64 // latencies of the primary operation, ns
	side    []int64 // latencies of the side operation, ns
	failed  int     // operations that errored or returned a wrong result
	checks  int     // post-run checks attempted (not window operations)

	finds         int64
	interactions  int64
	cacheHits     int64
	firstNodeHits int64
	genProbes     int64
}

func (l *clientLog) merge(o *clientLog) {
	l.primary = append(l.primary, o.primary...)
	l.side = append(l.side, o.side...)
	l.failed += o.failed
	l.checks += o.checks
	l.finds += o.finds
	l.interactions += o.interactions
	l.cacheHits += o.cacheHits
	l.firstNodeHits += o.firstNodeHits
	l.genProbes += o.genProbes
}

func (l *clientLog) ops() int { return len(l.primary) + len(l.side) }

// client is one closed-loop goroutine of a window: it calls step count
// times.
type client struct {
	step  func(log *clientLog)
	count int
}

// perWindow sizes a client: its share of a workload's frozen nominal
// rate (operations per second, all clients together) over a window.
func perWindow(rate, windowSeconds float64, clients int) int {
	return max(1, int(rate*windowSeconds)/clients)
}

// env is a set-up workload: a converged ring with its corpus published
// and its caches warm.
type env interface {
	ring() *ring
	// clients returns the closed-loop clients of the end-to-end windows,
	// each window sized for the given number of seconds.
	clients(windowSeconds float64) []client
	// tracedClient returns the single client of the traced and overhead
	// passes, which repeats the first client's operation stream; the
	// pass is sized for the given number of seconds of two clients' work.
	tracedClient(passSeconds float64) client
	// endWindow runs once the clients of a window are done.
	endWindow(log *clientLog)
	// diskBytesPerDoc returns the bytes the workload holds on disk per
	// document it keeps, 0 without disk state.
	diskBytesPerDoc() float64
	// check verifies the program's outputs after the last window.
	check(log *clientLog)
	// layerValues adds the workload's own per-layer values; log is the
	// traced pass's.
	layerValues(v values, log *clientLog)
	close()
}

// indexEnv is the part every workload shares: the ring and the index
// service over it.
type indexEnv struct {
	r   *ring
	svc *index.Service
	tr  *tracer
}

func (e *indexEnv) ring() *ring                    { return e.r }
func (e *indexEnv) endWindow(*clientLog)           {}
func (e *indexEnv) diskBytesPerDoc() float64       { return 0 }
func (e *indexEnv) layerValues(values, *clientLog) {}
func (e *indexEnv) close()                         { e.r.stop() }
func fileOf(prefix string, i int) string           { return fmt.Sprintf("%s-%06d.pdf", prefix, i) }
func authorOf(a descriptor.Article) dataset.Author {
	return dataset.Author{First: a.AuthorFirst, Last: a.AuthorLast}
}

// root runs fn as one client operation, under a root span when tracing.
func (e *indexEnv) root(name opName, fn func(ctx context.Context)) {
	if e.tr == nil {
		fn(context.Background())
		return
	}
	e.tr.root(name, fn)
}

// publishAll publishes articles[i] as files[i] from two goroutines.
func (e *indexEnv) publishAll(articles []descriptor.Article, files []string, scheme index.Scheme) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(articles); i += 2 {
				if err := e.svc.PublishArticle(files[i], articles[i], scheme); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queryEnv serves the read workloads: the paper's query mix (§V-C's
// structure model times its popularity fit) over a published corpus.
type queryEnv struct {
	indexEnv
	searcher   *index.Searcher
	articles   []descriptor.Article
	files      []string
	perAuthor  map[dataset.Author]int
	seed       int64
	checkFinds int
	spec       querySpec
	// warm-up accounting: the warm-up is one client from the seed, so on
	// MemTransport these repeat exactly.
	warmFinds, warmInteractions, warmHits int64
}

// querySpec is what differs between the read workloads.
type querySpec struct {
	policy cache.Policy
	warmup int // finds issued by one client before the first window
	// searchAllEvery makes every n-th operation of a query client an
	// automated search.
	searchAllEvery int
	opsPerSecond   float64 // frozen nominal rate of both clients together
}

// An automated search costs tens of directed lookups over TCP and about
// a hundred on MemTransport, with a heavy tail (it grows with the number
// of articles the target's author wrote). Mixed in at 1 in 20 it took
// more than half of the clients' time and its sampling noise swamped the
// find throughput; at these rates it takes a quarter of the time over TCP
// and a fifth on MemTransport, and still yields over a thousand samples a
// run.
const (
	searchAllEveryTCP = 50
	searchAllEveryMem = 200
)

func newQueryEnv(rc runConfig, cfg ringConfig, articles []descriptor.Article, spec querySpec) (*queryEnv, error) {
	r, err := bootRing(cfg)
	if err != nil {
		return nil, err
	}
	e := &queryEnv{
		indexEnv:   indexEnv{r: r, svc: index.New(r.net, spec.policy, rc.sz.lruCapacity), tr: cfg.tr},
		articles:   articles,
		files:      make([]string, len(articles)),
		perAuthor:  make(map[dataset.Author]int),
		seed:       rc.seed,
		checkFinds: rc.sz.checkFinds,
		spec:       spec,
	}
	for i, a := range articles {
		e.files[i] = fileOf("base", i)
		e.perAuthor[authorOf(a)]++
	}
	e.searcher = index.NewSearcher(e.svc)
	e.searcher.Parallelism = 8
	if err := e.publishAll(articles, e.files, index.Simple); err != nil {
		r.stop()
		return nil, err
	}
	var warm clientLog
	step := e.queryClient(100, false).step
	for i := 0; i < spec.warmup; i++ {
		step(&warm)
	}
	if warm.failed > 0 {
		r.stop()
		return nil, fmt.Errorf("warm-up: %d of %d queries failed", warm.failed, spec.warmup)
	}
	e.warmFinds, e.warmInteractions, e.warmHits = warm.finds, warm.interactions, warm.cacheHits
	return e, nil
}

// generator returns the query stream of one client.
func (e *queryEnv) generator(stream int64) *workload.Generator {
	gen, err := workload.NewGenerator(e.articles, workload.PaperStructureModel(), e.seed+stream)
	if err != nil {
		panic(err) // the corpus is never empty
	}
	return gen
}

// queryClient returns a client drawing from stream: directed finds and,
// with searchAll, an automated search as every searchAllEvery-th.
//
// The searches' targets come from a stream of their own that does not
// depend on the run's seed. An automated search costs as many lookups as
// the target's author wrote articles, between one and a hundred, and a
// round holds a few hundred searches: drawn anew for every seed, how many
// prolific authors a round happens to meet would move the side metrics
// between runs of the same code. The seed drives the finds, which are
// fifty times as many.
func (e *queryEnv) queryClient(stream int64, searchAll bool) client {
	gen := e.generator(stream)
	searches := e.generator(corpusSeed - e.seed + stream) // generator adds e.seed
	n := 0
	return client{step: func(log *clientLog) {
		n++
		if searchAll && n%e.spec.searchAllEvery == 0 {
			e.searchAll(searches.Next(), log)
		} else {
			e.find(gen.Next(), log)
		}
	}}
}

// find runs one directed lookup and checks it returned the target's file.
func (e *queryEnv) find(q workload.Query, log *clientLog) {
	target := dataset.MSD(q.Target)
	var trace index.Trace
	var err error
	start := time.Now()
	e.root(opFind, func(ctx context.Context) {
		trace, err = e.searcher.FindCtx(ctx, q.Query, target)
	})
	log.primary = append(log.primary, int64(time.Since(start)))
	if err != nil || !trace.Found || trace.Incomplete || trace.File != e.files[q.Rank] {
		log.failed++
	}
	log.finds++
	log.interactions += int64(trace.Interactions)
	log.genProbes += int64(trace.GeneralizationProbes)
	if trace.CacheHit {
		log.cacheHits++
	}
	if trace.FirstNodeHit {
		log.firstNodeHits++
	}
}

// searchAll runs one automated search for everything by the target's
// author and checks the result set: complete, and the target in it.
func (e *queryEnv) searchAll(q workload.Query, log *clientLog) {
	var results []index.Result
	var trace index.Trace
	var err error
	start := time.Now()
	e.root(opSearchAll, func(ctx context.Context) {
		results, trace, err = e.searcher.SearchAllCtx(ctx, dataset.AuthorQuery(q.Target.AuthorFirst, q.Target.AuthorLast))
	})
	log.side = append(log.side, int64(time.Since(start)))
	found := false
	for _, r := range results {
		if r.File == e.files[q.Rank] {
			found = true
		}
	}
	if err != nil || trace.Incomplete || !found || len(results) != e.perAuthor[authorOf(q.Target)] {
		log.failed++
	}
}

func (e *queryEnv) clients(windowSeconds float64) []client {
	a, b := e.queryClient(0, true), e.queryClient(1, true)
	a.count = perWindow(e.spec.opsPerSecond, windowSeconds, 2)
	b.count = a.count
	return []client{a, b}
}

func (e *queryEnv) tracedClient(passSeconds float64) client {
	c := e.queryClient(0, true)
	c.count = perWindow(e.spec.opsPerSecond, passSeconds, 2)
	return c
}

// check re-finds seeded targets single-threaded.
func (e *queryEnv) check(log *clientLog) {
	var refinds clientLog
	step := e.queryClient(999, false).step
	for i := 0; i < e.checkFinds; i++ {
		step(&refinds)
	}
	log.checks += e.checkFinds
	log.failed += refinds.failed
}

func (e *queryEnv) layerValues(v values, _ *clientLog) {
	cs := e.svc.CacheStats()
	v["cache.full_fraction"] = cs.FullFraction
	v["cache.mean_keys"] = cs.MeanKeys
}

// corpusSeed fixes the bibliographic database. The corpus is the
// benchmark's data set, not part of a run's input: the article
// popularity model gives the single most popular article a tenth of all
// queries, so whether its author happens to have written 3 articles or
// 100 moves every metric by tens of percent from one corpus to the next.
// -seed drives what is asked of that database: the operation streams.
const corpusSeed = 2004

// corpus returns the database's articles; part 0 is the base corpus and
// part 1 the pool of documents mixed_ingest ingests. Generating them is
// making the benchmark's input, not setting the program up, so a run
// generates each corpus once: only its first set-up contains the
// generation, and setup_s, a median, leaves it out.
func corpus(articles int, part int64) ([]descriptor.Article, error) {
	key := [2]int64{int64(articles), part}
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpora[key]; ok {
		return c, nil
	}
	c, err := dataset.Generate(dataset.Config{Articles: articles, Seed: corpusSeed + part})
	if err != nil {
		return nil, err
	}
	corpora[key] = c.Articles
	return c.Articles, nil
}

var (
	corpusMu sync.Mutex
	corpora  = map[[2]int64][]descriptor.Article{}
)

// queryTCPSpec is query_tcp's query side, which mixed_ingest shares.
func queryTCPSpec(rc runConfig) querySpec {
	return querySpec{
		policy: cache.None, warmup: rc.sz.tcpWarmup,
		searchAllEvery: searchAllEveryTCP, opsPerSecond: queryTCPOpsPerSecond,
	}
}

func setupQueryTCP(rc runConfig, tr *tracer) (env, error) {
	articles, err := corpus(rc.sz.tcpArticles, 0)
	if err != nil {
		return nil, err
	}
	cfg := ringConfig{nodes: rc.sz.tcpNodes, tcp: true, seed: rc.seed, tr: tr}
	return newQueryEnv(rc, cfg, articles, queryTCPSpec(rc))
}

func setupQueryCachedMem(rc runConfig, tr *tracer) (env, error) {
	articles, err := corpus(rc.sz.memArticles, 0)
	if err != nil {
		return nil, err
	}
	cfg := ringConfig{nodes: rc.sz.memNodes, seed: rc.seed, tr: tr}
	return newQueryEnv(rc, cfg, articles, querySpec{
		policy: cache.LRU, warmup: rc.sz.memWarmup,
		searchAllEvery: searchAllEveryMem, opsPerSecond: queryMemOpsPerSecond,
	})
}
