package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/ingest"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
)

// publishEnv is publish_durable: one writer over durable stores. The
// writer is alone because unpublishing is a read-then-remove sequence
// that is only defined for a serial stream.
type publishEnv struct {
	indexEnv
	articles []descriptor.Article
	dataDir  string
	live     int // stationary number of live articles
	next     int // next article to publish; [next-live, next) are live
	// filled by check
	reopenMs        float64
	replayedRecords int64
}

func setupPublishDurable(rc runConfig, tr *tracer) (env, error) {
	articles, err := corpus(rc.sz.publishCorpus, 0)
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(rc.tmpRoot, "data-")
	if err != nil {
		return nil, err
	}
	r, err := bootRing(ringConfig{nodes: rc.sz.tcpNodes, tcp: true, dataDir: dataDir, seed: rc.seed, tr: tr})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	e := &publishEnv{
		indexEnv: indexEnv{r: r, svc: index.New(r.net, cache.None, 0), tr: tr},
		articles: articles,
		dataDir:  dataDir,
		live:     rc.sz.liveArticles,
	}
	files := make([]string, e.live)
	for i := range files {
		files[i] = fileOf("pub", i)
	}
	if err := e.publishAll(articles[:e.live], files, index.Complex); err != nil {
		e.close()
		return nil, err
	}
	e.next = e.live
	return e, nil
}

func (e *publishEnv) close() {
	e.r.stop()
	os.RemoveAll(e.dataDir)
}

// writer publishes the next fresh article and then unpublishes the oldest
// live one, so store size and WAL shape stay stationary. The corpus is
// sized so that it does not run out; a step that finds it empty fails.
func (e *publishEnv) writer() client {
	return client{step: func(log *clientLog) {
		if e.next >= len(e.articles) {
			log.failed++
			return
		}
		i := e.next
		e.next++
		var err error
		start := time.Now()
		e.root(opPublish, func(context.Context) {
			err = e.svc.PublishArticle(fileOf("pub", i), e.articles[i], index.Complex)
		})
		log.primary = append(log.primary, int64(time.Since(start)))
		if err != nil {
			log.failed++
		}
		old := i - e.live
		start = time.Now()
		e.root(opUnpublish, func(context.Context) {
			err = e.svc.UnpublishArticle(fileOf("pub", old), e.articles[old], index.Complex)
		})
		log.side = append(log.side, int64(time.Since(start)))
		if err != nil {
			log.failed++
		}
	}}
}

func (e *publishEnv) clients(windowSeconds float64) []client {
	w := e.writer()
	w.count = perWindow(publishesPerSecond, windowSeconds, 1)
	return []client{w}
}

func (e *publishEnv) tracedClient(passSeconds float64) client {
	w := e.writer()
	w.count = perWindow(publishesPerSecond, passSeconds, 1)
	return w
}

// diskBytesPerDoc is the size of every node's data directory over the
// live articles.
func (e *publishEnv) diskBytesPerDoc() float64 {
	size, err := dirBytes(e.r.dirs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "publish_durable: data directories:", err)
		return 0
	}
	return float64(size) / float64(e.live)
}

// check copies the data directories of the running nodes, reopens the
// copies and verifies that every live article's data entry is there and
// every unpublished one's is gone.
func (e *publishEnv) check(log *clientLog) {
	log.checks += e.next
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "publish_durable check:", err)
		log.failed += e.next
	}
	copyRoot := filepath.Join(e.dataDir, "reopen")
	stores := make([]*wire.ShardedStore, 0, len(e.r.dirs))
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	for i, dir := range e.r.dirs {
		if err := copyDataDir(dir, filepath.Join(copyRoot, fmt.Sprint(i))); err != nil {
			fail(err)
			return
		}
	}
	start := time.Now()
	for i := range e.r.dirs {
		s, err := durable.OpenSharded(filepath.Join(copyRoot, fmt.Sprint(i)), 0, durable.Options{})
		if err != nil {
			fail(err)
			return
		}
		stores = append(stores, s)
		e.replayedRecords += s.RecoveryStats().ReplayedRecords
	}
	e.reopenMs = float64(time.Since(start)) / 1e6
	for i := 0; i < e.next; i++ {
		key := dataset.MSD(e.articles[i]).Key()
		want := overlay.Entry{Kind: index.KindData, Value: fileOf("pub", i)}
		present := false
		for _, s := range stores {
			for _, got := range s.Get(key) {
				present = present || got == want
			}
		}
		if live := i >= e.next-e.live; present != live {
			log.failed++
		}
	}
}

func (e *publishEnv) layerValues(v values, _ *clientLog) {
	v["wire.durable.reopen_ms"] = e.reopenMs
	v["wire.durable.replayed_records"] = float64(e.replayedRecords)
}

// ingestEnv is mixed_ingest: query_tcp's ring and base corpus, with an
// ingest pipeline publishing documents while a reader runs finds. The
// producer is a crawler on its rounds: it hands the pipeline the same
// pool of documents over and over (the first round is part of the
// set-up). A re-crawled document takes the same path as a new one —
// spool, queue, worker, batch fan-out, replication — but the stores
// recognise its entries, so the ring and the spool keep their size and
// every window measures the same thing. Ingesting ever new documents
// instead made each window slower than the one before (anti-entropy and
// the per-key entry lists grow with the corpus), and removing old ones as
// publish_durable does is only defined for a serial writer.
type ingestEnv struct {
	*queryEnv
	pool     []descriptor.Article
	spoolDir string
	pipe     *ingest.Pipeline
	enqueued int
	// maxQueue is the deepest pipeline queue a sampler saw.
	maxQueue     atomic.Int64
	stopSampling chan struct{}
	sampling     sync.WaitGroup
}

// rootPublisher runs each pipeline publish as one traced client operation.
type rootPublisher struct {
	inner ingest.Publisher
	e     *indexEnv
}

func (p rootPublisher) Publish(doc ingest.Document) (err error) {
	p.e.root(opPublish, func(context.Context) { err = p.inner.Publish(doc) })
	return err
}

func setupMixedIngest(rc runConfig, tr *tracer) (env, error) {
	base, err := corpus(rc.sz.tcpArticles, 0)
	if err != nil {
		return nil, err
	}
	pool, err := corpus(rc.sz.ingestPool, 1)
	if err != nil {
		return nil, err
	}
	cfg := ringConfig{nodes: rc.sz.tcpNodes, tcp: true, seed: rc.seed, tr: tr}
	qe, err := newQueryEnv(rc, cfg, base, queryTCPSpec(rc))
	if err != nil {
		return nil, err
	}
	spoolDir, err := os.MkdirTemp(rc.tmpRoot, "spool-")
	if err != nil {
		qe.close()
		return nil, err
	}
	e := &ingestEnv{queryEnv: qe, pool: pool, spoolDir: spoolDir, stopSampling: make(chan struct{})}
	var pub ingest.Publisher = ingest.IndexPublisher{Service: qe.svc}
	var pcfg ingest.Config // the product defaults: Block policy, 2 workers
	if tr != nil {
		// One worker, so that traced publishes do not overlap: span
		// attribution relies on one client operation at a time.
		pub = rootPublisher{inner: pub, e: &qe.indexEnv}
		pcfg.Workers = 1
	}
	e.pipe, err = ingest.Open(spoolDir, pub, pcfg)
	if err != nil {
		qe.close()
		os.RemoveAll(spoolDir)
		return nil, err
	}
	e.sampling.Add(1)
	go e.sampleQueue()
	// The crawler's first round.
	var first clientLog
	for range pool {
		e.enqueue(&first)
	}
	e.endWindow(&first)
	if first.failed > 0 {
		e.close()
		return nil, fmt.Errorf("first ingest round: %d of %d documents failed", first.failed, len(pool))
	}
	e.maxQueue.Store(0) // the first round filled the queue; report what a pass does
	return e, nil
}

// sampleQueue polls the pipeline's queue depth, which the program only
// reports as a point-in-time value.
func (e *ingestEnv) sampleQueue() {
	defer e.sampling.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if d := int64(e.pipe.Stats().QueueDepth); d > e.maxQueue.Load() {
				e.maxQueue.Store(d)
			}
		case <-e.stopSampling:
			return
		}
	}
}

func (e *ingestEnv) close() {
	close(e.stopSampling)
	e.sampling.Wait()
	if err := e.pipe.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "mixed_ingest: close pipeline:", err)
	}
	e.queryEnv.close()
	os.RemoveAll(e.spoolDir)
}

// enqueue hands the pool's next document to the pipeline.
func (e *ingestEnv) enqueue(log *clientLog) {
	i := e.enqueued % len(e.pool)
	e.enqueued++
	doc := ingest.Document{ID: fmt.Sprintf("doc-%06d", i), File: fileOf("doc", i), Article: e.pool[i]}
	start := time.Now()
	err := e.pipe.Enqueue(doc)
	log.side = append(log.side, int64(time.Since(start)))
	if err != nil {
		log.failed++
	}
}

func (e *ingestEnv) clients(windowSeconds float64) []client {
	reader := e.queryClient(0, false)
	reader.count = perWindow(mixedFindsPerSecond, windowSeconds, 1)
	return []client{reader, {step: e.enqueue, count: perWindow(mixedDocsPerSecond, windowSeconds, 1)}}
}

// tracedClient alternates the reader's finds with small ingest bursts on
// one goroutine — 19 finds, then 4 documents — draining each burst before
// the next find.
func (e *ingestEnv) tracedClient(passSeconds float64) client {
	find := e.queryClient(0, false).step
	n := 0
	return client{count: perWindow(mixedFindsPerSecond, passSeconds, 1), step: func(log *clientLog) {
		n++
		if n%20 != 0 {
			find(log)
			return
		}
		for i := 0; i < 4; i++ {
			e.enqueue(log)
		}
		e.endWindow(log)
	}}
}

// diskBytesPerDoc is the size of the spool over the documents it tracks.
func (e *ingestEnv) diskBytesPerDoc() float64 {
	size, err := dirBytes(e.spoolDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixed_ingest: spool directory:", err)
		return 0
	}
	return float64(size) / float64(len(e.pool))
}

// endWindow waits until everything enqueued so far is published.
func (e *ingestEnv) endWindow(log *clientLog) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.pipe.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mixed_ingest: drain:", err)
		log.failed++
	}
}

// check verifies that no document was dead-lettered and that every
// document of the pool is retrievable through the whole index chain from
// its title.
func (e *ingestEnv) check(log *clientLog) {
	e.queryEnv.check(log)
	log.checks++
	if e.pipe.Stats().DeadLettered != 0 {
		log.failed++
	}
	var wg sync.WaitGroup
	logs := make([]clientLog, 2)
	for g := range logs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(e.pool); i += len(logs) {
				a := e.pool[i]
				trace, err := e.searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a))
				logs[g].checks++
				if err != nil || !trace.Found || trace.File != fileOf("doc", i) {
					logs[g].failed++
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range logs {
		log.merge(&logs[g])
	}
}

func (e *ingestEnv) layerValues(v values, log *clientLog) {
	e.queryEnv.layerValues(v, log)
	st := e.pipe.Stats()
	v["ingest.enqueue_us"] = usPercentile(log.side, 50)
	v["ingest.retries"] = float64(st.Retries)
	v["ingest.overload_backoffs"] = float64(st.OverloadBackoffs)
	v["ingest.dead_letters"] = float64(st.DeadLettered)
	v["ingest.max_queue_depth"] = float64(e.maxQueue.Load())
	v["ingest.spool_bytes_per_doc"] = e.diskBytesPerDoc()
}
