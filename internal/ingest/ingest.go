// Package ingest is the continuous-ingest pipeline: it decouples
// document production (a crawler, a bulk loader, a user upload handler)
// from DHT publication through a bounded in-memory queue backed by a
// crash-safe durable spool. The paper's index is bulk-loaded once; a
// production index ingests forever, which makes the ingest path a
// robustness problem in its own right:
//
//   - Backpressure: the queue is bounded and an enqueue against a full
//     queue blocks, so a producer runs no faster than the DHT absorbs
//     documents. A worker refused with wire.ErrOverload backs off
//     without spending the document's retry budget, which slows the
//     queue and through it the producer.
//   - Durability: an acked Enqueue is spooled through the same WAL
//     machinery the wire nodes persist with (internal/wire/durable)
//     before the ack, so acked documents survive an ingester crash and
//     are re-published on restart — at-least-once delivery, made safe
//     by the substrate's idempotent entry-identity dedup.
//   - Quarantine: a document that keeps failing is retried a bounded
//     number of times and then dead-lettered with its reason instead of
//     wedging the queue. Validation errors (empty descriptors, covering
//     violations) are recognizably permanent and dead-letter at once.
//   - Freshness: every published document is stamped with a freshness
//     deadline and re-published before it expires — Kademlia-style
//     republishing generalized to all substrates, so an index entry's
//     continued existence never depends on a single long-lived replica
//     set.
//
// soak.RunIngest drives the pipeline at crawl rate under node churn and
// an ingester crash-restart; `dhtbench ingest` gates CI on zero
// acked-document loss and the freshness SLO.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
	"dhtindex/internal/xpath"
)

// Errors returned by the pipeline.
var (
	// ErrClosed is returned by operations on a closed pipeline.
	ErrClosed = errors.New("ingest: pipeline closed")
	// ErrNoID is returned by Enqueue for a document without an ID (the
	// ID keys the spool record and the republish set).
	ErrNoID = errors.New("ingest: document has no ID")
)

// Document is one unit of ingest: an article plus the opaque file
// reference it publishes, identified by a caller-chosen stable ID. The
// ID keys the durable spool record and the republish set, so re-sending
// a document under the same ID replaces its spool state rather than
// duplicating it.
type Document struct {
	// ID is the stable identity of the document (non-empty).
	ID string
	// File is the opaque content reference stored as the data entry.
	File string
	// Article is the bibliographic record to index.
	Article descriptor.Article
}

// Publisher is the pipeline's sink: one call publishes a document's
// data entry and index mappings into the DHT. Publishing must be
// idempotent — the pipeline re-publishes after crashes and on every
// freshness refresh, relying on the substrate's entry-identity dedup.
type Publisher interface {
	// Publish stores the document's entries. An error wrapping
	// wire.ErrOverload is treated as transient DHT pressure (retried
	// without consuming the document's retry budget); an error wrapping
	// index.ErrNotCovering, index.ErrSelfMapping, xpath.ErrEmptyQuery
	// or xpath.ErrNotConcrete is treated as permanent (immediate
	// dead-letter).
	Publish(doc Document) error
}

// IndexPublisher adapts an index.Service to the Publisher contract,
// publishing each document with PublishArticle under a fixed scheme.
type IndexPublisher struct {
	// Service is the index service to publish through.
	Service *index.Service
	// Scheme is the indexing scheme (nil means index.Simple).
	Scheme index.Scheme
}

// Publish implements Publisher via Service.PublishArticle, after
// checking that the article's most specific descriptor is concrete —
// an article with blank fields produces presence-only MSD constraints
// that cannot identify a unique descriptor (xpath.ErrNotConcrete), and
// publishing it would park unfindable entries in the DHT forever. Such
// documents are permanent failures the pipeline dead-letters.
func (p IndexPublisher) Publish(doc Document) error {
	scheme := p.Scheme
	if scheme == nil {
		scheme = index.Simple
	}
	msd := xpath.MostSpecific(doc.Article.Descriptor())
	if msd.IsZero() {
		return fmt.Errorf("ingest: document %s: %w", doc.ID, xpath.ErrEmptyQuery)
	}
	if _, err := msd.Descriptor(); err != nil {
		return fmt.Errorf("ingest: document %s: %w", doc.ID, err)
	}
	return p.Service.PublishArticle(doc.File, doc.Article, scheme)
}

// Config tunes a pipeline. The zero value gets documented defaults.
type Config struct {
	// QueueBound caps the in-memory queue (default 64). An enqueue
	// against a full queue blocks until a worker takes a document.
	QueueBound int
	// Workers is the number of concurrent publish workers (default 2).
	Workers int
	// PublishRetryCap bounds publish attempts per document before it is
	// dead-lettered (default 5). Overload backoffs do not consume this
	// budget — overload is the DHT's problem, not the document's.
	PublishRetryCap int
	// RetryBackoff is the base sleep between publish attempts, scaled
	// linearly by the attempt number (default 25ms).
	RetryBackoff time.Duration
	// OverloadCooldown is how long a worker backs off after a publish
	// refused with wire.ErrOverload before trying the document again
	// (default 250ms).
	OverloadCooldown time.Duration
	// FreshnessTTL is the lifetime stamped on each published document;
	// the republish loop refreshes a document before its deadline
	// passes (default 60s).
	FreshnessTTL time.Duration
	// RepublishInterval is the republish loop's scan period (default
	// FreshnessTTL/4). Each scan refreshes every document whose
	// deadline would expire before the scan after next.
	RepublishInterval time.Duration
	// SpoolSnapshotEvery is the durable spool's WAL compaction
	// threshold (default 256 records).
	SpoolSnapshotEvery int
	// Clock overrides the time source (tests; default time.Now).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueBound == 0 {
		c.QueueBound = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.PublishRetryCap == 0 {
		c.PublishRetryCap = 5
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.OverloadCooldown == 0 {
		c.OverloadCooldown = 250 * time.Millisecond
	}
	if c.FreshnessTTL == 0 {
		c.FreshnessTTL = 60 * time.Second
	}
	if c.RepublishInterval == 0 {
		c.RepublishInterval = c.FreshnessTTL / 4
	}
	if c.SpoolSnapshotEvery == 0 {
		c.SpoolSnapshotEvery = 256
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// DeadLetter is one quarantined document: the document itself, why it
// was given up on, and when.
type DeadLetter struct {
	// Doc is the quarantined document.
	Doc Document
	// Reason is the final publish error's message.
	Reason string
	// At is when the document was dead-lettered.
	At time.Time
}

// Stats is a point-in-time snapshot of the pipeline's accounting.
type Stats struct {
	// Enqueued counts acked (spooled) enqueues, including documents
	// re-enqueued from the spool at Open.
	Enqueued int64
	// Published counts first-time publish acks.
	Published int64
	// Retries counts failed publish attempts that consumed retry
	// budget.
	Retries int64
	// OverloadBackoffs counts publish attempts refused by DHT
	// admission control (retried without consuming budget).
	OverloadBackoffs int64
	// DeadLettered counts documents quarantined after exhausting their
	// retry budget or failing validation.
	DeadLettered int64
	// Republished counts freshness refreshes.
	Republished int64
	// RepublishFailures counts refresh attempts that failed (the
	// document stays tracked and is retried next scan).
	RepublishFailures int64
	// SpoolErrors counts spool writes that failed after a successful
	// publish (the document stays pending and re-publishes later).
	SpoolErrors int64
	// QueueDepth is the current queue length.
	QueueDepth int
	// Inflight is the number of documents being published right now.
	Inflight int
	// Tracked is the republish set's size (published documents whose
	// freshness the pipeline maintains).
	Tracked int
	// RecoveredPending is how many spooled-but-unpublished documents
	// Open re-enqueued (at-least-once recovery).
	RecoveredPending int
	// RecoveredPublished is how many published documents Open restored
	// into the republish set.
	RecoveredPublished int
	// RecoveredDead is how many dead letters Open restored.
	RecoveredDead int
	// OldestPendingAge is the age of the oldest queued document (zero
	// when the queue is empty).
	OldestPendingAge time.Duration
}

// queued is one queue slot: the document plus its consumed retry
// budget and enqueue time (which survives restarts via the spool).
type queued struct {
	doc        Document
	attempts   int
	enqueuedAt time.Time
}

// tracked is one republish-set member.
type tracked struct {
	doc      Document
	deadline time.Time
}

// Pipeline is the continuous-ingest pipeline. Open it over a spool
// directory and a Publisher, Enqueue documents from any goroutine, and
// Close (or Kill, in crash tests) when done.
type Pipeline struct {
	cfg   Config
	pub   Publisher
	spool *durable.Store

	mu        sync.Mutex
	notFull   *sync.Cond
	notEmpty  *sync.Cond
	idle      *sync.Cond
	queue     []queued
	inflight  int
	published map[string]tracked
	dead      []DeadLetter
	closed    bool
	killed    bool

	recoveredPending   int
	recoveredPublished int
	recoveredDead      int

	wg   sync.WaitGroup
	stop chan struct{}

	c pipelineCounters
}

// pipelineCounters holds the pipeline's telemetry instruments (counted
// regardless; attached to a registry by Instrument).
type pipelineCounters struct {
	enqueued          *telemetry.Counter
	published         *telemetry.Counter
	retries           *telemetry.Counter
	overloadBackoffs  *telemetry.Counter
	deadLetters       *telemetry.Counter
	republished       *telemetry.Counter
	republishFailures *telemetry.Counter
	spoolErrors       *telemetry.Counter
	latency           *telemetry.Histogram
}

func newPipelineCounters() pipelineCounters {
	return pipelineCounters{
		enqueued: telemetry.NewCounter("ingest_enqueued_total",
			"Documents acked into the durable spool (including restart re-enqueues)."),
		published: telemetry.NewCounter("ingest_published_total",
			"Documents published into the DHT for the first time."),
		retries: telemetry.NewCounter("ingest_publish_retries_total",
			"Failed publish attempts that consumed a document's retry budget."),
		overloadBackoffs: telemetry.NewCounter("ingest_overload_backoffs_total",
			"Publish attempts shed by DHT admission control and retried after backoff."),
		deadLetters: telemetry.NewCounter("ingest_dead_letter_total",
			"Documents quarantined after exhausting retries or failing validation."),
		republished: telemetry.NewCounter("ingest_republished_total",
			"Freshness refreshes (documents re-published before their deadline)."),
		republishFailures: telemetry.NewCounter("ingest_republish_failures_total",
			"Freshness refreshes that failed and will be retried next scan."),
		spoolErrors: telemetry.NewCounter("ingest_spool_errors_total",
			"Spool writes that failed after a successful publish."),
		latency: telemetry.NewHistogram("ingest_publish_latency_seconds",
			"End-to-end enqueue-to-publish-ack latency.", telemetry.LatencyBuckets),
	}
}

// Open loads (or creates) the pipeline's durable spool at dir, recovers
// its state — pending documents re-enter the queue, published documents
// re-enter the republish set, dead letters are restored — and starts
// the publish workers and the republish loop.
func Open(dir string, pub Publisher, cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	spool, err := durable.Open(dir, durable.Options{SnapshotEvery: cfg.SpoolSnapshotEvery})
	if err != nil {
		return nil, fmt.Errorf("ingest: open spool: %w", err)
	}
	p := &Pipeline{
		cfg:       cfg,
		pub:       pub,
		spool:     spool,
		published: make(map[string]tracked),
		stop:      make(chan struct{}),
		c:         newPipelineCounters(),
	}
	p.notFull = sync.NewCond(&p.mu)
	p.notEmpty = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	if err := p.recoverSpool(); err != nil {
		_ = spool.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.wg.Add(1)
	go p.republishLoop()
	return p, nil
}

// Instrument attaches the ingest_* series to reg: the pipeline's
// counters, the publish-latency histogram, and gauges for the queue
// depth, in-flight count, republish-set size and oldest queued age.
func (p *Pipeline) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c := p.c
	reg.Attach(c.enqueued, c.published, c.retries, c.overloadBackoffs,
		c.deadLetters, c.republished, c.republishFailures, c.spoolErrors, c.latency)
	reg.GaugeFunc("ingest_queue_depth",
		"Documents waiting in the bounded ingest queue.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.queue))
		})
	reg.GaugeFunc("ingest_inflight",
		"Documents currently being published.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.inflight)
		})
	reg.GaugeFunc("ingest_tracked",
		"Published documents under freshness maintenance.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.published))
		})
	reg.GaugeFunc("ingest_oldest_age_seconds",
		"Age of the oldest queued document.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			if len(p.queue) == 0 {
				return 0
			}
			return p.cfg.Clock().Sub(p.queue[0].enqueuedAt).Seconds()
		})
}

// Enqueue hands one document to the pipeline. A nil return is the
// durable ack: the document has been spooled and will be published at
// least once even across an ingester crash. A full queue blocks the
// caller.
func (p *Pipeline) Enqueue(doc Document) error {
	if doc.ID == "" {
		return ErrNoID
	}
	p.mu.Lock()
	for !p.closed && len(p.queue) >= p.cfg.QueueBound {
		p.notFull.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	q := queued{doc: doc, enqueuedAt: p.cfg.Clock()}
	if err := p.spoolPendingLocked(q); err != nil {
		p.mu.Unlock()
		return fmt.Errorf("ingest: spool %s: %w", doc.ID, err)
	}
	p.queue = append(p.queue, q)
	p.c.enqueued.Inc()
	p.notEmpty.Signal()
	p.mu.Unlock()
	return nil
}

// worker is one publish worker: it pops documents and drives each to a
// terminal state (published, dead-lettered, or abandoned mid-retry by
// Close/Kill — in which case the spool record stays pending and the
// next Open re-enqueues it).
func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.notEmpty.Wait()
		}
		if p.closed {
			// Abandon the queue: every queued document is pending in the
			// spool, so the next Open re-enqueues it.
			p.mu.Unlock()
			return
		}
		q := p.queue[0]
		p.queue = p.queue[1:]
		p.inflight++
		p.notFull.Signal()
		p.mu.Unlock()

		p.process(q)

		p.mu.Lock()
		p.inflight--
		if len(p.queue) == 0 && p.inflight == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}
}

// process publishes one document, classifying failures: permanent
// validation errors dead-letter immediately, overload backs off without
// consuming retry budget, anything else consumes budget until the cap.
func (p *Pipeline) process(q queued) {
	for {
		err := p.pub.Publish(q.doc)
		if err == nil {
			p.markPublished(q)
			return
		}
		switch {
		case isPoison(err):
			p.deadLetter(q, err)
			return
		case errors.Is(err, wire.ErrOverload):
			p.c.overloadBackoffs.Inc()
			if !p.sleep(p.cfg.OverloadCooldown) {
				return // closing; record stays pending in the spool
			}
		default:
			q.attempts++
			p.c.retries.Inc()
			if q.attempts >= p.cfg.PublishRetryCap {
				p.deadLetter(q, err)
				return
			}
			if !p.sleep(time.Duration(q.attempts) * p.cfg.RetryBackoff) {
				return
			}
		}
	}
}

// isPoison reports whether a publish error is permanent: retrying a
// document that fails validation can never succeed.
func isPoison(err error) bool {
	return errors.Is(err, index.ErrNotCovering) ||
		errors.Is(err, index.ErrSelfMapping) ||
		errors.Is(err, xpath.ErrEmptyQuery) ||
		errors.Is(err, xpath.ErrNotConcrete)
}

// sleep waits d or until the pipeline stops, reporting whether the
// caller should continue.
func (p *Pipeline) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.stop:
		return false
	}
}

// markPublished transitions a document to the published spool state,
// stamps its freshness deadline and enters it into the republish set.
func (p *Pipeline) markPublished(q queued) {
	now := p.cfg.Clock()
	deadline := now.Add(p.cfg.FreshnessTTL)
	p.mu.Lock()
	if err := p.spoolPublishedLocked(q, now, deadline); err != nil {
		// The publish succeeded but the state transition didn't: leave
		// the record pending so a restart re-publishes (idempotent).
		p.c.spoolErrors.Inc()
	}
	p.published[q.doc.ID] = tracked{doc: q.doc, deadline: deadline}
	p.mu.Unlock()
	p.c.published.Inc()
	p.c.latency.Observe(now.Sub(q.enqueuedAt).Seconds())
}

// deadLetter quarantines a document with its final error.
func (p *Pipeline) deadLetter(q queued, cause error) {
	now := p.cfg.Clock()
	dl := DeadLetter{Doc: q.doc, Reason: cause.Error(), At: now}
	p.mu.Lock()
	if err := p.spoolDeadLocked(q, dl); err != nil {
		p.c.spoolErrors.Inc()
	}
	p.dead = append(p.dead, dl)
	p.mu.Unlock()
	p.c.deadLetters.Inc()
}

// republishLoop periodically refreshes published documents whose
// freshness deadline would pass before the scan after next.
func (p *Pipeline) republishLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.RepublishInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.republishScan(false)
		case <-p.stop:
			return
		}
	}
}

// republishScan refreshes due documents (all documents when force is
// set), returning how many were republished.
func (p *Pipeline) republishScan(force bool) int {
	horizon := p.cfg.Clock().Add(2 * p.cfg.RepublishInterval)
	p.mu.Lock()
	due := make([]tracked, 0, len(p.published))
	for _, tr := range p.published {
		if force || tr.deadline.Before(horizon) {
			due = append(due, tr)
		}
	}
	p.mu.Unlock()
	refreshed := 0
	for _, tr := range due {
		select {
		case <-p.stop:
			return refreshed
		default:
		}
		if err := p.pub.Publish(tr.doc); err != nil {
			p.c.republishFailures.Inc()
			continue
		}
		now := p.cfg.Clock()
		deadline := now.Add(p.cfg.FreshnessTTL)
		p.mu.Lock()
		if _, still := p.published[tr.doc.ID]; still {
			if err := p.spoolPublishedLocked(queued{doc: tr.doc, enqueuedAt: now}, now, deadline); err != nil {
				p.c.spoolErrors.Inc()
			}
			p.published[tr.doc.ID] = tracked{doc: tr.doc, deadline: deadline}
			refreshed++
			p.c.republished.Inc()
		}
		p.mu.Unlock()
	}
	return refreshed
}

// ForceRepublish synchronously re-publishes every tracked document now,
// regardless of deadline, returning how many refreshes succeeded. It is
// the test hook for freshness and tombstone-interaction scenarios.
func (p *Pipeline) ForceRepublish() int {
	return p.republishScan(true)
}

// Forget removes a document from the republish set and deletes its
// spool record — the bookkeeping half of unpublishing. The caller owns
// the DHT-side removal (index.Service.UnpublishArticle); even a racing
// republish cannot resurrect the removed entries, because the wire
// stores suppress re-puts of tombstoned entries.
func (p *Pipeline) Forget(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, had := p.published[id]
	delete(p.published, id)
	if err := p.spool.Replace(spoolKey(id), nil, nil); err != nil {
		p.c.spoolErrors.Inc()
	}
	return had
}

// Drain blocks until the queue is empty and no document is in flight,
// or ctx expires. Dead-lettered documents count as drained: Drain waits
// for quiescence, not success.
func (p *Pipeline) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.mu.Lock()
		for (len(p.queue) > 0 || p.inflight > 0) && !p.killed {
			p.idle.Wait()
		}
		p.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Wake the waiter so its goroutine exits.
		p.mu.Lock()
		p.idle.Broadcast()
		p.mu.Unlock()
		return ctx.Err()
	}
}

// Stats returns a point-in-time snapshot of the pipeline's accounting.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Enqueued:           p.c.enqueued.Value(),
		Published:          p.c.published.Value(),
		Retries:            p.c.retries.Value(),
		OverloadBackoffs:   p.c.overloadBackoffs.Value(),
		DeadLettered:       p.c.deadLetters.Value(),
		Republished:        p.c.republished.Value(),
		RepublishFailures:  p.c.republishFailures.Value(),
		SpoolErrors:        p.c.spoolErrors.Value(),
		QueueDepth:         len(p.queue),
		Inflight:           p.inflight,
		Tracked:            len(p.published),
		RecoveredPending:   p.recoveredPending,
		RecoveredPublished: p.recoveredPublished,
		RecoveredDead:      p.recoveredDead,
	}
	if len(p.queue) > 0 {
		s.OldestPendingAge = p.cfg.Clock().Sub(p.queue[0].enqueuedAt)
	}
	return s
}

// DeadLetters returns a copy of the quarantine, oldest first.
func (p *Pipeline) DeadLetters() []DeadLetter {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]DeadLetter, len(p.dead))
	copy(out, p.dead)
	return out
}

// Close shuts the pipeline down gracefully: enqueues are refused,
// workers finish their in-flight document (abandoning retries), the
// republish loop stops and the spool is flushed and closed. Queued
// documents stay pending in the spool; the next Open re-enqueues them.
func (p *Pipeline) Close() error {
	return p.shutdown(false)
}

// Kill crash-stops the pipeline: like Close, but it marks the shutdown
// as a crash so Drain waiters are released immediately. The spool's
// WAL already holds every acked document (write-ahead), so a Kill
// followed by Open on the same directory is the ingester-crash
// scenario soak.RunIngest exercises.
func (p *Pipeline) Kill() error {
	return p.shutdown(true)
}

func (p *Pipeline) shutdown(kill bool) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.killed = kill
	close(p.stop)
	p.notEmpty.Broadcast()
	p.notFull.Broadcast()
	p.idle.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	if err := p.spool.Close(); err != nil {
		return fmt.Errorf("ingest: close spool: %w", err)
	}
	return nil
}
