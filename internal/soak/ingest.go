package soak

import (
	"context"
	"fmt"
	"os"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/ingest"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
)

// probePerOp is how many acked-but-unverified documents RunIngest probes
// for visibility per storm op, so probing never dominates the storm.
const probePerOp = 4

// freshnessBudget is RunIngest's ack-to-visibility SLO: every acked
// non-poison document must be observable at its MSD key within this
// budget of its enqueue ack.
const freshnessBudget = 15 * time.Second

// ingestPipeline tunes the pipeline RunIngest puts under test. It is
// soak-shaped rather than ingest's production defaults: a short
// FreshnessTTL and RepublishInterval so the republisher demonstrably
// fires within the run, and a publish retry cap of 8 so storm-transient
// failures don't quarantine healthy documents.
var ingestPipeline = ingest.Config{
	QueueBound:        16,
	PublishRetryCap:   8,
	FreshnessTTL:      4 * time.Second,
	RepublishInterval: 500 * time.Millisecond,
}

// IngestReport is the outcome of a continuous-ingest soak: the storm's
// own report plus the ingest stream's accounting. The stream's gates
// extend the storm's Violations.
type IngestReport struct {
	StormReport

	// Enqueued is the number of documents offered to the pipeline.
	Enqueued int `json:"enqueued"`
	// Acked is the number of enqueues the pipeline durably acked; every
	// acked non-poison document is held to the loss and freshness gates.
	Acked int `json:"acked"`
	// Poison is the number of acked poison documents.
	Poison int `json:"poison"`
	// EnqueueFailures counts enqueues the pipeline refused — must be
	// zero: an enqueue blocks on a full queue instead of failing.
	EnqueueFailures int `json:"enqueue_failures"`
	// Published / Retries / OverloadBackoffs / DeadLettered /
	// Republished / RepublishFailures aggregate the pipeline's counters
	// across the ingester restart.
	Published         int64 `json:"published"`
	Retries           int64 `json:"retries"`
	OverloadBackoffs  int64 `json:"overload_backoffs"`
	DeadLettered      int64 `json:"dead_lettered"`
	Republished       int64 `json:"republished"`
	RepublishFailures int64 `json:"republish_failures"`
	// IngesterRestarts counts executed ingester crash-restarts.
	IngesterRestarts int `json:"ingester_restarts"`
	// SpoolRecovered is what the restarted pipeline replayed from its
	// spool (pending + published + dead records) — must be > 0 when a
	// restart ran.
	SpoolRecovered int `json:"spool_recovered"`
	// LostDocs lists acked non-poison documents never observed at their
	// MSD key — must be empty: an ack is a durability promise.
	LostDocs []string `json:"lost_docs,omitempty"`
	// FreshnessViolations lists documents that became visible only after
	// the freshness budget had lapsed.
	FreshnessViolations []string `json:"freshness_violations,omitempty"`
	// PoisonSurvivors lists acked poison documents that were NOT
	// dead-lettered — must be empty: quarantine must be total.
	PoisonSurvivors []string `json:"poison_survivors,omitempty"`
	// MaxAckToVisible is the worst observed ack-to-visibility latency.
	MaxAckToVisible time.Duration `json:"max_ack_to_visible_ns"`
	// DeadLetterReasons counts quarantined documents by reason.
	DeadLetterReasons map[string]int `json:"dead_letter_reasons,omitempty"`
	// SpoolDir is where the pipeline's spool lived (already removed when
	// Config.SpoolDir was empty).
	SpoolDir string `json:"spool_dir,omitempty"`
}

// addPipeline adds one pipeline incarnation's final counters to the
// report's totals.
func (r *IngestReport) addPipeline(st ingest.Stats) {
	r.Published += st.Published
	r.Retries += st.Retries
	r.OverloadBackoffs += st.OverloadBackoffs
	r.DeadLettered += st.DeadLettered
	r.Republished += st.Republished
	r.RepublishFailures += st.RepublishFailures
}

// ingestDoc is one streamed document's scenario-side state.
type ingestDoc struct {
	doc       ingest.Document
	key       keyspace.Key
	poison    bool
	acked     bool
	ackAt     time.Time
	visibleAt time.Time
}

// RunIngest executes the continuous-ingest soak: a crawl-rate document
// stream (Config.Documents, PoisonEvery, SpoolDir) fed through an
// ingest.Pipeline into a ring that is simultaneously being stormed,
// with the ingester itself crash-restarted mid-stream. The error
// is non-nil only for harness failures (corpus generation, node boot, the
// ingester refusing to reopen); scenario misbehaviour — lost acked
// documents, freshness misses, surviving poison — is reported in the
// IngestReport's Violations for the caller to judge.
func RunIngest(cfg Config) (IngestReport, error) {
	cfg = cfg.withDefaults()
	var report IngestReport
	// The ingester is crash-stopped (ingest.Pipeline.Kill — no graceful
	// drain) halfway through the storm and reopened on the same spool
	// directory; the restarted pipeline must recover its spool and lose
	// nothing.
	restartAtOp := cfg.Ops / 2

	corpus, err := dataset.Generate(dataset.Config{Articles: cfg.Documents, Seed: cfg.Seed})
	if err != nil {
		return report, fmt.Errorf("soak: corpus: %w", err)
	}

	spoolDir := cfg.SpoolDir
	if spoolDir == "" {
		spoolDir, err = os.MkdirTemp("", "dht-ingest-soak-")
		if err != nil {
			return report, fmt.Errorf("soak: spool dir: %w", err)
		}
		defer os.RemoveAll(spoolDir)
	}
	report.SpoolDir = spoolDir

	docs := make([]ingestDoc, cfg.Documents)
	for i := range docs {
		a := corpus.Articles[i]
		poison := cfg.PoisonEvery > 0 && i%cfg.PoisonEvery == cfg.PoisonEvery-1
		if poison {
			// A blank title leaves the article's most specific descriptor
			// presence-only — not concrete — so every publish attempt
			// fails permanently: the pipeline must quarantine it, not
			// spin on it.
			a.Title = ""
		}
		docs[i] = ingestDoc{
			doc: ingest.Document{
				ID:      fmt.Sprintf("doc-%04d", i),
				File:    fmt.Sprintf("ingest-%04d.pdf", i),
				Article: a,
			},
			key:    dataset.MSD(a).Key(),
			poison: poison,
		}
	}

	// Finish enqueuing by ~3/4 of the storm so late acks still get probe
	// time before the storm ends.
	spacing := (cfg.Ops * 3 / 4) / cfg.Documents
	if spacing < 1 {
		spacing = 1
	}

	// The hooks run sequentially on the storm's goroutine, so plain
	// closure state suffices (the pipeline's own concurrency is internal
	// to it).
	var (
		pipe        *ingest.Pipeline
		pub         ingest.IndexPublisher
		nextDoc     int
		probeCursor int
		restartErr  error
	)
	defer func() {
		if pipe != nil {
			pipe.Close()
		}
	}()

	enqueueNext := func() {
		if nextDoc >= len(docs) {
			return
		}
		d := &docs[nextDoc]
		nextDoc++
		report.Enqueued++
		if err := pipe.Enqueue(d.doc); err != nil {
			report.EnqueueFailures++
			return
		}
		d.acked = true
		d.ackAt = time.Now()
		report.Acked++
		if d.poison {
			report.Poison++
		}
	}

	// probeVisibility checks one document's data entry at its MSD key
	// with a short per-probe budget; storm-time failures are tolerated —
	// the document is simply probed again later.
	probeVisibility := func(c *wire.Cluster, d *ingestDoc, budget time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		entries, _, err := c.GetCtx(ctx, d.key)
		cancel()
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.Kind == index.KindData && e.Value == d.doc.File {
				d.visibleAt = time.Now()
				return
			}
		}
	}

	var h hooks
	h.setup = func(c *wire.Cluster) error {
		svc := index.New(c, cache.None, 0)
		if cfg.Telemetry != nil {
			svc.Instrument(cfg.Telemetry, telemetry.L("scheme", "ingest/"+scheme.Name()))
		}
		pub = ingest.IndexPublisher{Service: svc, Scheme: scheme}
		p, err := ingest.Open(spoolDir, pub, ingestPipeline)
		if err != nil {
			return fmt.Errorf("open ingest pipeline: %w", err)
		}
		if cfg.Telemetry != nil {
			p.Instrument(cfg.Telemetry)
		}
		pipe = p
		return nil
	}

	h.onOp = func(op int, c *wire.Cluster) {
		if restartErr != nil {
			return
		}
		if op%spacing == 0 {
			enqueueNext()
		}
		if restartAtOp > 0 && op == restartAtOp && report.IngesterRestarts == 0 {
			// Crash the ingester mid-stream. Enqueue a small burst first
			// so the spool very likely holds pending (not just published)
			// records across the crash; Kill skips the graceful drain.
			for i := 0; i < 4; i++ {
				enqueueNext()
			}
			pipe.Kill()
			// Snapshot AFTER the kill: the workers have stopped, so the
			// counters are final — a publish completing between a
			// pre-kill snapshot and the kill would otherwise vanish from
			// the accumulated totals.
			report.addPipeline(pipe.Stats())
			p, err := ingest.Open(spoolDir, pub, ingestPipeline)
			if err != nil {
				restartErr = fmt.Errorf("reopen ingest pipeline after crash: %w", err)
				return
			}
			if cfg.Telemetry != nil {
				p.Instrument(cfg.Telemetry)
			}
			pipe = p
			report.IngesterRestarts++
			rs := p.Stats()
			report.SpoolRecovered = rs.RecoveredPending + rs.RecoveredPublished + rs.RecoveredDead
		}
		// Round-robin visibility probes over acked-but-unverified
		// documents, bounded per op so probing never dominates the storm.
		probed := 0
		for i := 0; i < len(docs) && probed < probePerOp; i++ {
			d := &docs[(probeCursor+i)%len(docs)]
			if !d.acked || d.poison || !d.visibleAt.IsZero() {
				continue
			}
			probed++
			probeVisibility(c, d, 500*time.Millisecond)
		}
		probeCursor++
	}

	h.postStorm = func(c *wire.Cluster, _ *wire.FaultTransport) error {
		// Flush the stream: any documents the crawl schedule didn't reach
		// go in now, then the queue must drain to terminal states.
		for nextDoc < len(docs) {
			enqueueNext()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := pipe.Drain(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("drain ingest queue: %w", err)
		}
		// Final visibility sweep over the healed ring: poll every acked
		// non-poison document until it is served or the budget lapses.
		deadline := time.Now().Add(freshnessBudget)
		for {
			missing := 0
			for i := range docs {
				d := &docs[i]
				if !d.acked || d.poison || !d.visibleAt.IsZero() {
					continue
				}
				probeVisibility(c, d, time.Second)
				if d.visibleAt.IsZero() {
					missing++
				}
			}
			if missing == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		// Hold the run until the republisher demonstrably fired: with the
		// soak's short FreshnessTTL at least one refresh must land well
		// within two TTL windows.
		repDeadline := time.Now().Add(2 * ingestPipeline.FreshnessTTL)
		for time.Now().Before(repDeadline) {
			if report.Republished+pipe.Stats().Republished > 0 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	}

	report.StormReport, err = runStorm(cfg, h)
	if err != nil {
		return report, err
	}
	if restartErr != nil {
		return report, restartErr
	}

	// Aggregate the pipeline's counters across the restart and fold the
	// per-document outcomes into the report.
	report.addPipeline(pipe.Stats())

	deadIDs := make(map[string]bool)
	for _, dl := range pipe.DeadLetters() {
		if report.DeadLetterReasons == nil {
			report.DeadLetterReasons = make(map[string]int)
		}
		report.DeadLetterReasons[dl.Reason]++
		deadIDs[dl.Doc.ID] = true
	}
	for i := range docs {
		d := &docs[i]
		if !d.acked {
			continue
		}
		if d.poison {
			if !deadIDs[d.doc.ID] {
				report.PoisonSurvivors = append(report.PoisonSurvivors, d.doc.ID)
			}
			continue
		}
		if d.visibleAt.IsZero() {
			report.LostDocs = append(report.LostDocs, d.doc.ID)
			continue
		}
		age := d.visibleAt.Sub(d.ackAt)
		if age > report.MaxAckToVisible {
			report.MaxAckToVisible = age
		}
		if age > freshnessBudget {
			report.FreshnessViolations = append(report.FreshnessViolations,
				fmt.Sprintf("%s: visible %v after ack, budget %v", d.doc.ID, age.Round(time.Millisecond), freshnessBudget))
		}
	}

	report.Violations = append(report.Violations, evaluateIngest(restartAtOp > 0, report)...)
	return report, nil
}

// evaluateIngest holds the stream to the scenario's gates, one line per
// unmet criterion; the storm's own gates are already in the report.
func evaluateIngest(restarted bool, r IngestReport) []string {
	var v []string
	if r.Acked == 0 {
		v = append(v, "no document was acked — the stream never ran")
	}
	if r.EnqueueFailures > 0 {
		v = append(v, fmt.Sprintf("%d enqueues refused", r.EnqueueFailures))
	}
	if n := len(r.LostDocs); n > 0 {
		v = append(v, fmt.Sprintf("%d acked documents lost: %v", n, r.LostDocs))
	}
	if n := len(r.FreshnessViolations); n > 0 {
		v = append(v, fmt.Sprintf("%d documents missed the freshness budget: %v", n, r.FreshnessViolations))
	}
	if n := len(r.PoisonSurvivors); n > 0 {
		v = append(v, fmt.Sprintf("%d poison documents escaped quarantine: %v", n, r.PoisonSurvivors))
	}
	if restarted {
		if r.IngesterRestarts != 1 {
			v = append(v, fmt.Sprintf("ingester restarted %d times, want 1", r.IngesterRestarts))
		} else if r.SpoolRecovered == 0 {
			v = append(v, "restarted ingester recovered nothing from its spool")
		}
	}
	if r.Republished == 0 {
		v = append(v, "republisher never refreshed a document")
	}
	return v
}
