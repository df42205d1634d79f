package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/workload"
)

// AvailabilityResult reports how the indexed database behaves after a
// mass node failure (§IV-D: "since indexes are stored as regular data
// items, they can benefit from the mechanisms implemented by the DHT
// substrate for increasing availability ... such as data replication").
type AvailabilityResult struct {
	// Replication is the successor-replication factor used.
	Replication int
	// FailedFraction is the fraction of nodes crashed (no hand-off).
	FailedFraction float64
	// SuccessRate is the fraction of post-failure queries that still
	// retrieved their target.
	SuccessRate float64
	// EntriesSurviving is the fraction of stored entry COPIES still
	// present after the failures (replication multiplies copies, so with
	// any fail fraction f this is ≈ 1-f regardless of replication; the
	// logical-survival signal is SuccessRate).
	EntriesSurviving float64
	// InteractionsPerQuery is the mean cost of the successful queries.
	InteractionsPerQuery float64
}

// Availability crashes failFraction of the nodes of a freshly built
// indexed ring (with the given replication factor), lets maintenance
// settle the survivors, and measures query success afterwards.
func Availability(opts Options, failFraction float64, replication int) (AvailabilityResult, error) {
	opts = opts.withDefaults()
	if failFraction < 0 || failFraction >= 1 {
		return AvailabilityResult{}, fmt.Errorf("sim: bad fail fraction %v", failFraction)
	}
	corpus := opts.Corpus
	if corpus == nil {
		var err error
		corpus, err = dataset.Generate(dataset.Config{Articles: opts.Articles, Seed: opts.Seed})
		if err != nil {
			return AvailabilityResult{}, fmt.Errorf("sim: corpus: %w", err)
		}
	}
	ring, err := wire.StartMemRing(opts.Nodes, replication, opts.Seed+2)
	if err != nil {
		return AvailabilityResult{}, fmt.Errorf("sim: ring: %w", err)
	}
	defer ring.Close()
	svc := index.New(overlay.PerKey(ring), opts.Policy, opts.LRUCapacity)
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("article-%05d.pdf", i), a, opts.Scheme); err != nil {
			return AvailabilityResult{}, fmt.Errorf("sim: publish: %w", err)
		}
	}
	before := svc.StorageStats()

	// Crash a seeded random subset: mass failures strike regardless of
	// ring position.
	nodes := ring.Addrs()
	slices.Sort(nodes)
	toFail := int(failFraction * float64(len(nodes)))
	for _, i := range rand.New(rand.NewSource(opts.Seed)).Perm(len(nodes))[:toFail] {
		if err := ring.Crash(nodes[i]); err != nil {
			return AvailabilityResult{}, fmt.Errorf("sim: crash: %w", err)
		}
	}
	// Copies are counted before maintenance re-replicates what survived.
	after := svc.StorageStats()
	if err := ring.Settle(); err != nil {
		return AvailabilityResult{}, fmt.Errorf("sim: %w", err)
	}

	gen, err := workload.NewGenerator(corpus.Articles, workload.PaperStructureModel(), opts.Seed+1)
	if err != nil {
		return AvailabilityResult{}, fmt.Errorf("sim: generator: %w", err)
	}
	searcher := index.NewSearcher(svc)
	ok, fail := 0, 0
	var interactions int
	for i := 0; i < opts.Queries; i++ {
		wq := gen.Next()
		trace, err := searcher.Find(wq.Query, dataset.MSD(wq.Target))
		if err != nil || !trace.Found {
			fail++
			continue
		}
		ok++
		interactions += trace.Interactions
	}
	res := AvailabilityResult{
		Replication:    replication,
		FailedFraction: failFraction,
	}
	if ok+fail > 0 {
		res.SuccessRate = float64(ok) / float64(ok+fail)
	}
	if ok > 0 {
		res.InteractionsPerQuery = float64(interactions) / float64(ok)
	}
	if total := before.IndexEntries + before.DataEntries; total > 0 {
		res.EntriesSurviving = float64(after.IndexEntries+after.DataEntries) / float64(total)
	}
	return res, nil
}
