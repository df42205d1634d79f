// Caching: the adaptive distributed cache of §IV-C / §V-D in action.
//
// A skewed (power-law) workload runs against the same database under four
// cache configurations. The demo prints how the hit ratio climbs as
// shortcuts accumulate, how bounded LRU caches trade capacity for hits,
// and where the shortcuts physically live.
//
// Run with: go run ./examples/caching
package main

import (
	"fmt"
	"log"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/wire"
	"dhtindex/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	corpus, err := dataset.Generate(dataset.Config{Articles: 1500, Seed: 11})
	if err != nil {
		return err
	}
	configs := []struct {
		name string
		pol  cache.Policy
		lru  int
	}{
		{"no cache", cache.None, 0},
		{"multi-cache", cache.Multi, 0},
		{"single-cache", cache.Single, 0},
		{"LRU-10", cache.LRU, 10},
	}
	const totalQueries = 8000
	for _, cfg := range configs {
		ring, err := wire.StartMemRing(80, 0, 11)
		if err != nil {
			return err
		}
		svc := index.New(ring, cfg.pol, cfg.lru)
		for i, a := range corpus.Articles {
			if err := svc.PublishArticle(fmt.Sprintf("f%04d.pdf", i), a, index.Simple); err != nil {
				return err
			}
		}
		gen, err := workload.NewGenerator(corpus.Articles, workload.PaperStructureModel(), 99)
		if err != nil {
			return err
		}
		searcher := index.NewSearcher(svc)

		fmt.Printf("== %s ==\n", cfg.name)
		hits, window := 0, 0
		windowHits := 0
		var interactions int
		for i := 0; i < totalQueries; i++ {
			q := gen.Next()
			trace, err := searcher.Find(q.Query, dataset.MSD(q.Target))
			if err != nil {
				return err
			}
			interactions += trace.Interactions
			if trace.CacheHit {
				hits++
				windowHits++
			}
			window++
			if window == totalQueries/4 {
				fmt.Printf("  after %5d queries: window hit ratio %5.1f%%\n",
					i+1, 100*float64(windowHits)/float64(window))
				window, windowHits = 0, 0
			}
		}
		cs := svc.CacheStats()
		fmt.Printf("  overall: hit ratio %.1f%%, %.2f interactions/query, "+
			"%.1f cached keys/node (max %d, %.0f%% empty)\n\n",
			100*float64(hits)/totalQueries, float64(interactions)/totalQueries,
			cs.MeanKeys, cs.MaxKeys, 100*cs.EmptyFraction)
		ring.Close()
	}
	return nil
}
