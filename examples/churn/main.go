// Churn: the indexed database under node arrivals and departures.
//
// The paper's §IV-D argues that indexes, being regular DHT data, inherit
// the substrate's availability mechanisms. This demo runs an active
// workload while nodes leave gracefully (handing off their keys), join, or
// crash (with successor-list replication protecting the data), and shows
// that lookups keep succeeding throughout.
//
// Run with: go run ./examples/churn
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
	corpus, err := dataset.Generate(dataset.Config{Articles: 1000, Seed: 3})
	if err != nil {
		return err
	}
	// Replication 2 protects entries against crashes.
	ring, err := wire.StartMemRing(64, 2, 3)
	if err != nil {
		return err
	}
	defer ring.Close()
	svc := index.New(ring, cache.None, 0)
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("f%04d.pdf", i), a, index.Simple); err != nil {
			return err
		}
	}
	gen, err := workload.NewGenerator(corpus.Articles, workload.PaperStructureModel(), 4)
	if err != nil {
		return err
	}
	searcher := index.NewSearcher(svc)

	phases := []struct {
		name  string
		event func(round int) error
	}{
		{"steady state", func(int) error { return nil }},
		{"graceful departures (1/round)", func(round int) error {
			return ring.Leave(fmt.Sprintf("mem-%04d", 1+round))
		}},
		{"arrivals (1/round)", func(round int) error {
			return ring.Join(fmt.Sprintf("late-%04d", round))
		}},
		{"crashes (1/round, replicated)", func(round int) error {
			return ring.Crash(fmt.Sprintf("mem-%04d", 21+round))
		}},
	}
	const perPhase = 10
	const queriesPerRound = 200
	for _, phase := range phases {
		ok, fail := 0, 0
		for round := 0; round < perPhase; round++ {
			if err := phase.event(round); err != nil {
				return fmt.Errorf("%s round %d: %w", phase.name, round, err)
			}
			// Maintenance rounds until every pointer is ideal again and
			// repair has nothing left to move.
			if err := ring.Settle(); err != nil {
				return fmt.Errorf("%s round %d: %w", phase.name, round, err)
			}
			for i := 0; i < queriesPerRound; i++ {
				q := gen.Next()
				if _, err := searcher.Find(q.Query, dataset.MSD(q.Target)); err != nil {
					fail++
				} else {
					ok++
				}
			}
		}
		fmt.Printf("%-32s %d nodes, lookups ok %d / failed %d (%.2f%%)\n",
			phase.name+":", ring.Size(), ok, fail, 100*float64(fail)/float64(ok+fail))
	}
	fmt.Println("every round settled: pointers ideal, repair quiet")
	return nil
}
