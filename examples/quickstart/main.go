// Quickstart: the paper's running example (Figures 1-6) end to end.
//
// It builds a small DHT, publishes the three articles of Figure 1 under
// the hierarchical indexing scheme of Figure 4, and then walks the index
// path of §IV-A: starting from q6 = /article/author/last/Smith, the user
// iteratively refines until both of John Smith's papers are retrieved.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// An 8-node Chord ring is plenty for three articles.
	ring, err := wire.StartMemRing(8, 0, 42)
	if err != nil {
		return err
	}
	defer ring.Close()
	svc := index.New(ring, cache.None, 0)

	// Publish d1, d2, d3 (Figure 1) under the Figure 4 scheme.
	files := []string{"x.pdf", "y.pdf", "z.pdf"}
	for i, a := range descriptor.Fig1Articles() {
		if err := svc.PublishArticle(files[i], a, index.Fig4); err != nil {
			return err
		}
		fmt.Printf("published %s: %s\n", files[i], dataset.MSD(a))
	}

	// The user knows only the last name: q6 = /article/author/last/Smith.
	q6, err := dataset.ParseQuery("/article/author/last/Smith")
	if err != nil {
		return err
	}
	fmt.Printf("\nuser query q6 = %s\n", q6)

	// Interactive walk: each Lookup is one user-system interaction.
	queries := []xpath.Query{q6}
	for step := 1; len(queries) > 0; step++ {
		fmt.Printf("\n-- interaction round %d --\n", step)
		var next []xpath.Query
		for _, q := range queries {
			resp, err := svc.Lookup(q)
			if err != nil {
				return err
			}
			for _, f := range resp.Files {
				fmt.Printf("  %s  ==> retrieved %s (node %s)\n", q, f, resp.Node)
			}
			for _, r := range resp.Index {
				fmt.Printf("  %s  ->  %s\n", q, r)
				next = append(next, r)
			}
		}
		queries = next
	}

	// The automated mode does the same walk in one call.
	searcher := index.NewSearcher(svc)
	results, trace, err := searcher.SearchAll(q6)
	if err != nil {
		return err
	}
	fmt.Printf("\nautomated search for %s: %d files in %d interactions\n",
		q6, len(results), trace.Interactions)
	for _, r := range results {
		fmt.Printf("  %s\n", r.File)
	}
	return nil
}
