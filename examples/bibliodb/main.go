// Bibliodb: a distributed bibliographic database at realistic scale.
//
// It builds a 100-node DHT storing a 2,000-article synthetic corpus under
// the simple indexing scheme (with keyword decoration), then demonstrates
// every way a user can find an article: by author, title, title keyword,
// conference, year, author+title, a misspelled author (fuzzy correction,
// §VI), and — for the author+year combination no scheme indexes — through
// the generalization/specialization fallback of §IV-B. It finishes with
// an automated exhaustive search.
//
// Run with: go run ./examples/bibliodb
package main

import (
	"fmt"
	"log"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// mangle introduces a one-character typo.
func mangle(s string) string {
	if len(s) < 3 {
		return s + "x"
	}
	return s[:2] + s[3:]
}

// lastNameOf extracts the author/last value from a corrected query.
func lastNameOf(q xpath.Query) string {
	for _, vc := range q.ValueConstraints() {
		if len(vc.Path) == 2 && vc.Path[1] == "last" {
			return vc.Value
		}
	}
	return q.String()
}

func run() error {
	corpus, err := dataset.Generate(dataset.Config{Articles: 2000, Seed: 7})
	if err != nil {
		return err
	}
	ring, err := wire.StartMemRing(100, 0, 7)
	if err != nil {
		return err
	}
	defer ring.Close()
	svc := index.New(ring, cache.Single, 0)
	svc.EnableVocabulary()
	scheme := index.WithKeywords(index.Simple, 4)
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("article-%04d.pdf", i), a, scheme); err != nil {
			return err
		}
	}
	st := svc.StorageStats()
	fmt.Printf("published %d articles on %d nodes: %d index entries (%.1f KB metadata), %.0f entries/node\n\n",
		len(corpus.Articles), ring.Size(), st.IndexEntries,
		float64(st.IndexBytes)/1024, st.MeanEntriesPerNode)

	searcher := index.NewSearcher(svc)
	target := corpus.Articles[3]
	msd := dataset.MSD(target)
	fmt.Printf("target article: %q by %s (%s %d)\n\n", target.Title, target.Author(), target.Conf, target.Year)

	lookups := []struct {
		how string
		q   xpath.Query
	}{
		{"author", dataset.AuthorQuery(target.AuthorFirst, target.AuthorLast)},
		{"title", dataset.TitleQuery(target.Title)},
		{"conference", dataset.ConfQuery(target.Conf)},
		{"year", dataset.YearQuery(target.Year)},
		{"author+title", dataset.AuthorTitleQuery(target.AuthorFirst, target.AuthorLast, target.Title)},
		{"author+year (non-indexed!)", dataset.AuthorYearQuery(target.AuthorFirst, target.AuthorLast, target.Year)},
	}
	for _, l := range lookups {
		trace, err := searcher.Find(l.q, msd)
		if err != nil {
			return fmt.Errorf("find by %s: %w", l.how, err)
		}
		note := ""
		if trace.NonIndexed {
			note = "  [recovered via generalization]"
		}
		if trace.CacheHit {
			note += "  [cache hit]"
		}
		fmt.Printf("by %-28s %d interactions, %4d response bytes -> %s%s\n",
			l.how+":", trace.Interactions, trace.ResponseBytes, trace.File, note)
	}

	// Second pass: the single-cache shortcuts now short-circuit.
	fmt.Println("\nsecond pass over the same queries (adaptive cache warm):")
	for _, l := range lookups {
		trace, err := searcher.Find(l.q, msd)
		if err != nil {
			return err
		}
		fmt.Printf("by %-28s %d interactions (hit=%v)\n", l.how+":", trace.Interactions, trace.CacheHit)
	}

	// Keyword search: any title word reaches the article (the "words in
	// title" interface of §V-B).
	words := dataset.TitleWords(target.Title, 4)
	if len(words) > 0 {
		kw := dataset.TitleKeywordQuery(words[0])
		results, ktrace, err := searcher.SearchAll(kw)
		if err != nil {
			return err
		}
		fmt.Printf("\nkeyword %q: %d article(s) in %d interactions\n",
			words[0], len(results), ktrace.Interactions)
	}

	// Fuzzy search: a misspelled author still resolves (§VI future work).
	misspelled := dataset.AuthorQuery(target.AuthorFirst, mangle(target.AuthorLast))
	ftrace, corrected, err := searcher.FindFuzzy(misspelled, msd, 2)
	if err != nil {
		return err
	}
	fmt.Printf("\nfuzzy: %q corrected to %q -> %s (%d interactions)\n",
		mangle(target.AuthorLast), lastNameOf(corrected), ftrace.File, ftrace.Interactions)

	// Automated mode: everything this author ever published.
	all, trace, err := searcher.SearchAll(dataset.AuthorQuery(target.AuthorFirst, target.AuthorLast))
	if err != nil {
		return err
	}
	fmt.Printf("\nexhaustive search for author %s: %d articles in %d interactions\n",
		target.Author(), len(all), trace.Interactions)
	for i, r := range all {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(all)-5)
			break
		}
		fmt.Printf("  %s\n", r.File)
	}
	return nil
}
