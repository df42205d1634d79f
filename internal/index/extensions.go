package index

import (
	"context"
	"fmt"

	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/overlay"
	"dhtindex/internal/xpath"
)

// PromoteArticle installs short-circuit entries for a popular article
// (§IV-C: "a very popular file can be linked to deep in the hierarchy to
// short-circuit some indexes and speed up lookups", e.g. the (q6; d1)
// entry for the author's most popular publication). Every non-terminal
// query of the scheme's chains gets a direct mapping to the article's
// MSD, so any entry point reaches the file in two interactions. The
// mappings go out in one PutBatch.
func (s *Service) PromoteArticle(a descriptor.Article, scheme Scheme) error {
	shortcuts, err := shortCircuits(a, scheme)
	if err != nil {
		return fmt.Errorf("index: promote: %w", err)
	}
	if err := s.net.PutBatch(context.Background(), shortcuts); err != nil {
		return fmt.Errorf("index: promote: %w", err)
	}
	return nil
}

// DemoteArticle removes the short-circuit entries PromoteArticle created.
func (s *Service) DemoteArticle(a descriptor.Article, scheme Scheme) error {
	shortcuts, err := shortCircuits(a, scheme)
	if err != nil {
		return fmt.Errorf("index: demote: %w", err)
	}
	for _, it := range shortcuts {
		_, err := s.net.Remove(it.Key, it.Entry)
		s.forget(it)
		if err != nil {
			return fmt.Errorf("index: demote: %w", err)
		}
	}
	return nil
}

// shortCircuits lists PromoteArticle's mappings, each once: every query
// of the scheme's chains but the last two (the MSD, and the query that
// already maps to it) mapped straight to the MSD.
func shortCircuits(a descriptor.Article, scheme Scheme) ([]overlay.KeyEntry, error) {
	msd := dataset.MSD(a)
	var chains [][]xpath.Query
	for _, chain := range scheme.Chains(a) {
		for i := 0; i+2 < len(chain); i++ {
			chains = append(chains, []xpath.Query{chain[i], msd})
		}
	}
	return mappingItems(nil, scheme.Name(), chains)
}

// keywordsScheme decorates a base scheme with per-word title indexing:
// each significant word of the title gets a contains-constraint query
// that chains into the base scheme's title path — the "words in title"
// search that the BibFinder/NetBib interfaces offer (§V-B).
type keywordsScheme struct {
	base   Scheme
	minLen int
}

// WithKeywords wraps a scheme, adding
// title-keyword → title → (base title path) chains for every title word
// of at least minLen letters (4 is a sensible default).
func WithKeywords(base Scheme, minLen int) Scheme {
	if minLen < 1 {
		minLen = 4
	}
	return keywordsScheme{base: base, minLen: minLen}
}

// Name implements Scheme.
func (s keywordsScheme) Name() string { return s.base.Name() + "+keywords" }

// Chains implements Scheme.
func (s keywordsScheme) Chains(a descriptor.Article) [][]xpath.Query {
	chains := s.base.Chains(a)
	title := dataset.TitleQuery(a.Title)
	// Find the base scheme's title chain to splice into.
	var continuation []xpath.Query
	for _, chain := range chains {
		if len(chain) > 1 && chain[0].Equal(title) {
			continuation = chain[1:]
			break
		}
	}
	if continuation == nil {
		continuation = []xpath.Query{dataset.MSD(a)}
	}
	for _, word := range dataset.TitleWords(a.Title, s.minLen) {
		kw := dataset.TitleKeywordQuery(word)
		if !kw.Covers(title) {
			continue // defensive: metacharacters in the word
		}
		chain := append([]xpath.Query{kw, title}, continuation...)
		chains = append(chains, chain)
	}
	return chains
}

// initialsScheme decorates a base scheme with the first-letter substring
// index of §IV-C: "one can create an index with all the files of an
// author that start with the letter A, the letter B, etc." A user knowing
// only an initial can enumerate last names, then authors, then articles.
type initialsScheme struct {
	base Scheme
}

// WithInitials wraps a scheme, adding the chain
// lastname-initial → last name → author → (base scheme's author path).
func WithInitials(base Scheme) Scheme {
	return initialsScheme{base: base}
}

// Name implements Scheme.
func (s initialsScheme) Name() string { return s.base.Name() + "+initials" }

// Chains implements Scheme.
func (s initialsScheme) Chains(a descriptor.Article) [][]xpath.Query {
	chains := s.base.Chains(a)
	if a.AuthorLast == "" {
		return chains
	}
	author := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	extra := []xpath.Query{
		dataset.InitialQuery(a.AuthorLast[0]),
		dataset.LastNameQuery(a.AuthorLast),
		author,
	}
	// Splice onto the base scheme's author chain so that the walk
	// continues past the author query (base chains start at the author
	// query for every scheme in this package).
	for _, chain := range chains {
		if len(chain) > 1 && chain[0].Equal(author) {
			return append(chains, append(extra, chain[1:]...))
		}
	}
	// Base scheme has no author entry point: terminate at the MSD.
	return append(chains, append(extra, dataset.MSD(a)))
}
