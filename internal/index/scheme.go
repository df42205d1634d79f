package index

import (
	"context"
	"fmt"

	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/xpath"
)

// Scheme decides under which queries an article is indexed. Chains returns
// index chains — sequences q₁ ⊒ q₂ ⊒ … ⊒ MSD (§V-B) — whose consecutive
// pairs become the index entries. The choice of chains is the
// application-level "human input" of §IV-C.
type Scheme interface {
	// Name returns the scheme's label in the paper's figures.
	Name() string
	// Chains builds the index chains for one article. Every chain ends
	// with the article's most specific query.
	Chains(a descriptor.Article) [][]xpath.Query
}

// The three schemes of the evaluation (Fig. 8) plus the deeper
// hierarchical example of Fig. 4.
var (
	Simple  Scheme = simpleScheme{}
	Flat    Scheme = flatScheme{}
	Complex Scheme = complexScheme{}
	Fig4    Scheme = fig4Scheme{}
)

// Schemes lists the evaluation schemes in the paper's S/F/C order.
func Schemes() []Scheme { return []Scheme{Simple, Flat, Complex} }

// SchemeByName resolves a scheme label (simple|flat|complex|fig4).
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "simple":
		return Simple, nil
	case "flat":
		return Flat, nil
	case "complex":
		return Complex, nil
	case "fig4":
		return Fig4, nil
	default:
		return nil, fmt.Errorf("index: unknown scheme %q", name)
	}
}

// simpleScheme (Fig. 8 left): author and title funnel through the
// author+title pair; conference and year funnel through the
// conference+year pair.
type simpleScheme struct{}

func (simpleScheme) Name() string { return "simple" }

func (simpleScheme) Chains(a descriptor.Article) [][]xpath.Query {
	msd := dataset.MSD(a)
	author := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	title := dataset.TitleQuery(a.Title)
	at := dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title)
	conf := dataset.ConfQuery(a.Conf)
	year := dataset.YearQuery(a.Year)
	cy := dataset.ConfYearQuery(a.Conf, a.Year)
	return [][]xpath.Query{
		{author, at, msd},
		{title, at, msd},
		{conf, cy, msd},
		{year, cy, msd},
	}
}

// flatScheme (Fig. 8 center): every query points directly at the MSD, so
// the index query length is always 2.
type flatScheme struct{}

func (flatScheme) Name() string { return "flat" }

func (flatScheme) Chains(a descriptor.Article) [][]xpath.Query {
	msd := dataset.MSD(a)
	return [][]xpath.Query{
		{dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), msd},
		{dataset.TitleQuery(a.Title), msd},
		{dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title), msd},
		{dataset.ConfQuery(a.Conf), msd},
		{dataset.YearQuery(a.Year), msd},
		{dataset.ConfYearQuery(a.Conf, a.Year), msd},
	}
}

// complexScheme (Fig. 8 right): like simple, but the author path is split
// one level deeper — "a query specifying an author and a conference
// returns a list of queries that further indicate all the publication
// years for the given author and conference" (§V-B).
type complexScheme struct{}

func (complexScheme) Name() string { return "complex" }

func (complexScheme) Chains(a descriptor.Article) [][]xpath.Query {
	msd := dataset.MSD(a)
	author := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	ac := dataset.AuthorConfQuery(a.AuthorFirst, a.AuthorLast, a.Conf)
	acy := dataset.AuthorConfYearQuery(a.AuthorFirst, a.AuthorLast, a.Conf, a.Year)
	title := dataset.TitleQuery(a.Title)
	at := dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title)
	conf := dataset.ConfQuery(a.Conf)
	year := dataset.YearQuery(a.Year)
	cy := dataset.ConfYearQuery(a.Conf, a.Year)
	return [][]xpath.Query{
		{author, ac, acy, msd},
		{title, at, msd},
		{conf, cy, msd},
		{year, cy, msd},
	}
}

// fig4Scheme is the hierarchical example of Fig. 4/5: a Last-name index
// above the Author index, the Article index keyed by author+title, and the
// Proceedings index keyed by conference+year.
type fig4Scheme struct{}

func (fig4Scheme) Name() string { return "fig4" }

func (fig4Scheme) Chains(a descriptor.Article) [][]xpath.Query {
	msd := dataset.MSD(a)
	last := dataset.LastNameQuery(a.AuthorLast)
	author := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	at := dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title)
	title := dataset.TitleQuery(a.Title)
	conf := dataset.ConfQuery(a.Conf)
	year := dataset.YearQuery(a.Year)
	cy := dataset.ConfYearQuery(a.Conf, a.Year)
	return [][]xpath.Query{
		{last, author, at, msd},
		{title, at, msd},
		{conf, cy, msd},
		{year, cy, msd},
	}
}

// PublishArticle stores the article's file reference and inserts every
// index entry the scheme prescribes. file is the opaque content reference
// (e.g. "x.pdf"). When the substrate supports batched mutation
// (overlay.BatchNetwork), the data entry and every index mapping ship as
// ONE batch — one owner-resolution round with parallel fan-out instead
// of a sequential routed put per mapping. Other substrates (the
// simulations, which account per-insert RPCs) take the sequential path.
func (s *Service) PublishArticle(file string, a descriptor.Article, scheme Scheme) error {
	if bn, ok := s.net.(overlay.BatchNetwork); ok {
		return s.publishArticleBatch(bn, file, a, scheme)
	}
	if _, err := s.Publish(file, a.Descriptor()); err != nil {
		return err
	}
	return s.IndexArticle(a, scheme)
}

// publishArticleBatch is the batched PublishArticle: every mapping is
// validated up front (covering requirement, self mappings, duplicate
// chain suffixes), then the data entry and the mappings go out in one
// PutBatch.
func (s *Service) publishArticleBatch(bn overlay.BatchNetwork, file string, a descriptor.Article, scheme Scheme) error {
	d := a.Descriptor()
	msd := xpath.MostSpecific(d)
	if msd.IsZero() {
		return fmt.Errorf("index: publish %q: %w", file, xpath.ErrEmptyQuery)
	}
	mappings, err := mappingItems(a, scheme)
	if err != nil {
		return err
	}
	items := make([]overlay.KeyEntry, 0, len(mappings)+1)
	items = append(items, overlay.KeyEntry{Key: msd.Key(), Entry: overlay.Entry{Kind: KindData, Value: file}})
	items = append(items, mappings...)
	if err := bn.PutBatch(context.Background(), items); err != nil {
		return fmt.Errorf("index: publish %q: %w", file, err)
	}
	if s.vocabulary {
		return s.RegisterVocabulary(d)
	}
	return nil
}

// IndexArticle inserts the scheme's index entries for an article that is
// already published. Batch-capable substrates receive all mappings in
// one PutBatch; others get one routed put per mapping.
func (s *Service) IndexArticle(a descriptor.Article, scheme Scheme) error {
	if bn, ok := s.net.(overlay.BatchNetwork); ok {
		items, err := mappingItems(a, scheme)
		if err != nil {
			return err
		}
		if len(items) == 0 {
			return nil
		}
		if err := bn.PutBatch(context.Background(), items); err != nil {
			return fmt.Errorf("index: scheme %s: %w", scheme.Name(), err)
		}
		return nil
	}
	for _, chain := range scheme.Chains(a) {
		for i := 0; i+1 < len(chain); i++ {
			if err := s.InsertMapping(chain[i], chain[i+1]); err != nil {
				return fmt.Errorf("index: scheme %s: %w", scheme.Name(), err)
			}
		}
	}
	return nil
}

// mappingItems flattens a scheme's chains into batch items with the
// same validation InsertMapping applies, deduplicating pairs that occur
// in several chains (e.g. conf+year → MSD appears in both the conf and
// the year chain) so the batch carries each mapping once.
func mappingItems(a descriptor.Article, scheme Scheme) ([]overlay.KeyEntry, error) {
	var items []overlay.KeyEntry
	seen := make(map[overlay.KeyEntry]bool)
	for _, chain := range scheme.Chains(a) {
		for i := 0; i+1 < len(chain); i++ {
			q, target := chain[i], chain[i+1]
			if q.Equal(target) {
				return nil, fmt.Errorf("index: scheme %s: %w: %s", scheme.Name(), ErrSelfMapping, q)
			}
			if !q.Covers(target) {
				return nil, fmt.Errorf("index: scheme %s: %w: (%s ; %s)", scheme.Name(), ErrNotCovering, q, target)
			}
			item := overlay.KeyEntry{Key: q.Key(), Entry: overlay.Entry{Kind: KindIndex, Value: target.String()}}
			if seen[item] {
				continue
			}
			seen[item] = true
			items = append(items, item)
		}
	}
	return items, nil
}

// UnpublishArticle removes the article's data and cleans up the scheme's
// index entries bottom-up, deleting a mapping (q; qi) only when qi no
// longer leads anywhere — the recursive cleanup of §IV-C for read/write
// systems. Chains share their tails (every chain ends in the MSD, and the
// schemes funnel several chains through one pair query), so within one
// call each key is probed and each mapping removed at most once.
func (s *Service) UnpublishArticle(file string, a descriptor.Article, scheme Scheme) error {
	msd := dataset.MSD(a)
	if _, err := s.net.Remove(msd.Key(), overlay.Entry{Kind: KindData, Value: file}); err != nil {
		return fmt.Errorf("index: unpublish %q: %w", file, err)
	}
	empty := make(map[keyspace.Key]bool)       // this call's probe results
	removed := make(map[overlay.KeyEntry]bool) // mappings this call already removed
	for _, chain := range scheme.Chains(a) {
		// Walk bottom-up: drop (q_i ; q_{i+1}) only if q_{i+1} is now
		// empty (no data, no outgoing mappings).
		for i := len(chain) - 2; i >= 0; i-- {
			q, target := chain[i], chain[i+1]
			isEmpty, probed := empty[target.Key()]
			if !probed {
				var err error
				if isEmpty, err = s.keyEmpty(target); err != nil {
					return err
				}
				empty[target.Key()] = isEmpty
			}
			if !isEmpty {
				break
			}
			pair := overlay.KeyEntry{Key: q.Key(), Entry: overlay.Entry{Kind: KindIndex, Value: target.String()}}
			if removed[pair] {
				continue
			}
			if _, err := s.RemoveMapping(q, target); err != nil {
				return err
			}
			removed[pair] = true
			// q just lost a mapping: what an earlier chain saw under it
			// no longer holds.
			delete(empty, q.Key())
		}
	}
	return nil
}

// keyEmpty reports whether a query's key holds neither data nor index
// entries.
func (s *Service) keyEmpty(q xpath.Query) (bool, error) {
	entries, _, err := s.net.Get(q.Key())
	if err != nil {
		return false, fmt.Errorf("index: probe %s: %w", q, err)
	}
	return len(entries) == 0, nil
}
