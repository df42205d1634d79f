package index

import (
	"context"
	"fmt"
	"slices"

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
// index entries, deleting a mapping (q; qi) only when qi no longer leads
// anywhere — the recursive cleanup of §IV-C for read/write systems. It
// is a cascade by level: level 0 removes the data entry; each further
// level removes, in one prune, every mapping of the scheme's chains
// whose target the previous level left empty; it ends when a level
// empties no key that a chain maps into. A key with several outgoing
// mappings (conf+year under two chains, a scheme that forks) needs no
// special care: every prune that touches a key evaluates its emptiness
// afresh, so the key is reported by whichever level removes its last
// entry. Each mapping is removed at most once per call. Emptiness is
// the key's state, not this call's effect, so a call that repeats one
// interrupted half-way (or one that already ran) walks the same levels
// over the entries that are left and finishes the cleanup.
func (s *Service) UnpublishArticle(file string, a descriptor.Article, scheme Scheme) error {
	// into lists, per target key, the not-yet-removed mappings into it.
	into := make(map[keyspace.Key][]overlay.KeyEntry)
	for _, chain := range scheme.Chains(a) {
		for i := 0; i+1 < len(chain); i++ {
			target := chain[i+1]
			pair := overlay.KeyEntry{Key: chain[i].Key(), Entry: overlay.Entry{Kind: KindIndex, Value: target.String()}}
			if !slices.Contains(into[target.Key()], pair) {
				into[target.Key()] = append(into[target.Key()], pair)
			}
		}
	}
	level := []overlay.KeyEntry{{Key: dataset.MSD(a).Key(), Entry: overlay.Entry{Kind: KindData, Value: file}}}
	for len(level) > 0 {
		emptied, err := s.prune(level, func(k keyspace.Key) bool { return len(into[k]) > 0 })
		if err != nil {
			return fmt.Errorf("index: unpublish %q: %w", file, err)
		}
		level = nil
		for _, k := range emptied {
			level = append(level, into[k]...)
			delete(into, k)
		}
	}
	return nil
}

// prune removes items and returns the keys among them that now hold
// neither data nor index entries: in one owner-grouped round when the
// substrate offers overlay.PruneNetwork, whose removes answer for every
// key they touch. Any other substrate — the simulators, a decorator
// that predates the extension — gets one Remove per item and then one
// Get per touched key for which matters reports true; the cascade above
// asks only about keys some chain maps into, because the emptiness of
// any other key decides nothing. Every key an item names loses its kept
// list once the removes are sent.
func (s *Service) prune(items []overlay.KeyEntry, matters func(keyspace.Key) bool) ([]keyspace.Key, error) {
	defer s.forget(items...)
	if pn, ok := s.net.(overlay.PruneNetwork); ok {
		return pn.Prune(context.Background(), items)
	}
	var touched, emptied []keyspace.Key
	for _, it := range items {
		if _, err := s.net.Remove(it.Key, it.Entry); err != nil {
			return nil, fmt.Errorf("remove %s entry %q: %w", it.Entry.Kind, it.Entry.Value, err)
		}
		if matters(it.Key) && !slices.Contains(touched, it.Key) {
			touched = append(touched, it.Key)
		}
	}
	for _, k := range touched {
		empty, err := s.keyEmpty(k)
		if err != nil {
			return nil, err
		}
		if empty {
			emptied = append(emptied, k)
		}
	}
	return emptied, nil
}

// keyEmpty reports whether a key holds neither data nor index entries.
func (s *Service) keyEmpty(key keyspace.Key) (bool, error) {
	entries, _, err := s.net.Get(key)
	if err != nil {
		return false, fmt.Errorf("probe %s: %w", key, err)
	}
	return len(entries) == 0, nil
}
