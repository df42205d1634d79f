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
// (e.g. "x.pdf"). Every mapping is validated first (covering
// requirement, self mappings), so a scheme that breaks either puts
// nothing; then the data entry and the mappings, each once, go out in
// one PutBatch — one message per owner on the live ring, one routed put
// per item on overlay.PerKey.
func (s *Service) PublishArticle(file string, a descriptor.Article, scheme Scheme) error {
	d := a.Descriptor()
	msd := xpath.MostSpecific(d)
	if msd.IsZero() {
		return fmt.Errorf("index: publish %q: %w", file, xpath.ErrEmptyQuery)
	}
	data := overlay.KeyEntry{Key: msd.Key(), Entry: overlay.Entry{Kind: KindData, Value: file}}
	items, err := mappingItems([]overlay.KeyEntry{data}, scheme.Name(), scheme.Chains(a))
	if err != nil {
		return err
	}
	if err := s.net.PutBatch(context.Background(), items); err != nil {
		return fmt.Errorf("index: publish %q: %w", file, err)
	}
	if s.vocabulary {
		return s.RegisterVocabulary(d)
	}
	return nil
}

// mappingItems appends to items, as batch items, the index entry of
// every consecutive pair (q; target) of chains, each once, in the order
// the pairs first appear — a pair that occurs in several chains
// (conf+year → MSD in both the conf and the year chain) is appended
// once. It validates them as InsertMapping does: one self mapping or
// non-covering pair fails the whole list. scheme names the chains'
// scheme in errors.
func mappingItems(items []overlay.KeyEntry, scheme string, chains [][]xpath.Query) ([]overlay.KeyEntry, error) {
	for _, chain := range chains {
		for i := 0; i+1 < len(chain); i++ {
			q, target := chain[i], chain[i+1]
			it := overlay.KeyEntry{Key: q.Key(), Entry: overlay.Entry{Kind: KindIndex, Value: target.String()}}
			if slices.Contains(items, it) {
				continue
			}
			if q.Equal(target) {
				return nil, fmt.Errorf("index: scheme %s: %w: %s", scheme, ErrSelfMapping, q)
			}
			if !q.Covers(target) {
				return nil, fmt.Errorf("index: scheme %s: %w: (%s ; %s)", scheme, ErrNotCovering, q, target)
			}
			items = append(items, it)
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
	mappings, err := mappingItems(nil, scheme.Name(), scheme.Chains(a))
	if err != nil {
		return fmt.Errorf("index: unpublish %q: %w", file, err)
	}
	// into lists, per target key, the not-yet-removed mappings into it;
	// a mapping's value is its target's canonical form, the key's source.
	into := make(map[keyspace.Key][]overlay.KeyEntry)
	for _, m := range mappings {
		target := keyspace.NewKey(m.Entry.Value)
		into[target] = append(into[target], m)
	}
	level := []overlay.KeyEntry{{Key: dataset.MSD(a).Key(), Entry: overlay.Entry{Kind: KindData, Value: file}}}
	for len(level) > 0 {
		emptied, err := s.net.Prune(context.Background(), level)
		s.forget(level...)
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
