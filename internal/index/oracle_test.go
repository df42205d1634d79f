package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

// scanModel is the reference TestIndexAgainstScan holds the index to:
// the articles, which of them are live, and the (key, entry) pairs the
// Simple scheme puts on the ring for them.
//
// Two rules the paper does not state are written down here:
//   - A removal is final. An unpublish removes entries, and the ring
//     keeps a tombstone for each, so a later put of the same pair is
//     suppressed (DESIGN.md §15). An article is never published twice.
//     But a later article that shares a pair with one that went (conf →
//     conf+year, when every article of that conf+year was unpublished)
//     is published in part: it is shadowed, and searches may or may not
//     reach it.
//   - A shortcut may outlive its target. Following one to an
//     unpublished MSD finds no file, so it never yields a result.
type scanModel struct {
	arts     []descriptor.Article
	state    []int // unpublished (never published), live or removed
	shadowed []bool
	pairs    map[overlay.KeyEntry]bool
	perKey   map[keyspace.Key]int
	tombs    map[overlay.KeyEntry]bool
}

const (
	unpublished = iota
	live
	removed
)

func newScanModel(arts []descriptor.Article) *scanModel {
	return &scanModel{
		arts:     arts,
		state:    make([]int, len(arts)),
		shadowed: make([]bool, len(arts)),
		pairs:    make(map[overlay.KeyEntry]bool),
		perKey:   make(map[keyspace.Key]int),
		tombs:    make(map[overlay.KeyEntry]bool),
	}
}

func oracleFile(i int) string { return fmt.Sprintf("art-%d.pdf", i) }

// items returns article i's data entry followed by its scheme mappings.
func (m *scanModel) items(t *testing.T, i int) (data overlay.KeyEntry, mappings []overlay.KeyEntry) {
	t.Helper()
	a := m.arts[i]
	mappings, err := mappingItems(nil, Simple.Name(), Simple.Chains(a))
	if err != nil {
		t.Fatal(err)
	}
	return overlay.KeyEntry{Key: dataset.MSD(a).Key(), Entry: overlay.Entry{Kind: KindData, Value: oracleFile(i)}}, mappings
}

func (m *scanModel) publish(t *testing.T, i int) {
	data, mappings := m.items(t, i)
	for _, it := range append([]overlay.KeyEntry{data}, mappings...) {
		switch {
		case m.tombs[it]:
			m.shadowed[i] = true
		case !m.pairs[it]:
			m.pairs[it] = true
			m.perKey[it.Key]++
		}
	}
	m.state[i] = live
}

// unpublish removes article i as UnpublishArticle specifies: the data
// entry, then, level by level, each of the article's mappings into a
// key the previous level left empty.
func (m *scanModel) unpublish(t *testing.T, i int) {
	data, mappings := m.items(t, i)
	level := []overlay.KeyEntry{data}
	for len(level) > 0 {
		var emptied []keyspace.Key
		for _, it := range level {
			if m.pairs[it] {
				delete(m.pairs, it)
				m.perKey[it.Key]--
			}
			m.tombs[it] = true
			if m.perKey[it.Key] == 0 && !slices.Contains(emptied, it.Key) {
				emptied = append(emptied, it.Key)
			}
		}
		level = nil
		for _, k := range emptied {
			for _, mp := range mappings {
				if keyspace.NewKey(mp.Entry.Value) == k {
					level = append(level, mp)
				}
			}
		}
	}
	m.state[i] = removed
}

func (m *scanModel) shadowedCount() int {
	n := 0
	for _, s := range m.shadowed {
		if s {
			n++
		}
	}
	return n
}

// entries returns the sorted index targets and files the model holds
// under key.
func (m *scanModel) entries(key keyspace.Key) (index, files []string) {
	for it := range m.pairs {
		if it.Key != key {
			continue
		}
		if it.Entry.Kind == KindIndex {
			index = append(index, it.Entry.Value)
		} else {
			files = append(files, it.Entry.Value)
		}
	}
	slices.Sort(index)
	slices.Sort(files)
	return index, files
}

// queries lists the queries the test asks about article a: the five
// indexed single-field and pair queries of the workload, the
// author+title pair, and author+conference, which no scheme indexes and
// so takes the generalization fallback.
func oracleQueries(a descriptor.Article) []xpath.Query {
	return []xpath.Query{
		dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast),
		dataset.TitleQuery(a.Title),
		dataset.ConfQuery(a.Conf),
		dataset.YearQuery(a.Year),
		dataset.ConfYearQuery(a.Conf, a.Year),
		dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title),
		dataset.AuthorConfQuery(a.AuthorFirst, a.AuthorLast, a.Conf),
	}
}

// oracleArticles is a small generated corpus, dense in shared
// conferences and years, plus articles whose values hold the query
// dialect's metacharacters.
func oracleArticles(t *testing.T) []descriptor.Article {
	t.Helper()
	corpus, err := dataset.Generate(dataset.Config{Articles: 60, Conferences: 3, FirstYear: 2000, LastYear: 2002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	arts := corpus.Articles
	for _, title := range []string{"TCP/IP Illustrated", "Paper [draft]", "a=b, \"quoted\"", `back\slash`} {
		a := arts[len(arts)%7]
		a.Title = title
		arts = append(arts, a)
	}
	return arts
}

// TestIndexAgainstScan runs a seeded sequence of publishes, unpublishes,
// lookups, directed searches and automated searches, and checks every
// answer against a scan of the live descriptors. A second service, with
// kept lists and shortcuts of its own, makes most of the writes, so the
// first one's kept lists, digests and shortcuts go stale behind its
// back. It runs on the live cluster, whose lookups and batched frontier
// reads are conditional, and on PerKey over it, whose are not, with
// automated searches at Parallelism 1 and 8. The checks:
//   - Lookup(q) returns the index entries and files the model holds
//     under q's key.
//   - SearchAll(q) returns every live article q matches that is not
//     shadowed, and nothing that is not live or that q does not match;
//     nothing is left unresolved.
//   - Find(q, t) retrieves t when t is live and not shadowed, and never
//     retrieves an article that is not live.
func TestIndexAgainstScan(t *testing.T) {
	const ops = 400
	for _, tc := range []struct {
		name string
		net  func(*wire.MemRing) overlay.Network
	}{
		{"cluster", func(r *wire.MemRing) overlay.Network { return r.Cluster }},
		{"per-key", func(r *wire.MemRing) overlay.Network { return overlay.PerKey(r.Cluster) }},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", tc.name, seed), func(t *testing.T) {
				ring, err := wire.StartMemRing(8, 1, seed)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ring.Close)
				net := tc.net(ring)
				reader, writer := New(net, cache.LRU, 3), New(net, cache.Single, 0)
				seq, par := NewSearcher(reader), NewSearcher(reader)
				par.Parallelism = 8
				m := newScanModel(oracleArticles(t))
				rng := rand.New(rand.NewSource(seed))
				pick := func(state int) (int, bool) {
					var is []int
					for i, s := range m.state {
						if s == state {
							is = append(is, i)
						}
					}
					if len(is) == 0 {
						return 0, false
					}
					return is[rng.Intn(len(is))], true
				}
				var count [4]int // publishes, unpublishes, finds, searches
				for op := 0; op < ops && !t.Failed(); op++ {
					// The writer makes three writes in four.
					svc := writer
					if rng.Intn(4) == 0 {
						svc = reader
					}
					switch r := rng.Intn(20); {
					case r < 6:
						if i, ok := pick(unpublished); ok {
							if err := svc.PublishArticle(oracleFile(i), m.arts[i], Simple); err != nil {
								t.Fatalf("op %d: publish %d: %v", op, i, err)
							}
							m.publish(t, i)
							count[0]++
						}
					case r < 9:
						if i, ok := pick(live); ok {
							if err := svc.UnpublishArticle(oracleFile(i), m.arts[i], Simple); err != nil {
								t.Fatalf("op %d: unpublish %d: %v", op, i, err)
							}
							m.unpublish(t, i)
							count[1]++
						}
					default:
						i := rng.Intn(len(m.arts))
						qs := oracleQueries(m.arts[i])
						q := qs[rng.Intn(len(qs))]
						checkScanLookup(t, op, reader, m, q)
						if r < 14 {
							checkScanFind(t, op, seq, m, q, i)
							count[2]++
						} else {
							// The batched search goes first, so the lists it
							// offers are as stale as the sequence left them.
							checkScanSearch(t, op, par, m, q)
							checkScanSearch(t, op, seq, m, q)
							count[3]++
						}
					}
				}
				t.Logf("%d publishes, %d unpublishes, %d finds, %d searches; %d articles shadowed",
					count[0], count[1], count[2], count[3], m.shadowedCount())
			})
		}
	}
}

// checkScanLookup checks reader's lookup of q against the model.
func checkScanLookup(t *testing.T, op int, svc *Service, m *scanModel, q xpath.Query) {
	t.Helper()
	resp, err := svc.Lookup(q)
	if err != nil {
		t.Fatalf("op %d: lookup %s: %v", op, q, err)
	}
	index := make([]string, len(resp.Index))
	for i, e := range resp.Index {
		index[i] = e.String()
	}
	files := slices.Clone(resp.Files)
	slices.Sort(files)
	wantIndex, wantFiles := m.entries(q.Key())
	if !slices.Equal(index, wantIndex) || !slices.Equal(files, wantFiles) {
		t.Fatalf("op %d: lookup %s = index %q files %q, the model holds %q and %q", op, q, index, files, wantIndex, wantFiles)
	}
}

// checkScanSearch checks one automated search against the model: it
// must return every live match that is not shadowed, and nothing else.
func checkScanSearch(t *testing.T, op int, searcher *Searcher, m *scanModel, q xpath.Query) {
	t.Helper()
	results, trace, err := searcher.SearchAll(q)
	if err != nil || len(trace.Unresolved) > 0 {
		t.Fatalf("op %d: search %s at parallelism %d: %v, unresolved %v", op, q, searcher.Parallelism, err, trace.Unresolved)
	}
	got := make(map[string]bool)
	for _, r := range results {
		got[r.File] = true
		i := slices.IndexFunc(m.arts, func(a descriptor.Article) bool { return dataset.MSD(a).Equal(r.MSD) })
		if i < 0 || r.File != oracleFile(i) || m.state[i] != live || !q.Matches(m.arts[i].Descriptor()) {
			t.Fatalf("op %d: search %s at parallelism %d returned %s under %s, which is not a live match", op, q, searcher.Parallelism, r.File, r.MSD)
		}
	}
	for i, a := range m.arts {
		if m.state[i] == live && !m.shadowed[i] && q.Matches(a.Descriptor()) && !got[oracleFile(i)] {
			t.Fatalf("op %d: search %s at parallelism %d missed live %s (%s)", op, q, searcher.Parallelism, oracleFile(i), dataset.MSD(a))
		}
	}
}

func checkScanFind(t *testing.T, op int, searcher *Searcher, m *scanModel, q xpath.Query, i int) {
	t.Helper()
	trace, err := searcher.Find(q, dataset.MSD(m.arts[i]))
	switch {
	case trace.Found && (m.state[i] != live || trace.File != oracleFile(i)):
		t.Fatalf("op %d: find %s from %s retrieved %s, state %d", op, oracleFile(i), q, trace.File, m.state[i])
	case m.state[i] == live && !m.shadowed[i] && (!trace.Found || err != nil):
		t.Fatalf("op %d: find live %s from %s: found %v, %v", op, oracleFile(i), q, trace.Found, err)
	}
}
