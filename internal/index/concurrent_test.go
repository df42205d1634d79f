package index

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

// TestConcurrentClientsAgree runs four clients of one service at once
// (run with -race) while a fifth publishes and unpublishes a side set of
// articles that share conferences and years with the rest. Whatever the
// interleaving, every find of an article that stays published finds it,
// every automated search returns every published article its query
// covers and no article that was never published, and no node's
// shortcut store outgrows its bound. Once the goroutines stop, a search
// returns exactly the published set and the cache statistics add up to
// the per-node counts. The LRU-4 case evicts on almost every shortcut.
func TestConcurrentClientsAgree(t *testing.T) {
	const clients, rounds, toggles = 4, 30, 24
	corpus, err := dataset.Generate(dataset.Config{Articles: 72, Conferences: 3, FirstYear: 2000, LastYear: 2002, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	base, side := corpus.Articles[:48], corpus.Articles[48:]
	var queries []xpath.Query
	for _, a := range base {
		queries = append(queries, dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast),
			dataset.ConfYearQuery(a.Conf, a.Year), dataset.ConfQuery(a.Conf))
	}
	// covered returns the MSDs of the articles of arts that q covers.
	covered := func(q xpath.Query, arts ...descriptor.Article) map[string]bool {
		msds := make(map[string]bool)
		for _, a := range arts {
			if msd := dataset.MSD(a); q.Covers(msd) {
				msds[msd.String()] = true
			}
		}
		return msds
	}
	for _, tc := range []struct {
		policy   cache.Policy
		capacity int
	}{{cache.LRU, 4}, {cache.Multi, 0}} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			ring, err := wire.StartMemRing(12, 1, 7)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ring.Close)
			svc := New(ring, tc.policy, tc.capacity)
			for i, a := range base {
				if err := svc.PublishArticle(fmt.Sprintf("b-%d.pdf", i), a, Simple); err != nil {
					t.Fatal(err)
				}
			}
			// overfull reports a node store over the LRU bound.
			overfull := func() error {
				if stats := svc.CacheStats(); tc.capacity > 0 && stats.MaxKeys > tc.capacity {
					return fmt.Errorf("a node store holds %d shortcuts, bound %d", stats.MaxKeys, tc.capacity)
				}
				return nil
			}
			// search checks one automated search: every article in must
			// come back, and nothing outside in ∪ maybe.
			search := func(searcher *Searcher, q xpath.Query, in, maybe map[string]bool) error {
				results, _, err := searcher.SearchAll(q)
				if err != nil {
					return fmt.Errorf("search %s: %v", q, err)
				}
				got := make(map[string]bool)
				for _, r := range results {
					got[r.MSD.String()] = true
					if !in[r.MSD.String()] && !maybe[r.MSD.String()] {
						return fmt.Errorf("search %s returned %s, never published", q, r.MSD)
					}
				}
				for msd := range in {
					if !got[msd] {
						return fmt.Errorf("search %s missed published %s", q, msd)
					}
				}
				return nil
			}

			published := make([]bool, len(side))
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < toggles; i++ {
					j := i % len(side)
					file := fmt.Sprintf("s-%d.pdf", j)
					var err error
					if published[j] {
						err = svc.UnpublishArticle(file, side[j], Simple)
					} else {
						err = svc.PublishArticle(file, side[j], Simple)
					}
					if err != nil {
						t.Errorf("toggle %d: %v", j, err)
						return
					}
					published[j] = !published[j]
				}
			}()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					searcher := NewSearcher(svc)
					for i := 0; i < rounds; i++ {
						a := base[(c*rounds+i)%len(base)]
						trace, err := searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a))
						if err != nil || !trace.Found {
							t.Errorf("client %d: find %q: found %v, %v", c, a.Title, trace.Found, err)
							return
						}
						q := queries[(c*rounds+7*i)%len(queries)]
						if err := search(searcher, q, covered(q, base...), covered(q, side...)); err != nil {
							t.Errorf("client %d: %v", c, err)
							return
						}
						if err := overfull(); err != nil {
							t.Errorf("client %d: %v", c, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			live := slices.Clone(base)
			for j, a := range side {
				if published[j] {
					live = append(live, a)
				}
			}
			searcher := NewSearcher(svc)
			for _, a := range side {
				q := dataset.ConfYearQuery(a.Conf, a.Year)
				if err := search(searcher, q, covered(q, live...), nil); err != nil {
					t.Errorf("after the storm: %v", err)
				}
			}
			if err := overfull(); err != nil {
				t.Error(err)
			}
			stats, sum := svc.CacheStats(), 0
			for _, addr := range svc.Network().Addrs() {
				n, _ := svc.shortcutCount(addr)
				sum += n
			}
			if stats.TotalKeys != sum || sum == 0 {
				t.Errorf("CacheStats().TotalKeys = %d, per-node counts add up to %d", stats.TotalKeys, sum)
			}
		})
	}
}
