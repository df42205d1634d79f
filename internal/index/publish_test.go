package index

import (
	"fmt"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/xpath"
)

// pairCountingNetwork counts the Puts and Removes issued against the
// network it wraps, per (key, entry) pair. It has only the Network
// methods, so New drives it through overlay.PerKey: one Put per batch
// item, one Remove per pruned item.
type pairCountingNetwork struct {
	overlay.Network
	puts, removes map[overlay.KeyEntry]int
}

func (c *pairCountingNetwork) Put(key keyspace.Key, e overlay.Entry) (overlay.Route, error) {
	c.puts[overlay.KeyEntry{Key: key, Entry: e}]++
	return c.Network.Put(key, e)
}

func (c *pairCountingNetwork) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	c.removes[overlay.KeyEntry{Key: key, Entry: e}]++
	return c.Network.Remove(key, e)
}

func (c *pairCountingNetwork) reset() {
	c.puts = make(map[overlay.KeyEntry]int)
	c.removes = make(map[overlay.KeyEntry]int)
}

// mapping is the stored pair of the index entry (q; target).
func mapping(q, target xpath.Query) overlay.KeyEntry {
	return overlay.KeyEntry{Key: q.Key(), Entry: overlay.Entry{Kind: KindIndex, Value: target.String()}}
}

// expectedPairs lists what publishing a under scheme stores (the data
// entry and every chain pair) and what promoting it adds (every chain
// query but the last two, mapped to the MSD), each as a set.
func expectedPairs(file string, a descriptor.Article, scheme Scheme) (publish, promote map[overlay.KeyEntry]bool) {
	msd := dataset.MSD(a)
	publish = map[overlay.KeyEntry]bool{{Key: msd.Key(), Entry: overlay.Entry{Kind: KindData, Value: file}}: true}
	promote = map[overlay.KeyEntry]bool{}
	for _, chain := range scheme.Chains(a) {
		for i := 0; i+1 < len(chain); i++ {
			publish[mapping(chain[i], chain[i+1])] = true
			if i+2 < len(chain) {
				promote[mapping(chain[i], msd)] = true
			}
		}
	}
	return publish, promote
}

// checkOnce fails unless the call named op issued exactly the pairs of
// want, each once.
func checkOnce(t *testing.T, op string, got map[overlay.KeyEntry]int, want map[overlay.KeyEntry]bool) {
	t.Helper()
	for pair, n := range got {
		switch {
		case !want[pair]:
			t.Fatalf("%s wrote %s %q under %s, which it should not touch", op, pair.Entry.Kind, pair.Entry.Value, pair.Key.Short())
		case n != 1:
			t.Fatalf("%s wrote %s %q under %s %d times, want once", op, pair.Entry.Kind, pair.Entry.Value, pair.Key.Short(), n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s wrote %d pairs, want %d", op, len(got), len(want))
	}
}

// TestPublishWritesEachPairOnce publishes and promotes every article of
// a seeded corpus under each scheme over overlay.PerKey: each call must
// Put every pair it stores exactly once, a pair that two chains share
// (conf+year → MSD under simple and complex) included. Then it demotes
// and unpublishes them all: each pair ever stored must be removed
// exactly once over the whole cleanup, which must leave nothing behind.
func TestPublishWritesEachPairOnce(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{Simple, Flat, Complex, Fig4, WithKeywords(Complex, 4), WithInitials(Simple)}
	for _, scheme := range schemes {
		t.Run(scheme.Name(), func(t *testing.T) {
			net := &pairCountingNetwork{Network: testRing(t, 8, 1)}
			svc := New(net, cache.None, 0)
			file := func(i int) string { return fmt.Sprintf("p%04d.pdf", i) }
			stored := map[overlay.KeyEntry]bool{}
			for i, a := range corpus.Articles {
				publish, promote := expectedPairs(file(i), a, scheme)
				net.reset()
				if err := svc.PublishArticle(file(i), a, scheme); err != nil {
					t.Fatal(err)
				}
				checkOnce(t, fmt.Sprintf("publish %d", i), net.puts, publish)
				net.reset()
				if err := svc.PromoteArticle(a, scheme); err != nil {
					t.Fatal(err)
				}
				checkOnce(t, fmt.Sprintf("promote %d", i), net.puts, promote)
				for pair := range publish {
					stored[pair] = true
				}
				for pair := range promote {
					stored[pair] = true
				}
			}
			net.reset()
			for i, a := range corpus.Articles {
				if err := svc.DemoteArticle(a, scheme); err != nil {
					t.Fatal(err)
				}
				if err := svc.UnpublishArticle(file(i), a, scheme); err != nil {
					t.Fatal(err)
				}
			}
			if len(net.puts) != 0 {
				t.Fatalf("the cleanup put %d pairs", len(net.puts))
			}
			checkOnce(t, "demote and unpublish", net.removes, stored)
			if stats := svc.StorageStats(); stats.IndexEntries != 0 || stats.DataEntries != 0 {
				t.Fatalf("entries left behind: %+v", stats)
			}
		})
	}
}
