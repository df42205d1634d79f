package wire_test

import (
	"fmt"
	"testing"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/wire"
)

// TestIndexOverLiveRing layers the paper's index service over a live
// message-passing ring: publish the Fig. 1 articles, then find them by
// every indexed field and via the generalization fallback — the complete
// stack, substrate included, exchanging real protocol messages.
func TestIndexOverLiveRing(t *testing.T) {
	transport := wire.NewMemTransport()
	cluster := wire.NewCluster(transport, 1, 0)
	var nodes []*wire.Node
	var bootstrap string
	for i := 0; i < 8; i++ {
		n, err := wire.Start(wire.Config{Transport: transport, Addr: "mem:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			t.Fatal(err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		wire.LogRingState(t, nodes, nil)
		t.Fatal(err)
	}

	svc := index.New(cluster, cache.Single, 0)
	arts := descriptor.Fig1Articles()
	files := []string{"x.pdf", "y.pdf", "z.pdf"}
	for i, a := range arts {
		if err := svc.PublishArticle(files[i], a, index.Simple); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	searcher := index.NewSearcher(svc)
	a := arts[1] // John Smith, IPv6, INFOCOM 1996
	msd := dataset.MSD(a)
	for _, q := range []struct {
		name  string
		query string
	}{
		{"author", "/article/author[first/John][last/Smith]"},
		{"title", "/article/title/IPv6"},
		{"conf", "/article/conf/INFOCOM"},
		{"year", "/article/year/1996"},
	} {
		parsed, err := dataset.ParseQuery(q.query)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := searcher.Find(parsed, msd)
		if err != nil {
			t.Fatalf("find by %s: %v", q.name, err)
		}
		if !trace.Found || trace.File != "y.pdf" {
			t.Fatalf("find by %s: %+v", q.name, trace)
		}
	}
	// Non-indexed author+year recovers via generalization over the wire.
	trace, err := searcher.Find(dataset.AuthorYearQuery(a.AuthorFirst, a.AuthorLast, a.Year), msd)
	if err != nil || !trace.NonIndexed || !trace.Found {
		t.Fatalf("generalization over wire: %+v, %v", trace, err)
	}
	// Cache shortcut works on the second identical lookup.
	q := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	if _, err := searcher.Find(q, msd); err != nil {
		t.Fatal(err)
	}
	second, err := searcher.Find(q, msd)
	if err != nil || !second.CacheHit {
		t.Fatalf("wire cache hit: %+v, %v", second, err)
	}
	// Storage stats flow through the OpStats RPC.
	st := svc.StorageStats()
	if st.DataEntries != 3 || st.IndexEntries == 0 {
		t.Fatalf("storage over wire: %+v", st)
	}
}

// TestIndexOverLiveRingSurvivesChurn keeps searching while nodes leave
// gracefully.
func TestIndexOverLiveRingSurvivesChurn(t *testing.T) {
	transport := wire.NewMemTransport()
	cluster := wire.NewCluster(transport, 1, 0)
	nodes := make([]*wire.Node, 0, 10)
	var bootstrap string
	for i := 0; i < 10; i++ {
		n, err := wire.Start(wire.Config{Transport: transport, Addr: "mem:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			t.Fatal(err)
		}
		cluster.Track(n.Addr())
		nodes = append(nodes, n)
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		wire.LogRingState(t, nodes, nil)
		t.Fatal(err)
	}
	svc := index.New(cluster, cache.None, 0)
	corpus, err := dataset.Generate(dataset.Config{Articles: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("f%03d.pdf", i), a, index.Flat); err != nil {
			t.Fatal(err)
		}
	}
	searcher := index.NewSearcher(svc)
	// Leave three nodes, re-converge, and verify every article is still
	// findable by title (allowing migration rounds to settle).
	for _, n := range nodes[3:6] {
		if err := n.Leave(); err != nil {
			t.Fatal(err)
		}
		cluster.Untrack(n.Addr())
	}
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		wire.LogRingState(t, append(nodes[:3:3], nodes[6:]...), []string{nodes[3].Addr(), nodes[4].Addr(), nodes[5].Addr()})
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for i, a := range corpus.Articles {
		for {
			trace, err := searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a))
			if err == nil && trace.Found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("article %d unfindable after churn: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
