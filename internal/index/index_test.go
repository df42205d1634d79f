package index

import (
	"errors"
	"fmt"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

// testRing boots an n-node live ring for one test and stops it at
// cleanup. It is driven through overlay.PerKey: one message per key.
func testRing(t testing.TB, n int, seed int64) overlay.Substrate {
	t.Helper()
	ring, err := wire.StartMemRing(n, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ring.Close)
	return overlay.PerKey(ring)
}

// fig1Service builds a small network publishing the three Fig. 1 articles
// under the given scheme and cache policy.
func fig1Service(t *testing.T, scheme Scheme, policy cache.Policy, lruCap int) (*Service, []descriptor.Article) {
	t.Helper()
	net := testRing(t, 16, 1)
	svc := New(net, policy, lruCap)
	arts := descriptor.Fig1Articles()
	files := []string{"x.pdf", "y.pdf", "z.pdf"}
	for i, a := range arts {
		if err := svc.PublishArticle(files[i], a, scheme); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	return svc, arts
}

func TestInsertMappingEnforcesCovering(t *testing.T) {
	net := testRing(t, 4, 1)
	svc := New(net, cache.None, 0)
	smith := dataset.LastNameQuery("Smith")
	doeTitle := dataset.AuthorTitleQuery("Alan", "Doe", "Wavelets")
	if err := svc.InsertMapping(smith, doeTitle); !errors.Is(err, ErrNotCovering) {
		t.Fatalf("err = %v, want ErrNotCovering", err)
	}
	if err := svc.InsertMapping(smith, smith); !errors.Is(err, ErrSelfMapping) {
		t.Fatalf("err = %v, want ErrSelfMapping", err)
	}
	john := dataset.AuthorQuery("John", "Smith")
	if err := svc.InsertMapping(smith, john); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
}

func TestLookupReturnsMappings(t *testing.T) {
	svc, _ := fig1Service(t, Fig4, cache.None, 0)
	resp, err := svc.Lookup(dataset.LastNameQuery("Smith"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Index) != 1 {
		t.Fatalf("Last-name Smith index = %v, want 1 entry (John Smith)", resp.Index)
	}
	if !resp.Index[0].Equal(dataset.AuthorQuery("John", "Smith")) {
		t.Fatalf("entry = %q", resp.Index[0])
	}
	if resp.Bytes <= 0 {
		t.Fatal("response bytes not accounted")
	}
}

// TestFig6IndexPath replays the paper's §IV-A walk: "given q6, a user will
// first obtain q3; ... two new queries that link to d1 and d2; ... retrieve
// the two files".
func TestFig6IndexPath(t *testing.T) {
	svc, arts := fig1Service(t, Fig4, cache.None, 0)
	q6 := dataset.LastNameQuery("Smith")
	resp, err := svc.Lookup(q6)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Index) != 1 {
		t.Fatalf("step 1: %v", resp.Index)
	}
	q3 := resp.Index[0]
	resp, err = svc.Lookup(q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Index) != 2 {
		t.Fatalf("step 2: author index should list 2 article queries, got %v", resp.Index)
	}
	files := map[string]bool{}
	for _, at := range resp.Index {
		r2, err := svc.Lookup(at)
		if err != nil {
			t.Fatal(err)
		}
		if len(r2.Index) != 1 {
			t.Fatalf("article index for %s: %v", at, r2.Index)
		}
		r3, err := svc.Lookup(r2.Index[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range r3.Files {
			files[f] = true
		}
	}
	if !files["x.pdf"] || !files["y.pdf"] || len(files) != 2 {
		t.Fatalf("retrieved files = %v, want x.pdf and y.pdf", files)
	}
	_ = arts
}

func TestFindDirectedAllSchemes(t *testing.T) {
	wantDepth := map[string]int{
		// interactions for an author-only query, including data fetch
		"simple":  3, // author -> author+title -> MSD(fetch)... plus fetch = author, AT, MSD = 3 lookups? see below
		"flat":    2,
		"complex": 4,
		"fig4":    3,
	}
	for _, scheme := range []Scheme{Simple, Flat, Complex, Fig4} {
		svc, arts := fig1Service(t, scheme, cache.None, 0)
		searcher := NewSearcher(svc)
		a := arts[0] // John Smith, TCP
		trace, err := searcher.Find(dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.MSD(a))
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if !trace.Found || trace.File != "x.pdf" {
			t.Fatalf("%s: trace = %+v", scheme.Name(), trace)
		}
		if trace.Interactions != wantDepth[scheme.Name()] {
			t.Errorf("%s: interactions = %d, want %d",
				scheme.Name(), trace.Interactions, wantDepth[scheme.Name()])
		}
		if trace.NonIndexed || trace.CacheHit {
			t.Errorf("%s: unexpected flags in %+v", scheme.Name(), trace)
		}
	}
}

// TestFindMetacharacterTitles: an article whose title holds a dialect
// metacharacter is found by its author like any other. Its MSD's canonical
// form must parse back to the MSD: a response entry that does not parse is
// dropped, and one that parses to another query does not cover the
// target, so the directed search got stuck at the author index.
func TestFindMetacharacterTitles(t *testing.T) {
	svc := New(testRing(t, 4, 1), cache.None, 0)
	searcher := NewSearcher(svc)
	arts := []descriptor.Article{descriptor.Fig1Articles()[0]}
	for _, title := range []string{"TCP/IP Illustrated", "Paper [draft]"} {
		a := arts[0]
		a.Title = title
		arts = append(arts, a)
	}
	for i, a := range arts {
		if err := svc.PublishArticle(fmt.Sprintf("%d.pdf", i), a, Simple); err != nil {
			t.Fatalf("publish %q: %v", a.Title, err)
		}
	}
	for i, a := range arts {
		trace, err := searcher.Find(dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.MSD(a))
		if err != nil {
			t.Fatalf("Find(%q): %v", a.Title, err)
		}
		if want := fmt.Sprintf("%d.pdf", i); !trace.Found || trace.File != want {
			t.Fatalf("Find(%q) = %+v, want %s", a.Title, trace, want)
		}
	}
}

func TestFindByEveryIndexedField(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.None, 0)
	searcher := NewSearcher(svc)
	a := arts[1] // John Smith, IPv6, INFOCOM 1996
	queries := []xpath.Query{
		dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast),
		dataset.TitleQuery(a.Title),
		dataset.ConfQuery(a.Conf),
		dataset.YearQuery(a.Year),
		dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title),
		dataset.ConfYearQuery(a.Conf, a.Year),
		dataset.MSD(a),
	}
	for _, q := range queries {
		trace, err := searcher.Find(q, dataset.MSD(a))
		if err != nil {
			t.Fatalf("Find(%s): %v", q, err)
		}
		if !trace.Found || trace.File != "y.pdf" {
			t.Fatalf("Find(%s): %+v", q, trace)
		}
	}
}

func TestFindNonIndexedGeneralizes(t *testing.T) {
	for _, scheme := range Schemes() {
		svc, arts := fig1Service(t, scheme, cache.None, 0)
		searcher := NewSearcher(svc)
		a := arts[1]
		q := dataset.AuthorYearQuery(a.AuthorFirst, a.AuthorLast, a.Year)
		trace, err := searcher.Find(q, dataset.MSD(a))
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if !trace.Found || !trace.NonIndexed {
			t.Fatalf("%s: trace = %+v, want found via generalization", scheme.Name(), trace)
		}
		// The recovery costs exactly one extra interaction here: the
		// failed lookup plus one generalization probe that succeeds.
		base := map[string]int{"simple": 3, "flat": 2, "complex": 4}[scheme.Name()]
		if trace.Interactions != base+1 {
			t.Errorf("%s: interactions = %d, want %d", scheme.Name(), trace.Interactions, base+1)
		}
	}
}

func TestFindTargetMissing(t *testing.T) {
	svc, _ := fig1Service(t, Simple, cache.None, 0)
	searcher := NewSearcher(svc)
	ghost := descriptor.Article{
		AuthorFirst: "No", AuthorLast: "One", Title: "Nothing",
		Conf: "NOWHERE", Year: 1900, Size: 1,
	}
	_, err := searcher.Find(dataset.AuthorQuery("No", "One"), dataset.MSD(ghost))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFindZeroQueries(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.None, 0)
	searcher := NewSearcher(svc)
	if _, err := searcher.Find(xpath.Query{}, dataset.MSD(arts[0])); err == nil {
		t.Fatal("zero query accepted")
	}
	if _, err := searcher.Find(dataset.TitleQuery("TCP"), xpath.Query{}); err == nil {
		t.Fatal("zero target accepted")
	}
}

func TestSingleCacheHitSecondLookup(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.Single, 0)
	searcher := NewSearcher(svc)
	a := arts[0]
	q := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	first, err := searcher.Find(q, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.CacheBytes == 0 {
		t.Fatalf("first lookup: %+v, want shortcut created, no hit", first)
	}
	second, err := searcher.Find(q, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || !second.FirstNodeHit {
		t.Fatalf("second lookup: %+v, want first-node cache hit", second)
	}
	if second.Interactions != 2 {
		t.Fatalf("cache-hit interactions = %d, want 2", second.Interactions)
	}
	if second.CacheBytes != 0 {
		t.Fatalf("hit should create no new shortcut, got %d cache bytes", second.CacheBytes)
	}
}

func TestMultiCacheMidPathHit(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.Multi, 0)
	searcher := NewSearcher(svc)
	a := arts[0]
	// Author lookup installs shortcuts at the author node AND the
	// author+title node.
	if _, err := searcher.Find(dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.MSD(a)); err != nil {
		t.Fatal(err)
	}
	// A title lookup passes through the same author+title node: mid-path
	// hit, not a first-node hit.
	trace, err := searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if !trace.CacheHit || trace.FirstNodeHit {
		t.Fatalf("trace = %+v, want mid-path hit", trace)
	}
}

func TestSingleCacheNoMidPathShortcuts(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.Single, 0)
	searcher := NewSearcher(svc)
	a := arts[0]
	if _, err := searcher.Find(dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.MSD(a)); err != nil {
		t.Fatal(err)
	}
	trace, err := searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if trace.CacheHit {
		t.Fatalf("trace = %+v: single-cache must not install mid-path shortcuts", trace)
	}
}

func TestCacheFixesNonIndexedErrors(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.Single, 0)
	searcher := NewSearcher(svc)
	a := arts[1]
	q := dataset.AuthorYearQuery(a.AuthorFirst, a.AuthorLast, a.Year)
	first, err := searcher.Find(q, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if !first.NonIndexed {
		t.Fatalf("first: %+v, want NonIndexed", first)
	}
	second, err := searcher.Find(q, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if second.NonIndexed || !second.CacheHit {
		t.Fatalf("second: %+v, want cache hit without error", second)
	}
}

func TestAdaptiveIndexingInsertsPermanentEntry(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.None, 0)
	searcher := NewSearcher(svc)
	searcher.AdaptiveIndexing = true
	a := arts[1]
	q := dataset.AuthorYearQuery(a.AuthorFirst, a.AuthorLast, a.Year)
	if _, err := searcher.Find(q, dataset.MSD(a)); err != nil {
		t.Fatal(err)
	}
	// Even with caching off, the on-demand index entry now answers q.
	second, err := searcher.Find(q, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if second.NonIndexed {
		t.Fatalf("second: %+v, adaptive entry missing", second)
	}
	if second.Interactions != 2 {
		t.Fatalf("interactions = %d, want 2 via permanent entry", second.Interactions)
	}
}

func TestShortcircuitEntrySpeedsUpLookup(t *testing.T) {
	// §IV-C: "a very popular file can be linked to deep in the hierarchy
	// to short-circuit some indexes" — add (q6; d1) directly.
	svc, arts := fig1Service(t, Fig4, cache.None, 0)
	searcher := NewSearcher(svc)
	a := arts[0]
	q6 := dataset.LastNameQuery(a.AuthorLast)
	before, err := searcher.Find(q6, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.InsertMapping(q6, dataset.MSD(a)); err != nil {
		t.Fatal(err)
	}
	after, err := searcher.Find(q6, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if after.Interactions >= before.Interactions {
		t.Fatalf("short-circuit did not help: before=%d after=%d",
			before.Interactions, after.Interactions)
	}
	if after.Interactions != 2 {
		t.Fatalf("short-circuited lookup = %d interactions, want 2", after.Interactions)
	}
}

func TestUnpublishRecursiveCleanup(t *testing.T) {
	svc, arts := fig1Service(t, Fig4, cache.None, 0)
	// Remove d3 (Alan Doe): every Doe-related index entry should vanish,
	// but shared INFOCOM/1996 keys must survive (d2 still uses them).
	if err := svc.UnpublishArticle("z.pdf", arts[2], Fig4); err != nil {
		t.Fatal(err)
	}
	doe, err := svc.Lookup(dataset.LastNameQuery("Doe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doe.Index) != 0 {
		t.Fatalf("Doe last-name entries remain: %v", doe.Index)
	}
	cy, err := svc.Lookup(dataset.ConfYearQuery("INFOCOM", 1996))
	if err != nil {
		t.Fatal(err)
	}
	if len(cy.Index) != 1 {
		t.Fatalf("INFOCOM/1996 should still index d2, got %v", cy.Index)
	}
	// d2 must remain fully findable.
	searcher := NewSearcher(svc)
	trace, err := searcher.Find(dataset.ConfQuery("INFOCOM"), dataset.MSD(arts[1]))
	if err != nil || !trace.Found {
		t.Fatalf("d2 lost after cleanup: %+v, %v", trace, err)
	}
	// d3 is gone.
	if _, err := searcher.Find(dataset.TitleQuery("Wavelets"), dataset.MSD(arts[2])); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound for deleted article", err)
	}
}

func TestSearchAllBroadQuery(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.None, 0)
	searcher := NewSearcher(svc)
	results, trace, err := searcher.SearchAll(dataset.ConfQuery("INFOCOM"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %v, want the 2 INFOCOM articles", results)
	}
	if !trace.Found || trace.Interactions < 3 {
		t.Fatalf("trace = %+v", trace)
	}
	_ = arts
}

func TestSearchAllAuthorAcrossSchemes(t *testing.T) {
	for _, scheme := range []Scheme{Simple, Flat, Complex, Fig4} {
		svc, _ := fig1Service(t, scheme, cache.None, 0)
		searcher := NewSearcher(svc)
		results, _, err := searcher.SearchAll(dataset.AuthorQuery("John", "Smith"))
		if err != nil {
			t.Fatalf("%s: %v", scheme.Name(), err)
		}
		if len(results) != 2 {
			t.Fatalf("%s: results = %v, want 2 Smith articles", scheme.Name(), results)
		}
	}
}

func TestSearchAllNonIndexedQuery(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.None, 0)
	searcher := NewSearcher(svc)
	a := arts[1]
	results, trace, err := searcher.SearchAll(
		dataset.AuthorYearQuery(a.AuthorFirst, a.AuthorLast, a.Year))
	if err != nil {
		t.Fatal(err)
	}
	if !trace.NonIndexed {
		t.Fatalf("trace = %+v, want NonIndexed", trace)
	}
	if len(results) != 1 || results[0].File != "y.pdf" {
		t.Fatalf("results = %v, want just y.pdf", results)
	}
}

// TestSearchAllGeneralizesPastShortcut: a find from a non-indexed
// author+conference query leaves a shortcut on that key, to the article
// it retrieved. An automated search of the same query must still
// generalize and return the author's other article at that conference.
func TestSearchAllGeneralizesPastShortcut(t *testing.T) {
	svc, arts := fig1Service(t, Simple, cache.Single, 0)
	second := arts[0]
	second.Title, second.Year = "Multicast", 1995
	if err := svc.PublishArticle("w.pdf", second, Simple); err != nil {
		t.Fatal(err)
	}
	searcher := NewSearcher(svc)
	q := dataset.AuthorConfQuery(second.AuthorFirst, second.AuthorLast, second.Conf)
	if trace, err := searcher.Find(q, dataset.MSD(arts[0])); err != nil || !trace.Found {
		t.Fatalf("find: %+v, %v", trace, err)
	}
	if resp, err := svc.Lookup(q); err != nil || len(resp.Index)+len(resp.Files) != 0 || len(resp.Cached) != 1 {
		t.Fatalf("fixture: %s should hold one shortcut and nothing else: %+v, %v", q, resp, err)
	}
	results, trace, err := searcher.SearchAll(q)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, r := range results {
		files = append(files, r.File)
	}
	if !trace.NonIndexed || fmt.Sprint(files) != "[w.pdf x.pdf]" {
		t.Fatalf("search %s = %v (non-indexed %v), want [w.pdf x.pdf]", q, files, trace.NonIndexed)
	}
}

func TestSearchAllPrunesIncompatibleBranches(t *testing.T) {
	svc, _ := fig1Service(t, Simple, cache.None, 0)
	searcher := NewSearcher(svc)
	// Query for Smith articles at SIGCOMM: must not retrieve the INFOCOM
	// article even though both live under the author index entry.
	q := dataset.AuthorConfQuery("John", "Smith", "SIGCOMM")
	results, _, err := searcher.SearchAll(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].File != "x.pdf" {
		t.Fatalf("results = %v, want just x.pdf", results)
	}
}

func TestLRUCacheBounded(t *testing.T) {
	net := testRing(t, 2, 1)
	svc := New(net, cache.LRU, 3)
	searcher := NewSearcher(svc)
	corpus, err := dataset.Generate(dataset.Config{Articles: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("f%d.pdf", i), a, Simple); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range corpus.Articles {
		if _, err := searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a)); err != nil {
			t.Fatal(err)
		}
	}
	stats := svc.CacheStats()
	if stats.MaxKeys > 3 {
		t.Fatalf("LRU cache exceeded capacity: %+v", stats)
	}
	if stats.TotalKeys == 0 {
		t.Fatal("no shortcuts created")
	}
}

// TestFirstNodeHitFreshensItsShortcut pins the LRU order a first-node
// hit leaves: the followed pair becomes the node's most recent, so the
// next shortcut the full store takes evicts the other pair. It holds on
// success, where installShortcuts' refresh is the hit's one, and when
// the target lost its data after the shortcut was made and the search
// fails after the jump.
func TestFirstNodeHitFreshensItsShortcut(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("target-lost=%v", fail), func(t *testing.T) {
			net := testRing(t, 1, 1) // one node: one store holds every shortcut
			svc := New(net, cache.LRU, 2)
			searcher := NewSearcher(svc)
			arts := descriptor.Fig1Articles()
			for i, a := range arts {
				if err := svc.PublishArticle(fmt.Sprintf("%d.pdf", i), a, Simple); err != nil {
					t.Fatal(err)
				}
			}
			author := func(i int) xpath.Query { return dataset.AuthorQuery(arts[i].AuthorFirst, arts[i].AuthorLast) }
			find := func(i int) Trace {
				t.Helper()
				trace, err := searcher.Find(author(i), dataset.MSD(arts[i]))
				if err != nil && !(fail && i == 0) {
					t.Fatalf("find %d: %v", i, err)
				}
				return trace
			}
			find(0)
			find(1) // the store holds (author 1, 1) and, older, (author 0, 0)
			if fail {
				data := overlay.Entry{Kind: KindData, Value: "0.pdf"}
				if removed, err := net.Remove(dataset.MSD(arts[0]).Key(), data); err != nil || !removed {
					t.Fatalf("remove: %v, %v", removed, err)
				}
			}
			if trace := find(0); !trace.FirstNodeHit || trace.Found == fail {
				t.Fatalf("second find of 0: %+v", trace)
			}
			find(2) // the full store evicts its least recent pair
			node := svc.Network().Addrs()[0]
			nc := svc.nodeCache(node)
			for i, want := range []bool{true, false, true} {
				if got := nc.store.Contains(author(i).String(), dataset.MSD(arts[i]).String()); got != want {
					t.Errorf("shortcut (author %d, %d) held = %v, want %v", i, i, got, want)
				}
			}
		})
	}
}

func TestStorageStatsBySchemeOrdering(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 300, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	bytesBy := map[string]int64{}
	for _, scheme := range Schemes() {
		net := testRing(t, 16, 1)
		svc := New(net, cache.None, 0)
		for i, a := range corpus.Articles {
			if err := svc.PublishArticle(fmt.Sprintf("f%d", i), a, scheme); err != nil {
				t.Fatal(err)
			}
		}
		bytesBy[scheme.Name()] = svc.StorageStats().IndexBytes
	}
	if !(bytesBy["simple"] < bytesBy["complex"] && bytesBy["complex"] < bytesBy["flat"]) {
		t.Fatalf("storage ordering wrong (§V-B wants simple < complex < flat): %v", bytesBy)
	}
}

func TestSchemeChainsCoveringInvariant(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 100, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{Simple, Flat, Complex, Fig4} {
		for _, a := range corpus.Articles {
			msd := dataset.MSD(a)
			for _, chain := range scheme.Chains(a) {
				if len(chain) < 2 {
					t.Fatalf("%s: chain too short", scheme.Name())
				}
				if !chain[len(chain)-1].Equal(msd) {
					t.Fatalf("%s: chain does not end at MSD", scheme.Name())
				}
				for i := 0; i+1 < len(chain); i++ {
					if !chain[i].Covers(chain[i+1]) {
						t.Fatalf("%s: chain link %d: %s does not cover %s",
							scheme.Name(), i, chain[i], chain[i+1])
					}
				}
			}
		}
	}
}

func TestFlatChainsLengthTwo(t *testing.T) {
	a := descriptor.Fig1Articles()[0]
	for _, chain := range Flat.Chains(a) {
		if len(chain) != 2 {
			t.Fatalf("flat chain length = %d, want 2 (%v)", len(chain), chain)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"simple", "flat", "complex", "fig4"} {
		s, err := SchemeByName(name)
		if err != nil || s.Name() != name {
			t.Fatalf("SchemeByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
