package index

import (
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/xpath"
)

func TestSearchAllFuzzy(t *testing.T) {
	_, searcher := fuzzyService(t)
	// Misspelled title: exact search empty, fuzzy corrects and finds.
	results, corrected, trace, err := searcher.SearchAllFuzzy(dataset.TitleQuery("Wavelet"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].File != "z.pdf" {
		t.Fatalf("results = %v", results)
	}
	if !corrected.Equal(dataset.TitleQuery("Wavelets")) {
		t.Fatalf("corrected = %q", corrected)
	}
	if trace.Interactions < 2 {
		t.Fatalf("trace = %+v", trace)
	}
	// Exact query: no correction attempted.
	results, corrected, _, err = searcher.SearchAllFuzzy(dataset.TitleQuery("TCP"), 2)
	if err != nil || len(results) != 1 {
		t.Fatalf("exact: %v, %v", results, err)
	}
	if !corrected.Equal(dataset.TitleQuery("TCP")) {
		t.Fatalf("exact query modified: %q", corrected)
	}
	// Hopeless query: empty results, no error.
	results, _, _, err = searcher.SearchAllFuzzy(dataset.TitleQuery("Zzzz"), 1)
	if err != nil || len(results) != 0 {
		t.Fatalf("hopeless: %v, %v", results, err)
	}
}

func TestServiceAccessors(t *testing.T) {
	svc, _ := fig1Service(t, Simple, cache.Single, 0)
	if svc.Network() == nil {
		t.Fatal("Network() nil")
	}
	if svc.Policy() != cache.Single {
		t.Fatalf("Policy() = %v", svc.Policy())
	}
	searcher := NewSearcher(svc)
	searcher.MaxDepth = 0 // exercise the default fallback
	a := descriptor.Fig1Articles()[0]
	trace, err := searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a))
	if err != nil || !trace.Found {
		t.Fatalf("find with default depth: %+v, %v", trace, err)
	}
	// A node's store exists, and holds a shortcut, after a shortcut was
	// created on that node.
	resp, err := svc.Lookup(dataset.TitleQuery(a.Title))
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := svc.shortcutCount(resp.Node); !ok || n == 0 {
		t.Fatalf("shortcut store after shortcut creation: %d pairs, present %v", n, ok)
	}
	if _, ok := svc.shortcutCount("ghost-node"); ok {
		t.Fatal("shortcut store for unknown node")
	}
}

func TestPublishEmptyDescriptor(t *testing.T) {
	svc, _ := fig1Service(t, Simple, cache.None, 0)
	if _, err := svc.Publish("f.pdf", descriptor.Descriptor{}); err == nil {
		t.Fatal("empty descriptor accepted")
	}
	if err := svc.RegisterVocabulary(descriptor.Descriptor{}); err == nil {
		t.Fatal("empty vocabulary registration accepted")
	}
}

func TestSessionPositionEmpty(t *testing.T) {
	svc, _ := fig1Service(t, Simple, cache.None, 0)
	session := NewSession(svc)
	if _, ok := session.Position(); ok {
		t.Fatal("fresh session has a position")
	}
	if session.Interactions() != 0 {
		t.Fatal("fresh session has interactions")
	}
}

func TestWithKeywordsNoTitleChain(t *testing.T) {
	// A base scheme without a title entry point: keyword chains terminate
	// at the MSD directly.
	scheme := WithKeywords(bareScheme{}, 4)
	a := descriptor.Fig1Articles()[2] // Wavelets — one keyword
	chains := scheme.Chains(a)
	found := false
	for _, chain := range chains {
		if chain[0].Equal(dataset.TitleKeywordQuery("Wavelets")) {
			found = true
			if len(chain) != 3 { // kw -> title -> MSD
				t.Fatalf("keyword chain = %v", chain)
			}
		}
	}
	if !found {
		t.Fatalf("keyword chain missing: %v", chains)
	}
}

// bareScheme indexes nothing (no author/title paths), forcing the
// keyword decorator's fallback.
type bareScheme struct{}

func (bareScheme) Name() string { return "bare" }

func (bareScheme) Chains(descriptor.Article) [][]xpath.Query { return nil }

func TestBucketOfEmpty(t *testing.T) {
	if got := bucketOf(""); got != "_" {
		t.Fatalf("bucketOf empty = %q", got)
	}
	if got := bucketOf("Ünïcode"); got != "ü" {
		t.Fatalf("bucketOf unicode = %q", got)
	}
}
