package index

import (
	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"fmt"
	"strings"
	"testing"
)

func TestPromoteArticleShortCircuits(t *testing.T) {
	svc, arts := fig1Service(t, Complex, cache.None, 0)
	searcher := NewSearcher(svc)
	a := arts[0]
	author := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	before, err := searcher.Find(author, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if before.Interactions != 4 {
		t.Fatalf("complex author lookup = %d, want 4", before.Interactions)
	}
	if err := svc.PromoteArticle(a, Complex); err != nil {
		t.Fatal(err)
	}
	after, err := searcher.Find(author, dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if after.Interactions != 2 {
		t.Fatalf("promoted lookup = %d interactions, want 2", after.Interactions)
	}
	// Other articles are unaffected.
	other, err := searcher.Find(dataset.TitleQuery(arts[1].Title), dataset.MSD(arts[1]))
	if err != nil || other.Interactions != 3 {
		t.Fatalf("unrelated lookup changed: %+v, %v", other, err)
	}
}

func TestDemoteArticleRestores(t *testing.T) {
	svc, arts := fig1Service(t, Complex, cache.None, 0)
	searcher := NewSearcher(svc)
	a := arts[0]
	if err := svc.PromoteArticle(a, Complex); err != nil {
		t.Fatal(err)
	}
	if err := svc.DemoteArticle(a, Complex); err != nil {
		t.Fatal(err)
	}
	trace, err := searcher.Find(dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Interactions != 4 {
		t.Fatalf("after demote = %d interactions, want 4", trace.Interactions)
	}
}

func TestWithInitialsScheme(t *testing.T) {
	scheme := WithInitials(Simple)
	if scheme.Name() != "simple+initials" {
		t.Fatalf("name = %q", scheme.Name())
	}
	svc, arts := fig1Service(t, scheme, cache.None, 0)
	searcher := NewSearcher(svc)

	// A user knowing only "S" walks: S* -> Smith -> John Smith -> ... -> file.
	a := arts[0]
	trace, err := searcher.Find(dataset.InitialQuery('S'), dataset.MSD(a))
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Found {
		t.Fatalf("trace = %+v", trace)
	}
	if trace.Interactions != 5 { // S* -> Smith -> author -> AT -> fetch
		t.Fatalf("initial lookup = %d interactions, want 5", trace.Interactions)
	}
	// The automated mode enumerates everything under "D".
	results, _, err := searcher.SearchAll(dataset.InitialQuery('D'))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].File != "z.pdf" {
		t.Fatalf("D* results = %v, want just Doe's z.pdf", results)
	}
}

func TestWithInitialsChainsCovering(t *testing.T) {
	scheme := WithInitials(Complex)
	corpus, err := dataset.Generate(dataset.Config{Articles: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range corpus.Articles {
		for _, chain := range scheme.Chains(a) {
			for i := 0; i+1 < len(chain); i++ {
				if !chain[i].Covers(chain[i+1]) {
					t.Fatalf("link %d of %v violates covering", i, chain)
				}
			}
			if !strings.HasPrefix(chain[len(chain)-1].String(), "/article") {
				t.Fatalf("chain does not end in an article query")
			}
		}
	}
}

func TestSessionInteractiveWalk(t *testing.T) {
	svc, arts := fig1Service(t, Fig4, cache.None, 0)
	session := NewSession(svc)
	a := arts[0]

	opts, err := session.Ask(dataset.LastNameQuery("Smith"))
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Queries) != 1 || len(opts.Files) != 0 {
		t.Fatalf("step 1 options: %+v", opts)
	}
	opts, err = session.Refine(opts.Queries[0]) // John Smith
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Queries) != 2 {
		t.Fatalf("step 2 options: %+v", opts)
	}
	// Pick the TCP article's branch.
	var tcp = opts.Queries[0]
	for _, q := range opts.Queries {
		if q.Covers(dataset.MSD(a)) {
			tcp = q
		}
	}
	opts, err = session.Refine(tcp)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Queries) != 1 {
		t.Fatalf("step 3 options: %+v", opts)
	}
	opts, err = session.Refine(opts.Queries[0]) // the MSD
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Files) != 1 || opts.Files[0] != "x.pdf" {
		t.Fatalf("final options: %+v", opts)
	}
	if session.Interactions() != 4 {
		t.Fatalf("interactions = %d, want 4", session.Interactions())
	}
}

func TestSessionGuards(t *testing.T) {
	svc, _ := fig1Service(t, Simple, cache.None, 0)
	session := NewSession(svc)
	if _, err := session.Refine(dataset.TitleQuery("TCP")); err == nil {
		t.Fatal("Refine before Ask accepted")
	}
	if _, err := session.Back(); err == nil {
		t.Fatal("Back on empty session accepted")
	}
	opts, err := session.Ask(dataset.TitleQuery("TCP"))
	if err != nil {
		t.Fatal(err)
	}
	// Refining to something never offered must fail.
	if _, err := session.Refine(dataset.TitleQuery("Wavelets")); err == nil {
		t.Fatal("unoffered refinement accepted")
	}
	if _, ok := session.Position(); !ok {
		t.Fatal("position missing after Ask")
	}
	// Walk one step, back out, and verify the old options return.
	next, err := session.Refine(opts.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	_ = next
	back, err := session.Back()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Queries) != len(opts.Queries) {
		t.Fatalf("Back options = %+v, want same as original %+v", back, opts)
	}
}

func TestWithKeywordsScheme(t *testing.T) {
	scheme := WithKeywords(Simple, 4)
	if scheme.Name() != "simple+keywords" {
		t.Fatalf("name = %q", scheme.Name())
	}
	net := testRing(t, 16, 1)
	svc := New(net, cache.None, 0)
	arts := []descriptor.Article{
		{AuthorFirst: "Jane", AuthorLast: "Doe", Title: "Scalable Routing in Overlay Networks",
			Conf: "ICDCS", Year: 2004, Size: 1000},
		{AuthorFirst: "Bob", AuthorLast: "Ray", Title: "Adaptive Routing for Sensor Networks",
			Conf: "ICDCS", Year: 2004, Size: 1000},
	}
	for i, a := range arts {
		if err := svc.PublishArticle(fmt.Sprintf("k%d.pdf", i), a, scheme); err != nil {
			t.Fatal(err)
		}
	}
	searcher := NewSearcher(svc)
	// Keyword shared by both titles finds both.
	results, _, err := searcher.SearchAll(dataset.TitleKeywordQuery("Routing"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("Routing results = %v", results)
	}
	// Keyword unique to one title finds one; directed lookup works too.
	trace, err := searcher.Find(dataset.TitleKeywordQuery("Sensor"), dataset.MSD(arts[1]))
	if err != nil || !trace.Found || trace.File != "k1.pdf" {
		t.Fatalf("Sensor find: %+v, %v", trace, err)
	}
	// Stopwords and short words are not indexed.
	results, _, err = searcher.SearchAll(dataset.TitleKeywordQuery("for"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("stopword indexed: %v", results)
	}
}

func TestWithKeywordsChainsCovering(t *testing.T) {
	scheme := WithKeywords(Flat, 4)
	corpus, err := dataset.Generate(dataset.Config{Articles: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range corpus.Articles {
		for _, chain := range scheme.Chains(a) {
			for i := 0; i+1 < len(chain); i++ {
				if !chain[i].Covers(chain[i+1]) {
					t.Fatalf("chain link %d of %v violates covering", i, chain)
				}
			}
		}
	}
}

func TestTitleWords(t *testing.T) {
	words := dataset.TitleWords("Scalable Routing in the Wide-Area Networks, Revisited: Part II", 4)
	want := []string{"Scalable", "Routing", "Wide", "Area", "Networks", "Revisited", "Part"}
	if len(words) != len(want) {
		t.Fatalf("words = %v, want %v", words, want)
	}
	for i := range want {
		if words[i] != want[i] {
			t.Fatalf("words = %v, want %v", words, want)
		}
	}
}
