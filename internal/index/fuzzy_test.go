package index

import (
	"errors"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/xpath"
)

// fuzzyService is fig1Service with vocabularies enabled.
func fuzzyService(t *testing.T) (*Service, *Searcher) {
	t.Helper()
	net := testRing(t, 16, 1)
	svc := New(net, cache.None, 0)
	svc.EnableVocabulary()
	files := []string{"x.pdf", "y.pdf", "z.pdf"}
	for i, a := range descriptor.Fig1Articles() {
		if err := svc.PublishArticle(files[i], a, Simple); err != nil {
			t.Fatal(err)
		}
	}
	return svc, NewSearcher(svc)
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		max  int
		want int
	}{
		{"Smith", "Smith", 2, 0},
		{"Smith", "Smih", 2, 1},
		{"Smith", "Smiht", 2, 2},
		{"Smith", "Doe", 2, -1},
		{"", "ab", 2, 2},
		{"ab", "", 2, 2},
		{"kitten", "sitting", 3, 3},
		{"kitten", "sitting", 2, -1},
		{"Garcia", "García", 1, 1}, // rune-aware
	}
	for _, tc := range cases {
		if got := editDistance(tc.a, tc.b, tc.max); got != tc.want {
			t.Errorf("editDistance(%q, %q, %d) = %d, want %d", tc.a, tc.b, tc.max, got, tc.want)
		}
	}
}

func TestSuggestValues(t *testing.T) {
	svc, _ := fuzzyService(t)
	suggestions, lookups, err := svc.SuggestValues([]string{"author", "last"}, "Smih", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) != 1 || suggestions[0] != "Smith" {
		t.Fatalf("suggestions = %v", suggestions)
	}
	if lookups != 1 {
		t.Fatalf("lookups = %d, want 1 (same bucket)", lookups)
	}
	// First-letter typo: the right value lives in another bucket, so the
	// suggester widens the scan.
	suggestions, lookups, err = svc.SuggestValues([]string{"author", "last"}, "Emith", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) != 1 || suggestions[0] != "Smith" {
		t.Fatalf("cross-bucket suggestions = %v", suggestions)
	}
	if lookups <= 1 {
		t.Fatalf("lookups = %d, want widened scan", lookups)
	}
	// Hopeless input: nothing within distance.
	suggestions, _, err = svc.SuggestValues([]string{"author", "last"}, "Zzzzzzzz", 2)
	if err != nil || len(suggestions) != 0 {
		t.Fatalf("suggestions = %v, %v", suggestions, err)
	}
}

func TestFindFuzzyCorrectsMisspelledAuthor(t *testing.T) {
	_, searcher := fuzzyService(t)
	arts := descriptor.Fig1Articles()
	target := dataset.MSD(arts[0])
	// "Jhon Smih" — two misspelled values.
	q := dataset.AuthorQuery("Jhon", "Smih")
	trace, corrected, err := searcher.FindFuzzy(q, target, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Found || trace.File != "x.pdf" {
		t.Fatalf("trace = %+v", trace)
	}
	if corrected.Equal(q) {
		t.Fatal("query was not corrected")
	}
	if !corrected.Covers(target) {
		t.Fatalf("corrected query %q does not cover target", corrected)
	}
}

func TestFindFuzzyMisspelledTitle(t *testing.T) {
	_, searcher := fuzzyService(t)
	arts := descriptor.Fig1Articles()
	target := dataset.MSD(arts[2]) // Wavelets
	trace, corrected, err := searcher.FindFuzzy(dataset.TitleQuery("Wavelet"), target, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Found || trace.File != "z.pdf" {
		t.Fatalf("trace = %+v", trace)
	}
	if !corrected.Equal(dataset.TitleQuery("Wavelets")) {
		t.Fatalf("corrected = %q", corrected)
	}
}

func TestFindFuzzyExactQueryUnchanged(t *testing.T) {
	_, searcher := fuzzyService(t)
	arts := descriptor.Fig1Articles()
	q := dataset.TitleQuery(arts[0].Title)
	trace, corrected, err := searcher.FindFuzzy(q, dataset.MSD(arts[0]), 2)
	if err != nil || !trace.Found {
		t.Fatalf("%+v, %v", trace, err)
	}
	if !corrected.Equal(q) {
		t.Fatalf("exact query was modified: %q", corrected)
	}
}

func TestFindFuzzyHopeless(t *testing.T) {
	_, searcher := fuzzyService(t)
	arts := descriptor.Fig1Articles()
	_, _, err := searcher.FindFuzzy(dataset.TitleQuery("Quantum Chromodynamics"),
		dataset.MSD(arts[0]), 2)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestVocabularyDisabledNoDictEntries(t *testing.T) {
	svc, _ := fig1Service(t, Simple, cache.None, 0) // vocabulary off
	suggestions, _, err := svc.SuggestValues([]string{"author", "last"}, "Smih", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) != 0 {
		t.Fatalf("dict entries exist without vocabulary: %v", suggestions)
	}
}

func TestValueConstraintsAndWithValue(t *testing.T) {
	q := dataset.AuthorTitleQuery("John", "Smith", "TCP")
	vcs := q.ValueConstraints()
	if len(vcs) != 3 {
		t.Fatalf("constraints = %v", vcs)
	}
	replaced := q.WithValue([]string{"title"}, "IPv6")
	want := dataset.AuthorTitleQuery("John", "Smith", "IPv6")
	if !replaced.Equal(want) {
		t.Fatalf("WithValue = %q, want %q", replaced, want)
	}
	// Unresolvable path: unchanged.
	same := q.WithValue([]string{"missing"}, "x")
	if !same.Equal(q) {
		t.Fatalf("bad path changed query: %q", same)
	}
	// Interior path: unchanged.
	same = q.WithValue([]string{"author"}, "x")
	if !same.Equal(q) {
		t.Fatalf("interior path changed query: %q", same)
	}
	var zero xpath.Query
	if got := zero.WithValue([]string{"a"}, "v"); !got.IsZero() {
		t.Fatal("zero query WithValue must stay zero")
	}
	if zero.ValueConstraints() != nil {
		t.Fatal("zero query has constraints")
	}
}
