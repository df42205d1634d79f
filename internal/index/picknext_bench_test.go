package index

import (
	"testing"

	"dhtindex/internal/dataset"
	"dhtindex/internal/xpath"
)

// BenchmarkPickNext times one directed-search step on the longest list the
// simple scheme builds at the benchmark's 10,000-article corpus: the 521
// author+title entries stored under the most prolific author's key. The
// target is the MSD of the list's last article, so every entry is tested.
func BenchmarkPickNext(b *testing.B) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 10000, Seed: 2004})
	if err != nil {
		b.Fatal(err)
	}
	type author struct{ first, last string }
	lists := make(map[author][]xpath.Query)
	seen := make(map[string]bool)
	var longest author
	for _, a := range corpus.Articles {
		q := dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title)
		if seen[q.String()] {
			continue
		}
		seen[q.String()] = true
		k := author{a.AuthorFirst, a.AuthorLast}
		lists[k] = append(lists[k], q)
		if len(lists[k]) > len(lists[longest]) {
			longest = k
		}
	}
	list := lists[longest]
	var target xpath.Query
	for _, a := range corpus.Articles {
		if a.AuthorFirst == longest.first && a.AuthorLast == longest.last && list[len(list)-1].Matches(a.Descriptor()) {
			target = dataset.MSD(a)
		}
	}
	if len(list) != 521 {
		b.Fatalf("longest author+title list has %d entries, want 521", len(list))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, ok := pickNext(list, target); !ok || !got.Equal(list[len(list)-1]) {
			b.Fatalf("pickNext = %s, %v", got, ok)
		}
	}
}
