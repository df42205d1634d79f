package descriptor_test

import (
	"strconv"
	"testing"

	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
)

// TestArticleDescriptorIsNormal: Article.Descriptor lays its tree out
// already in normal order; New, which clones and sorts, leaves it as it
// is. Checked for Fig. 1 and for every article of a 10,000-article
// dataset.
func TestArticleDescriptorIsNormal(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 10000, Seed: 2004})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append(descriptor.Fig1Articles(), corpus.Articles...) {
		unsorted := descriptor.NewNode("article",
			descriptor.NewNode("author",
				descriptor.NewLeaf("first", a.AuthorFirst),
				descriptor.NewLeaf("last", a.AuthorLast),
			),
			descriptor.NewLeaf("title", a.Title),
			descriptor.NewLeaf("conf", a.Conf),
			descriptor.NewLeaf("year", strconv.Itoa(a.Year)),
			descriptor.NewLeaf("size", strconv.FormatInt(a.Size, 10)),
		)
		if got, want := a.Descriptor().String(), descriptor.New(unsorted).String(); got != want {
			t.Fatalf("%+v: Descriptor() = %s, New gives %s", a, got, want)
		}
	}
}
