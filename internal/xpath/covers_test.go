package xpath_test

import (
	"strings"
	"testing"

	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/xpath"
)

// coverCorpus is every distinct query of the golden file plus the Fig. 1
// MSDs.
func coverCorpus(t testing.TB) []xpath.Query {
	seen := make(map[string]bool)
	var out []xpath.Query
	add := func(q xpath.Query) {
		if !seen[q.String()] {
			seen[q.String()] = true
			out = append(out, q)
		}
	}
	for _, line := range goldenLines(t) {
		_, form, _ := strings.Cut(line, "\t")
		q, err := xpath.Parse(form)
		if err != nil {
			t.Fatal(err)
		}
		add(q)
	}
	for _, a := range descriptor.Fig1Articles() {
		add(xpath.MostSpecific(a.Descriptor()))
	}
	return out
}

// TestCoversMatchesWalk: on every ordered pair of the corpus, Covers
// answers what the tree walk alone answers, and the signature rejects
// most non-covering pairs before any walk (84.9 % of them; the prefix and
// keyword shapes carry no bits, so they are never rejected this way). The
// dataset's lists are what the directed search scans, so a signature that
// stopped rejecting them would leave Covers correct and slow.
func TestCoversMatchesWalk(t *testing.T) {
	corpus := coverCorpus(t)
	var covering, rejected, nonCovering int
	for _, q := range corpus {
		for _, other := range corpus {
			got, want := q.Covers(other), xpath.CoversWalk(q, other)
			if got != want {
				t.Fatalf("%s covers %s: Covers = %v, walk = %v", q, other, got, want)
			}
			switch {
			case want:
				covering++
			case xpath.Signature(q)&^xpath.Signature(other) != 0:
				rejected++
				nonCovering++
			default:
				nonCovering++
			}
		}
	}
	t.Logf("%d queries: %d covering pairs; the signature rejects %d of %d non-covering pairs (%.1f %%)",
		len(corpus), covering, rejected, nonCovering, 100*float64(rejected)/float64(nonCovering))
	if covering < len(corpus) {
		t.Fatalf("%d covering pairs among %d queries: Covers is not reflexive", covering, len(corpus))
	}
	if rejected*10 < nonCovering*8 {
		t.Fatalf("signature rejects %d of %d non-covering pairs, want at least 80 %%", rejected, nonCovering)
	}
}

// FuzzCoversSignature: for any two queries that parse, Covers agrees with
// the tree walk in both directions. The seeds are the dialect's corners
// the signature must stand aside for: wildcards, descendant steps, prefix,
// suffix and contains values, values on interior nodes and repeated
// sibling names.
func FuzzCoversSignature(f *testing.F) {
	for _, pair := range [][2]string{
		{"/article[author[last=Smith]]", "/article[author[first=John][last=Smith]][title=TCP]"},
		{"/*[author[last=Smith]]", "/article[author[last=Smith]]"},
		{"/article/*/last=Smith", "/article[author[last=Smith]]"},
		{"/article[author[last=Smith]]", "/article/*/last=Smith"},
		{"//author[last=Smith]", "/article[author[last=Smith]]"},
		{"/article[//last=Smith]", "/article[author[last=Smith]]"},
		{"/article[author[last=Smith]]", "/article[//last=Smith]"},
		{"/article[author[last=Smi*]]", "/article[author[last=Smith]]"},
		{"/article[title=*ing]", "/article[title=Routing]"},
		{"/article[title=*Rout*]", "/article[title=Routing in DHTs]"},
		{"/a=x[b=1]", "/a=x[b=1][c=2]"},
		{"/a=x[b=1]", "/a=y[b=1]"},
		{"/a[b=1][b=2]", "/a[b=2][b=1][c]"},
		{"/a[b=1][b=2]", "/a[b=1]"},
		{"/a[b[c=1]][b[c=2]]", "/a[b[c=1][c=2]]"},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		qa, err := xpath.Parse(a)
		if err != nil {
			return
		}
		qb, err := xpath.Parse(b)
		if err != nil {
			return
		}
		for _, p := range [][2]xpath.Query{{qa, qb}, {qb, qa}, {qa, qa}} {
			if got, want := p[0].Covers(p[1]), xpath.CoversWalk(p[0], p[1]); got != want {
				t.Fatalf("%s covers %s: Covers = %v, walk = %v", p[0], p[1], got, want)
			}
		}
	})
}

// BenchmarkCovers times one Covers call on the directed search's commonest
// pair, an author+title entry against an article's MSD: accept names the
// article, reject-one-value differs from it in the title only.
func BenchmarkCovers(b *testing.B) {
	target := xpath.MostSpecific(descriptor.Fig1Articles()[0].Descriptor())
	for _, bc := range []struct {
		name  string
		entry xpath.Query
		want  bool
	}{
		{"accept", dataset.AuthorTitleQuery("John", "Smith", "TCP"), true},
		{"reject-one-value", dataset.AuthorTitleQuery("John", "Smith", "IPv6"), false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.entry.Covers(target) != bc.want {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}
