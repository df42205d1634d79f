package xpath_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"

	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/xpath"
)

// goldenPath lists every query shape the dataset package builds, for 50
// generated articles, as "shape<TAB>canonical form" lines. The file was
// written by datasetQueryLines at the commit before h(q) and the
// constraint count moved into the query (PR 16). Canonical forms are
// what gets hashed into ring keys, so a diff against it re-keys every
// stored index: it is a frozen contract, not a snapshot to refresh.
const goldenPath = "testdata/dataset_queries.golden"

func datasetQueryLines(t testing.TB) []string {
	corpus, err := dataset.Generate(dataset.Config{Articles: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(shape string, q xpath.Query) {
		lines = append(lines, shape+"\t"+q.String())
	}
	for _, a := range corpus.Articles {
		add("last", dataset.LastNameQuery(a.AuthorLast))
		add("author", dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast))
		add("title", dataset.TitleQuery(a.Title))
		add("conf", dataset.ConfQuery(a.Conf))
		add("year", dataset.YearQuery(a.Year))
		add("author+title", dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title))
		add("conf+year", dataset.ConfYearQuery(a.Conf, a.Year))
		add("author+conf", dataset.AuthorConfQuery(a.AuthorFirst, a.AuthorLast, a.Conf))
		add("author+conf+year", dataset.AuthorConfYearQuery(a.AuthorFirst, a.AuthorLast, a.Conf, a.Year))
		add("author+year", dataset.AuthorYearQuery(a.AuthorFirst, a.AuthorLast, a.Year))
		add("title+year", dataset.TitleYearQuery(a.Title, a.Year))
		add("msd", dataset.MSD(a))
		add("initial", dataset.InitialQuery(a.AuthorLast[0]))
		add("last-prefix", dataset.LastNamePrefixQuery(a.AuthorLast[:2]))
		for _, w := range dataset.TitleWords(a.Title, 4) {
			add("title-word", dataset.TitleKeywordQuery(w))
		}
	}
	return lines
}

func goldenLines(t testing.TB) []string {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// checkDerived holds a query to what its canonical form determines: the
// form, constraint count and signature are the reference renderer's for
// the same tree, the key is the SHA-1 of the form, the constraint count is
// the node count of the tree, the signature is a fresh walk's, and the
// form parses back to itself.
func checkDerived(t *testing.T, origin string, q xpath.Query) {
	t.Helper()
	if got, ref := built(q), xpath.ReferenceOf(q); got != ref {
		t.Errorf("%s %s: built %+v, the reference renderer gives %+v", origin, q, got, ref)
	}
	if got, want := q.Key(), keyspace.NewKey(q.String()); got != want {
		t.Errorf("%s %s: Key() = %s, want h(canonical form) = %s", origin, q, got, want)
	}
	if got, want := q.Constraints(), xpath.CountNodes(q); got != want {
		t.Errorf("%s %s: Constraints() = %d, tree has %d nodes", origin, q, got, want)
	}
	if got, want := xpath.Signature(q), xpath.DeriveSignature(q); got != want {
		t.Errorf("%s %s: signature %#x, a fresh derivation gives %#x", origin, q, got, want)
	}
	if q.IsZero() {
		return
	}
	back, err := xpath.Parse(q.String())
	if err != nil || back.String() != q.String() {
		t.Errorf("%s %s: canonical form parses back to %q, %v", origin, q, back, err)
	}
}

// built is what q's constructor froze, in the reference renderer's terms.
func built(q xpath.Query) xpath.Reference {
	return xpath.Reference{Form: q.String(), Constraints: q.Constraints(), Sig: xpath.Signature(q)}
}

// checkMostSpecific holds an article's MSD to the reference renderer's
// form of the raw tree, node for node as the descriptor lays it out, and
// then runs checkConstructors on it.
func checkMostSpecific(t *testing.T, a descriptor.Article) {
	t.Helper()
	q := dataset.MSD(a)
	if got, ref := built(q), xpath.ReferenceMostSpecific(a.Descriptor()); got != ref {
		t.Errorf("msd %s: built %+v, the reference renderer gives %+v", q, got, ref)
	}
	checkConstructors(t, "msd", q)
}

// checkConstructors runs checkDerived on q and on everything the other
// constructors derive from it.
func checkConstructors(t *testing.T, origin string, q xpath.Query) {
	t.Helper()
	checkDerived(t, origin, q)
	for i, g := range q.Generalizations() {
		checkDerived(t, fmt.Sprintf("%s generalization %d", origin, i), g)
	}
	for _, vc := range q.ValueConstraints() {
		checkDerived(t, origin+" WithValue", q.WithValue(vc.Path, vc.Value+"x"))
	}
}

// TestDerivedFieldsEveryConstructor: Builder and MostSpecific (the dataset
// shapes), Parse (their canonical forms), Generalizations and WithValue
// all freeze the same key, constraint count and signature a fresh
// derivation gives, and the dataset's canonical forms are the golden
// file's.
func TestDerivedFieldsEveryConstructor(t *testing.T) {
	lines := datasetQueryLines(t)
	golden := goldenLines(t)
	if len(lines) != len(golden) {
		t.Fatalf("%d dataset queries, golden file has %d", len(lines), len(golden))
	}
	for i, line := range lines {
		if line != golden[i] {
			t.Fatalf("line %d: canonical form changed\n got %s\nwant %s", i+1, line, golden[i])
		}
		shape, form, _ := strings.Cut(line, "\t")
		q, err := xpath.Parse(form)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		checkConstructors(t, shape, q)
	}
	for _, a := range append(descriptor.Fig1Articles(), metaArticles()...) {
		checkMostSpecific(t, a)
		checkConstructors(t, "builder", dataset.AuthorConfYearQuery(a.AuthorFirst, a.AuthorLast, a.Conf, a.Year))
	}
	checkDerived(t, "zero", xpath.Query{})
}

// metaTitles are titles holding the dialect's metacharacters, which a
// canonical form escapes.
var metaTitles = []string{"TCP/IP Illustrated", "Paper [draft]"}

// metaArticles are Fig. 1's first article under each of metaTitles.
func metaArticles() []descriptor.Article {
	var out []descriptor.Article
	for _, title := range metaTitles {
		a := descriptor.Fig1Articles()[0]
		a.Title = title
		out = append(out, a)
	}
	return out
}

// TestMetacharacterValuesRoundTrip: an article whose title holds a
// dialect metacharacter has an MSD whose canonical form parses back to
// the same query, key and descriptor. Before values were escaped, "TCP/IP
// Illustrated" did not parse and "Paper [draft]" parsed to a title
// "Paper " under a "draft" predicate.
func TestMetacharacterValuesRoundTrip(t *testing.T) {
	for _, a := range metaArticles() {
		q := dataset.MSD(a)
		back, err := xpath.Parse(q.String())
		if err != nil {
			t.Fatalf("%q: Parse(%s): %v", a.Title, q, err)
		}
		if !back.Equal(q) || back.Key() != q.Key() {
			t.Fatalf("%q: %s parses back to %s", a.Title, q, back)
		}
		d, err := back.Descriptor()
		if err != nil {
			t.Fatalf("%q: Descriptor(): %v", a.Title, err)
		}
		if !d.Equal(a.Descriptor()) {
			t.Fatalf("%q: descriptor %s, want %s", a.Title, d, a.Descriptor())
		}
	}
}

// FuzzDerivedFields: whatever parses keeps the same properties, through
// every constructor, and parses to the reference renderer's form of its
// raw tree. The seed corpus is the dataset's query shapes, dialect corners
// the dataset never builds, and the MSDs of articles whose titles hold
// metacharacters.
func FuzzDerivedFields(f *testing.F) {
	seen := make(map[string]bool)
	for _, line := range goldenLines(f) {
		shape, form, _ := strings.Cut(line, "\t")
		if !seen[shape] { // one seed per shape keeps the corpus small
			seen[shape] = true
			f.Add(form)
		}
	}
	for _, s := range []string{
		"//author[last=Smith]", "/article/title=TCP", "/*[b][a][b]", "/a[c=2][//b=1]", "/a=x y[b]",
	} {
		f.Add(s)
	}
	for _, a := range metaArticles() {
		f.Add(dataset.MSD(a).String())
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := xpath.Parse(input)
		ref, refErr := xpath.ReferenceParse(input)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse(%q) error %v, reference parse error %v", input, err, refErr)
		}
		if err != nil {
			return
		}
		if got := built(q); got != ref {
			t.Errorf("Parse(%q) = %+v, the reference renderer gives %+v", input, got, ref)
		}
		checkConstructors(t, "parse", q)
	})
}

// TestPatternSizeClass: the frozen pattern, signature included, fits the
// 96-byte allocation size class. Every Query a response decodes allocates
// one, so a field that pushed it to the next class would grow the heap.
func TestPatternSizeClass(t *testing.T) {
	if xpath.PatternSize > 96 {
		t.Fatalf("pattern is %d bytes, want at most 96", xpath.PatternSize)
	}
}

// TestMostSpecificAllocCeiling pins the construction cost of an article's
// MSD. With every predicate rendered twice per sort comparison it took 55
// allocations (measured at the commit before PR 16, same article); with
// one render per subtree, 20. Laid out in one node slab and rendered into
// one stack buffer it takes 4: the pattern, the node slab, the kid-pointer
// slab and the string. The ceiling leaves room for toolchain drift.
func TestMostSpecificAllocCeiling(t *testing.T) {
	const (
		parentAllocs = 20
		ceiling      = 6
	)
	d := descriptor.Fig1Articles()[0].Descriptor()
	allocs := testing.AllocsPerRun(200, func() { _ = xpath.MostSpecific(d) })
	if allocs > ceiling || allocs >= parentAllocs {
		t.Fatalf("MostSpecific(article) = %v allocs, want <= %d (was %d)", allocs, ceiling, parentAllocs)
	}
}

// TestConstructorAllocCeilings pins what the constructors a publish and a
// directed find run cost, on Fig. 1's first article: each ceiling is the
// count the one-pass build takes plus 2, and "was" the count before it
// (DESIGN.md §33). Parse of a canonical form takes one fewer since it
// keeps its input as the form instead of copying it (§34).
func TestConstructorAllocCeilings(t *testing.T) {
	a := descriptor.Fig1Articles()[0]
	msd := dataset.MSD(a)
	form := msd.String()
	for _, c := range []struct {
		name         string
		ceiling, was float64
		build        func()
	}{
		{"dataset.MSD", 9, 45, func() { _ = dataset.MSD(a) }},
		{"Parse(msd)", 17, 24, func() { _, _ = xpath.Parse(form) }},
		{"AuthorQuery", 12, 18, func() { _ = dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast) }},
		{"Generalizations(msd)", 11, 84, func() { _ = msd.Generalizations() }},
	} {
		if allocs := testing.AllocsPerRun(200, c.build); allocs > c.ceiling {
			t.Errorf("%s = %v allocs, want <= %v (was %v)", c.name, allocs, c.ceiling, c.was)
		}
	}
}

// TestParseKeepsCanonicalInput: Parse of a canonical form returns the
// input's own bytes as the query's String, so a stored entry and the query
// parsed from it share one copy; any other input gets a fresh string, even
// when its canonical form is a prefix of it.
func TestParseKeepsCanonicalInput(t *testing.T) {
	canonical := strings.Clone(dataset.MSD(descriptor.Fig1Articles()[0]).String())
	q, err := xpath.Parse(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != canonical || unsafe.StringData(q.String()) != unsafe.StringData(canonical) {
		t.Fatalf("Parse(canonical) did not keep its input's bytes")
	}
	within := func(s, in string) bool {
		p, start := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(in)))
		return p >= start && p < start+uintptr(len(in))
	}
	for _, in := range []string{
		"/article[year=1979][conf=SIGCOMM]",         // predicates out of order
		"/article[conf=SIGCOMM][conf=SIGCOMM]",      // canonical form is a prefix of the input
		"/article/title=TCP",                        // path sugar
		"/article[title=a\\=b][conf=SIGCOMM]",       // escaped value, out of order
		strings.Clone(canonical) + "[conf=SIGCOMM]", // repeated predicate
	} {
		q, err := xpath.Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if q.String() == in {
			t.Fatalf("fixture: %q is canonical", in)
		}
		if within(q.String(), in) {
			t.Errorf("Parse(%q) = %q shares the input's bytes", in, q)
		}
	}
}

var sink xpath.Query

func BenchmarkMostSpecific(b *testing.B) {
	d := descriptor.Fig1Articles()[0].Descriptor()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = xpath.MostSpecific(d)
	}
}

func BenchmarkParse(b *testing.B) {
	form := dataset.MSD(descriptor.Fig1Articles()[0]).String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink, _ = xpath.Parse(form)
	}
}

func BenchmarkBuild(b *testing.B) {
	a := descriptor.Fig1Articles()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = dataset.AuthorConfYearQuery(a.AuthorFirst, a.AuthorLast, a.Conf, a.Year)
	}
}

func BenchmarkGeneralizations(b *testing.B) {
	msd := dataset.MSD(descriptor.Fig1Articles()[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = msd.Generalizations()[0]
	}
}
