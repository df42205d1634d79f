package index

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/xpath"
)

// cannedNetwork is a read-only substrate serving prebuilt entry sets: one
// node, no routing. Get hands out its slices as they are, so it is safe
// for concurrent readers and costs a lookup no allocation of its own.
type cannedNetwork struct {
	overlay.Network // nil: the write side is never reached
	sets            map[keyspace.Key][]overlay.Entry
}

const cannedNode = "canned:1"

func (c *cannedNetwork) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	return c.sets[key], overlay.Route{Node: cannedNode}, nil
}

func (c *cannedNetwork) Addrs() []string { return []string{cannedNode} }

// confYearEntries is the index set of a conference query: one conf+year
// mapping per year, in canonical (ascending-year) order.
func confYearEntries(conf string, years int) []overlay.Entry {
	entries := make([]overlay.Entry, years)
	for i := range entries {
		entries[i] = overlay.Entry{Kind: KindIndex, Value: dataset.ConfYearQuery(conf, 1980+i).String()}
	}
	return entries
}

// TestLookupResponseIndependentOfEntryOrder: LookupCtx gives the same
// Response whatever order the serving node returned the set in — sorted
// (a wire store), reversed or shuffled (a simulator's store, a foreign
// node) — and that Response is the one a sort by canonical form yields,
// with a non-canonical stored value ordered by its canonical form and a
// corrupt one dropped.
func TestLookupResponseIndependentOfEntryOrder(t *testing.T) {
	q := dataset.ConfQuery("SIGCOMM")
	sorted := confYearEntries("SIGCOMM", 16)
	sorted = append([]overlay.Entry{{Kind: KindData, Value: "a.pdf"}}, sorted...)
	nonCanonical := "/article[year=1979][conf=SIGCOMM]" // canonical form sorts first
	sorted = append(sorted, overlay.Entry{Kind: KindIndex, Value: nonCanonical}, overlay.Entry{Kind: KindIndex, Value: "[["})

	want := Response{Node: cannedNode, Files: []string{"a.pdf"}, Bytes: int64(len("a.pdf"))}
	var forms []string
	for _, e := range sorted {
		if e.Kind != KindIndex {
			continue
		}
		if parsed, err := xpath.Parse(e.Value); err == nil {
			forms = append(forms, parsed.String())
			want.Bytes += int64(len(e.Value))
		}
	}
	sort.Strings(forms)
	for _, f := range forms {
		want.Index = append(want.Index, xpath.MustParse(f))
	}
	if got := want.Index[0].String(); got != dataset.ConfYearQuery("SIGCOMM", 1979).String() {
		t.Fatalf("fixture: first entry = %s, want the non-canonical value's canonical form", got)
	}

	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	for name, entries := range map[string][]overlay.Entry{"sorted": sorted, "reversed": reversed, "shuffled": shuffled} {
		svc := New(&cannedNetwork{sets: map[keyspace.Key][]overlay.Entry{q.Key(): entries}}, cache.None, 0)
		got, err := svc.Lookup(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: response differs\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestLookupAllocCeiling gates the read path's allocation count: a warm
// lookup of a sorted response serves the key's kept list, so it
// allocates nothing at all — no Index slice, no sort scratch, no memo
// write, no key hash (DESIGN.md §34). Before lists were kept, each
// lookup made its own Index slice: 384 B at 16 entries (under a ceiling
// of 4 allocations), 13.5 KB at 512; a one-entry list was not kept
// until DESIGN.md §42, and its lookup made a one-element slice. The
// serving node's shortcuts for q are served as its store holds them
// (DESIGN.md §43); before, each lookup copied their forms out of the
// store and parsed them into a fresh Cached slice.
func TestLookupAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		entries, shortcuts int
		ceiling, was       float64
	}{
		{1, 0, 0, 1},
		{16, 0, 0, 1},
		{512, 0, 0, 1},
		{16, 3, 0, 2},
	} {
		q := dataset.ConfQuery("SIGCOMM")
		svc := New(&cannedNetwork{sets: map[keyspace.Key][]overlay.Entry{q.Key(): confYearEntries("SIGCOMM", c.entries)}}, cache.LRU, 30)
		ctx := context.Background()
		resp, err := svc.LookupCtx(ctx, q) // warms the memo and keeps the list
		if err != nil || len(resp.Index) != c.entries {
			t.Fatalf("lookup: %d entries, %v", len(resp.Index), err)
		}
		for _, target := range resp.Index[:c.shortcuts] {
			svc.AddShortcut(resp.Node, q, target)
		}
		if resp, err := svc.LookupCtx(ctx, q); err != nil || len(resp.Cached) != c.shortcuts {
			t.Fatalf("lookup: %d shortcuts, %v", len(resp.Cached), err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := svc.LookupCtx(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("warm %d-entry lookup with %d shortcuts = %v allocs, want <= %v (was %v)", c.entries, c.shortcuts, allocs, c.ceiling, c.was)
		}
	}
}

// BenchmarkLookupWarm times one warm lookup(q) against a canned node
// serving a sorted list of 1, 16 or 512 index entries: the response
// assembly respond does above the substrate read.
func BenchmarkLookupWarm(b *testing.B) {
	for _, n := range []int{1, 16, 512} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			q := dataset.ConfQuery("SIGCOMM")
			svc := New(&cannedNetwork{sets: map[keyspace.Key][]overlay.Entry{q.Key(): confYearEntries("SIGCOMM", n)}}, cache.LRU, 30)
			ctx := context.Background()
			if resp, err := svc.LookupCtx(ctx, q); err != nil || len(resp.Index) != n {
				b.Fatalf("lookup: %d entries, %v", len(resp.Index), err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.LookupCtx(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestServiceConcurrentReadPath runs everything that touches the
// service's two locks from 8 goroutines at once (run with -race):
// lookups whose entries nobody has parsed yet, shortcut installs and
// touches on the serving node, and cache statistics.
func TestServiceConcurrentReadPath(t *testing.T) {
	const confs, years = 48, 8
	net := &cannedNetwork{sets: make(map[keyspace.Key][]overlay.Entry)}
	queries := make([]xpath.Query, confs)
	for i := range queries {
		conf := fmt.Sprintf("CONF%02d", i)
		queries[i] = dataset.ConfQuery(conf)
		net.sets[queries[i].Key()] = confYearEntries(conf, years)
	}
	svc := New(net, cache.LRU, 30)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(i+g*confs/8)%confs] // each goroutine meets fresh strings first somewhere
				resp, err := svc.LookupCtx(ctx, q)
				if err != nil || len(resp.Index) != years {
					t.Errorf("lookup %s: %d entries, %v", q, len(resp.Index), err)
					return
				}
				target := resp.Index[g%years]
				svc.AddShortcut(resp.Node, q, target)
				svc.TouchShortcut(resp.Node, q, target)
				if stats := svc.CacheStats(); stats.Nodes != 1 {
					t.Errorf("cache stats: %+v", stats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if stats := svc.CacheStats(); stats.TotalKeys != 30 {
		t.Fatalf("LRU-30 store holds %d shortcuts after the storm, want 30", stats.TotalKeys)
	}
	resp, err := svc.LookupCtx(ctx, queries[0])
	if err != nil || !slices.IsSortedFunc(resp.Cached, compareForms) {
		t.Fatalf("cached shortcuts out of canonical order: %v, %v", resp.Cached, err)
	}
}

// opCountingNetwork counts the client operations an index call issues
// against the substrate it wraps.
type opCountingNetwork struct {
	overlay.Network
	probes, mappingRemoves int
}

func (c *opCountingNetwork) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	c.probes++
	return c.Network.Get(key)
}

func (c *opCountingNetwork) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	if e.Kind == KindIndex {
		c.mappingRemoves++
	}
	return c.Network.Remove(key, e)
}

func countingService(t *testing.T) (*Service, *opCountingNetwork) {
	t.Helper()
	net := testRing(t, 8, 1)
	counting := &opCountingNetwork{Network: net}
	return New(counting, cache.None, 0), counting
}

// TestUnpublishProbesAndRemovesOnce: the Complex scheme's four chains all
// end in the MSD and two of them share conf+year, so unpublishing a sole
// article over overlay.PerKey takes 8 distinct mapping removes — not the
// 9 of walking every chain on its own — and 9 probes, one per distinct
// key its prunes touch: msd, author+conf+year, author+title, conf+year,
// author+conf, title, conf, year and author.
func TestUnpublishProbesAndRemovesOnce(t *testing.T) {
	svc, net := countingService(t)
	a := descriptor.Fig1Articles()[0]
	if err := svc.PublishArticle("x.pdf", a, Complex); err != nil {
		t.Fatal(err)
	}
	net.probes, net.mappingRemoves = 0, 0
	if err := svc.UnpublishArticle("x.pdf", a, Complex); err != nil {
		t.Fatal(err)
	}
	if net.probes != 9 || net.mappingRemoves != 8 {
		t.Fatalf("unpublish issued %d probes and %d mapping removes, want 9 and 8", net.probes, net.mappingRemoves)
	}
	if stats := svc.StorageStats(); stats.IndexEntries != 0 || stats.DataEntries != 0 {
		t.Fatalf("entries left behind: %+v", stats)
	}
}

// forkScheme routes two chains through the author query by different
// mid-level queries: the second chain empties a key the first chain
// probed while it was still in use.
type forkScheme struct{}

func (forkScheme) Name() string { return "fork" }

func (forkScheme) Chains(a descriptor.Article) [][]xpath.Query {
	author := dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	msd := dataset.MSD(a)
	return [][]xpath.Query{
		{dataset.LastNameQuery(a.AuthorLast), author, dataset.AuthorConfQuery(a.AuthorFirst, a.AuthorLast, a.Conf), msd},
		{dataset.LastNamePrefixQuery(a.AuthorLast[:1]), author, dataset.AuthorTitleQuery(a.AuthorFirst, a.AuthorLast, a.Title), msd},
	}
}

// TestUnpublishReprobesKeyItEmptied: a probe result is only good until
// this call removes a mapping from that key. The first chain sees the
// author key still holding (author ; author+title) and stops; the second
// chain removes that mapping and must probe the author key again, find it
// empty and clean up above it.
func TestUnpublishReprobesKeyItEmptied(t *testing.T) {
	svc, _ := countingService(t)
	a := descriptor.Fig1Articles()[0]
	if err := svc.PublishArticle("x.pdf", a, forkScheme{}); err != nil {
		t.Fatal(err)
	}
	if err := svc.UnpublishArticle("x.pdf", a, forkScheme{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []xpath.Query{dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.LastNamePrefixQuery(a.AuthorLast[:1])} {
		resp, err := svc.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Index) != 0 {
			t.Errorf("%s still maps to %v", q, resp.Index)
		}
	}
}
