package index

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/xpath"
)

// responseDiffs lists, field by field, how got differs from want. Query
// lists compare by canonical form, in order.
func responseDiffs(got, want Response) []string {
	forms := func(qs []xpath.Query) []string {
		out := make([]string, len(qs))
		for i, q := range qs {
			out[i] = q.String()
		}
		return out
	}
	var diffs []string
	field := func(name string, differ bool, g, w any) {
		if differ {
			diffs = append(diffs, fmt.Sprintf("%s = %v, want %v", name, g, w))
		}
	}
	field("Node", got.Node != want.Node, got.Node, want.Node)
	field("Hops", got.Hops != want.Hops, got.Hops, want.Hops)
	field("Index", !slices.Equal(forms(got.Index), forms(want.Index)), forms(got.Index), forms(want.Index))
	field("Cached", !slices.Equal(forms(got.Cached), forms(want.Cached)), forms(got.Cached), forms(want.Cached))
	field("Files", !slices.Equal(got.Files, want.Files), got.Files, want.Files)
	field("Bytes", got.Bytes != want.Bytes, got.Bytes, want.Bytes)
	field("CachePortion", got.CachePortion != want.CachePortion, got.CachePortion, want.CachePortion)
	return diffs
}

// checkLookup looks q up through the service and holds the Response to
// the per-entry reference built from a read of its own.
func checkLookup(t *testing.T, svc *Service, q xpath.Query, when string) Response {
	t.Helper()
	ctx := context.Background()
	got, err := svc.LookupCtx(ctx, q)
	if err != nil {
		t.Fatalf("%s: lookup %s: %v", when, q, err)
	}
	var read overlay.GetResult
	read.Entries, read.Route, read.Err = svc.net.GetCtx(ctx, q.Key())
	want, err := svc.respondPerEntry(q, read)
	if err != nil {
		t.Fatalf("%s: reference lookup %s: %v", when, q, err)
	}
	if diffs := responseDiffs(got, want); len(diffs) > 0 {
		t.Fatalf("%s: lookup %s differs from the per-entry reference:\n%v", when, q, diffs)
	}
	if cap(got.Index) != len(got.Index) {
		t.Fatalf("%s: lookup %s: Index has cap %d > len %d", when, q, cap(got.Index), len(got.Index))
	}
	return got
}

// TestRespondMatchesPerEntryReference publishes the 10,000-article corpus
// on a live ring and looks every key its chains use up twice: the first
// lookup builds the key's list, the second serves it. Both must equal the
// per-entry reference in every field, with shortcuts installed on a third
// of the keys between the two, and every list, one-entry lists included,
// must be served uncopied the second time.
func TestRespondMatchesPerEntryReference(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 10000, Seed: 2004})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(testRing(t, 8, 1), cache.LRU, 30)
	var queries []xpath.Query
	seen := make(map[string]bool)
	for i, a := range corpus.Articles {
		if err := svc.PublishArticle(fmt.Sprintf("a%05d.pdf", i), a, Complex); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		for _, chain := range Complex.Chains(a) {
			for _, q := range chain {
				if !seen[q.String()] {
					seen[q.String()] = true
					queries = append(queries, q)
				}
			}
		}
	}
	served := 0
	for i, q := range queries {
		first := checkLookup(t, svc, q, "first lookup")
		if i%3 == 0 && len(first.Index) > 0 {
			svc.AddShortcut(first.Node, q, first.Index[len(first.Index)-1])
		}
		second := checkLookup(t, svc, q, "second lookup")
		if len(second.Index) >= 1 {
			if &second.Index[0] != &first.Index[0] {
				t.Fatalf("lookup %s: %d-entry list rebuilt on an unchanged store", q, len(second.Index))
			}
			served++
		}
	}
	if served == 0 {
		t.Fatal("no list was served from its kept list")
	}
	t.Logf("%d keys looked up twice, %d served a kept list", len(queries), served)
}

// TestKeptListFollowsStore: a key's list gains an entry, has one swapped
// for another of the same count, and loses entries between lookups; each
// lookup must follow the store at once.
func TestKeptListFollowsStore(t *testing.T) {
	svc := New(testRing(t, 4, 1), cache.None, 0)
	conf := dataset.ConfQuery("SIGCOMM")
	year := func(y int) xpath.Query { return dataset.ConfYearQuery("SIGCOMM", y) }
	insert := func(y int) {
		t.Helper()
		if err := svc.InsertMapping(conf, year(y)); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(y int) {
		t.Helper()
		if removed, err := svc.RemoveMapping(conf, year(y)); err != nil || !removed {
			t.Fatalf("remove %d: %v, %v", y, removed, err)
		}
	}
	for _, step := range []struct {
		name   string
		change func()
		want   []int
	}{
		{"two entries", func() { insert(2001); insert(2003) }, []int{2001, 2003}},
		{"gains one", func() { insert(2002) }, []int{2001, 2002, 2003}},
		{"swaps one", func() { remove(2002); insert(2004) }, []int{2001, 2003, 2004}},
		{"loses one", func() { remove(2004) }, []int{2001, 2003}},
		{"down to one", func() { remove(2001) }, []int{2003}},
		{"empty", func() { remove(2003) }, nil},
		{"back to two", func() { insert(2005); insert(2006) }, []int{2005, 2006}},
	} {
		step.change()
		for round := 0; round < 2; round++ {
			got := checkLookup(t, svc, conf, step.name)
			if len(got.Index) != len(step.want) {
				t.Fatalf("%s: %d entries, want %v", step.name, len(got.Index), step.want)
			}
			for i, y := range step.want {
				if !got.Index[i].Equal(year(y)) {
					t.Fatalf("%s: entry %d = %s, want %s", step.name, i, got.Index[i], year(y))
				}
			}
		}
	}
}

// TestUnsortedEntriesKeepNoList: entries that arrive out of canonical
// order, as a simulated substrate serves them, are sorted per lookup and
// no list is kept; a key that had a list loses it when its set turns up
// unsorted.
func TestUnsortedEntriesKeepNoList(t *testing.T) {
	q := dataset.ConfQuery("SIGCOMM")
	sorted := confYearEntries("SIGCOMM", 8)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	net := &cannedNetwork{sets: map[keyspace.Key][]overlay.Entry{q.Key(): reversed}}
	svc := New(net, cache.None, 0)
	for round := 0; round < 2; round++ {
		checkLookup(t, svc, q, "reversed")
		if kept := svc.keptList(q); kept != nil {
			t.Fatalf("reversed set: a %d-entry list is kept", len(kept))
		}
	}
	net.sets[q.Key()] = sorted
	checkLookup(t, svc, q, "sorted")
	if kept := svc.keptList(q); len(kept) != len(sorted) {
		t.Fatalf("sorted set: kept list of %d entries, want %d", len(kept), len(sorted))
	}
	net.sets[q.Key()] = reversed
	checkLookup(t, svc, q, "reversed again")
	if kept := svc.keptList(q); kept != nil {
		t.Fatalf("reversed again: the sorted set's list is still kept")
	}
}

// TestUnparsableEntryKeepsNoList: a sorted set holding an entry that does
// not parse answers without it, as the reference does, and keeps no list
// (its forms could never equal the set's entries one for one).
func TestUnparsableEntryKeepsNoList(t *testing.T) {
	q := dataset.ConfQuery("SIGCOMM")
	entries := append(confYearEntries("SIGCOMM", 4), overlay.Entry{Kind: KindIndex, Value: "[["})
	if !slices.IsSortedFunc(entries, func(a, b overlay.Entry) int { return strings.Compare(a.Value, b.Value) }) {
		t.Fatal("fixture: entries not sorted")
	}
	svc := New(&cannedNetwork{sets: map[keyspace.Key][]overlay.Entry{q.Key(): entries}}, cache.None, 0)
	for round := 0; round < 2; round++ {
		if got := checkLookup(t, svc, q, "unparsable"); len(got.Index) != 4 {
			t.Fatalf("round %d: %d entries, want 4", round, len(got.Index))
		}
		if kept := svc.keptList(q); kept != nil {
			t.Fatalf("round %d: a %d-entry list is kept", round, len(kept))
		}
	}
}
