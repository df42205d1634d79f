package index

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

// verdicts is a live cluster that counts the offers and verdicts of its
// conditional reads, single and batched (DESIGN.md §37, §42).
type verdicts struct {
	*wire.Cluster
	offers, unchanged atomic.Int64
}

func (v *verdicts) GetUnlessCtx(ctx context.Context, key keyspace.Key, digest uint64) ([]overlay.Entry, overlay.Route, bool, error) {
	entries, route, unchanged, err := v.Cluster.GetUnlessCtx(ctx, key, digest)
	v.offers.Add(1)
	if unchanged {
		v.unchanged.Add(1)
	}
	return entries, route, unchanged, err
}

func (v *verdicts) GetBatch(ctx context.Context, keys []keyspace.Key, offers []uint64, parallel int) []overlay.GetResult {
	got := v.Cluster.GetBatch(ctx, keys, offers, parallel)
	for i, r := range got {
		if offers != nil && offers[i] != 0 {
			v.offers.Add(1)
		}
		if r.Unchanged {
			v.unchanged.Add(1)
		}
	}
	return got
}

// take returns the offers and unchanged verdicts since the last take.
func (v *verdicts) take() (offers, unchanged int64) {
	return v.offers.Swap(0), v.unchanged.Swap(0)
}

// tcpRing boots n nodes on loopback TCP at the given replication and
// returns a verdict-counting cluster over them and the nodes.
func tcpRing(t testing.TB, n, replication int) (*verdicts, []*wire.Node) {
	t.Helper()
	transport := wire.NewTCPTransport()
	t.Cleanup(transport.CloseConnections)
	cluster := wire.NewCluster(transport, 1, replication)
	var nodes []*wire.Node
	for i := 0; i < n; i++ {
		node, err := wire.Start(wire.Config{Transport: transport, Addr: "127.0.0.1:0", ReplicationFactor: replication})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		if i > 0 {
			if err := node.Join(nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, node)
		cluster.Track(node.Addr())
	}
	if err := cluster.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	return &verdicts{Cluster: cluster}, nodes
}

// memRing boots an n-node MemRing at R = 0 and returns a
// verdict-counting cluster over it.
func memRing(t testing.TB, n int) *verdicts {
	t.Helper()
	ring, err := wire.StartMemRing(n, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ring.Close)
	return &verdicts{Cluster: ring.Cluster}
}

// TestConditionalLookupMatchesPerEntryReference publishes a corpus on a
// loopback-TCP ring and looks every key its chains use up twice. Both
// lookups must equal the per-entry reference in every field; the second
// of every key with a kept list — one or more index entries and no data
// — must be served "unchanged" and equal the first field for field, and
// no other lookup may be offered.
func TestConditionalLookupMatchesPerEntryReference(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 2000, Seed: 2004})
	if err != nil {
		t.Fatal(err)
	}
	net, _ := tcpRing(t, 4, 0)
	svc := New(net, cache.None, 0)
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
	for _, q := range queries {
		first := checkLookup(t, svc, q, "first lookup")
		if offers, _ := net.take(); offers != 0 {
			t.Fatalf("lookup %s: first lookup made %d offers", q, offers)
		}
		second := checkLookup(t, svc, q, "second lookup")
		offers, unchanged := net.take()
		conditional := len(first.Index) >= 1 && len(first.Files) == 0
		if want := map[bool]int64{true: 1}[conditional]; offers != want || unchanged != want {
			t.Fatalf("lookup %s (%d index entries, %d files): %d offers, %d unchanged; want %d", q, len(first.Index), len(first.Files), offers, unchanged, want)
		}
		if diffs := responseDiffs(second, first); len(diffs) > 0 {
			t.Fatalf("lookup %s: second lookup differs from the first:\n%v", q, diffs)
		}
		if conditional {
			if &second.Index[0] != &first.Index[0] {
				t.Fatalf("lookup %s: unchanged %d-entry list not served uncopied", q, len(second.Index))
			}
			served++
		}
	}
	if served == 0 {
		t.Fatal("no lookup was served unchanged")
	}
	t.Logf("%d keys looked up twice, %d served unchanged", len(queries), served)
}

// TestConditionalLookupFollowsStore: a key's list gains an entry, has
// one swapped for another of the same count, loses entries, empties and
// fills again between lookups. The first lookup after each change must
// never be served unchanged and must follow the store at once; the
// second is served unchanged exactly when a list is kept, which is
// whenever the key holds an index entry.
func TestConditionalLookupFollowsStore(t *testing.T) {
	net := memRing(t, 4)
	svc := New(net, cache.None, 0)
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
		// Straight to the substrate: RemoveMapping would drop the kept
		// list, and the lookup must notice the change by itself.
		entry := overlay.Entry{Kind: KindIndex, Value: year(y).String()}
		if removed, err := net.Remove(conf.Key(), entry); err != nil || !removed {
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
		{"back to two", func() { insert(2005) }, []int{2003, 2005}},
		{"empty", func() { remove(2003); remove(2005) }, nil},
		{"two again", func() { insert(2006); insert(2007) }, []int{2006, 2007}},
	} {
		step.change()
		for round := 0; round < 2; round++ {
			got := checkLookup(t, svc, conf, step.name)
			if len(got.Index) != len(step.want) {
				t.Fatalf("%s, round %d: %d entries, want %v", step.name, round, len(got.Index), step.want)
			}
			for i, y := range step.want {
				if !got.Index[i].Equal(year(y)) {
					t.Fatalf("%s, round %d: entry %d = %s, want %s", step.name, round, i, got.Index[i], year(y))
				}
			}
			_, unchanged := net.take()
			if want := round == 1 && len(step.want) >= 1; (unchanged == 1) != want || unchanged > 1 {
				t.Fatalf("%s, round %d: %d lookups served unchanged, want %v", step.name, round, unchanged, want)
			}
		}
		if len(step.want) == 0 && svc.keptList(conf) != nil {
			t.Fatalf("%s: a list is still kept for an empty key", step.name)
		}
	}
}

// TestConditionalLookupAfterOwnerStops: the owner of a key whose list
// the client keeps crashes between lookups, still tracked. The offer
// fails, the read fails over to a replica, and every lookup after the
// crash returns the list it returned before.
func TestConditionalLookupAfterOwnerStops(t *testing.T) {
	net, nodes := tcpRing(t, 4, 1)
	svc := New(net, cache.None, 0)
	conf := dataset.ConfQuery("INFOCOM")
	for y := 1996; y < 2000; y++ {
		if err := svc.InsertMapping(conf, dataset.ConfYearQuery("INFOCOM", y)); err != nil {
			t.Fatal(err)
		}
	}
	before := checkLookup(t, svc, conf, "before the crash")
	if again := checkLookup(t, svc, conf, "before the crash, again"); len(again.Index) != 4 {
		t.Fatalf("%d entries, want 4", len(again.Index))
	}
	if _, unchanged := net.take(); unchanged != 1 {
		t.Fatalf("%d lookups served unchanged before the crash, want 1", unchanged)
	}
	for _, n := range nodes {
		if n.Addr() == before.Node {
			n.Stop()
		}
	}
	for i := 0; i < 3; i++ {
		got, err := svc.Lookup(conf)
		if err != nil {
			t.Fatalf("lookup %d after the crash: %v", i, err)
		}
		if got.Node == before.Node {
			t.Fatalf("lookup %d after the crash claims the crashed owner %s", i, got.Node)
		}
		if diffs := responseDiffs(got, Response{Node: got.Node, Hops: got.Hops, Index: before.Index, Bytes: before.Bytes}); len(diffs) > 0 {
			t.Fatalf("lookup %d after the crash:\n%v", i, diffs)
		}
	}
	if m := net.Metrics(); m.FailoverReads == 0 {
		t.Fatalf("no read failed over: %+v", m)
	}
}

// TestConditionalLookupSeesAckedWrites runs lookups of one hot key from
// several readers while a writer adds mappings under it (run with
// -race). Each lookup must return every mapping acknowledged before it
// started and none not yet sent, in canonical order: a lookup served
// "unchanged" while another rebuilds the key's list gets the list its
// own offer named, never an older one.
func TestConditionalLookupSeesAckedWrites(t *testing.T) {
	const readers, writes = 4, 60
	net := memRing(t, 4)
	svc := New(net, cache.None, 0)
	conf := dataset.ConfQuery("SIGMOD")
	year := func(i int) xpath.Query { return dataset.ConfYearQuery("SIGMOD", 1900+i) }
	for i := 0; i < 2; i++ {
		if err := svc.InsertMapping(conf, year(i)); err != nil {
			t.Fatal(err)
		}
	}
	var acked, sent atomic.Int64
	acked.Store(2)
	sent.Store(2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				low := int(acked.Load())
				got, err := svc.Lookup(conf)
				high := int(sent.Load())
				if err != nil {
					errs <- err
					return
				}
				if len(got.Index) < low || len(got.Index) > high {
					errs <- fmt.Errorf("lookup returned %d mappings, with %d acked before it and %d sent after", len(got.Index), low, high)
					return
				}
				for i, q := range got.Index {
					if !q.Equal(year(i)) {
						errs <- fmt.Errorf("entry %d = %s, want %s", i, q, year(i))
						return
					}
				}
			}
		}()
	}
	for i := 2; i < writes; i++ {
		sent.Store(int64(i + 1))
		if err := svc.InsertMapping(conf, year(i)); err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(i + 1))
		time.Sleep(200 * time.Microsecond)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if offers, unchanged := net.take(); unchanged == 0 || offers == unchanged {
		t.Fatalf("%d offers, %d unchanged: the race exercised only one verdict", offers, unchanged)
	}
}

// TestConditionalSearchAllBatch: an automated search at Parallelism 8
// reads each frontier level in one batch, and each key of it that has a
// kept list offers that list's digest. Searched twice over an unchanged
// index, every read of the second search offers and is answered
// unchanged, and both searches return what the sequential search
// returns. After a second service publishes more articles under the
// query, the next search returns them too.
func TestConditionalSearchAllBatch(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 300, Conferences: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	net := memRing(t, 8)
	writer := New(net, cache.None, 0)
	for i, a := range corpus.Articles[:200] {
		if err := writer.PublishArticle(fmt.Sprintf("b%03d.pdf", i), a, Simple); err != nil {
			t.Fatal(err)
		}
	}
	q := dataset.ConfQuery(corpus.Articles[0].Conf)
	svc := New(net, cache.None, 0)
	par := NewSearcher(svc)
	par.Parallelism = 8
	search := func(s *Searcher) ([]Result, Trace) {
		t.Helper()
		results, trace, err := s.SearchAll(q)
		if err != nil || trace.Incomplete {
			t.Fatalf("search at parallelism %d: %v, %+v", s.Parallelism, err, trace.Unresolved)
		}
		return results, trace
	}
	same := func(when string) {
		t.Helper()
		want, wantTrace := search(NewSearcher(New(net, cache.None, 0)))
		got, gotTrace := search(par)
		if !reflect.DeepEqual(got, want) || gotTrace.Interactions != wantTrace.Interactions || gotTrace.ResponseBytes != wantTrace.ResponseBytes {
			t.Fatalf("%s: parallel search returned %d results in %d interactions, the sequential one %d in %d",
				when, len(got), gotTrace.Interactions, len(want), wantTrace.Interactions)
		}
	}
	same("first search")
	net.take()
	same("second search")
	offers, unchanged := net.take()
	if offers == 0 || unchanged != offers {
		t.Fatalf("second search over an unchanged index: %d offers, %d unchanged", offers, unchanged)
	}
	for i, a := range corpus.Articles[200:] {
		if err := writer.PublishArticle(fmt.Sprintf("c%03d.pdf", i), a, Simple); err != nil {
			t.Fatal(err)
		}
	}
	same("after more articles")
}

// TestUnpublishForgetsKeptLists runs publish → find → unpublish rounds:
// finds keep lists for the keys they read, and unpublishing every
// article removes a mapping under each of those keys, which drops its
// list. Both prune paths are covered: the live cluster's owner-grouped
// Prune, and one Remove per mapping behind a plain Network.
func TestUnpublishForgetsKeptLists(t *testing.T) {
	for name, net := range map[string]func(t *testing.T) overlay.Network{
		"prune":   func(t *testing.T) overlay.Network { return memRing(t, 16) },
		"per-key": func(t *testing.T) overlay.Network { return testRing(t, 16, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			svc := New(net(t), cache.None, 0)
			searcher := NewSearcher(svc)
			for round := 0; round < 3; round++ {
				// Fresh articles each round: tombstones suppress re-adding
				// a removed mapping (DESIGN.md §15).
				corpus, err := dataset.Generate(dataset.Config{Articles: 150, Seed: int64(17 + round)})
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range corpus.Articles {
					if err := svc.PublishArticle(fmt.Sprintf("r%d-%d.pdf", round, i), a, Simple); err != nil {
						t.Fatal(err)
					}
				}
				for _, a := range corpus.Articles {
					msd := dataset.MSD(a)
					for _, q := range []xpath.Query{dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.ConfYearQuery(a.Conf, a.Year)} {
						if _, err := searcher.Find(q, msd); err != nil {
							t.Fatalf("round %d: find %s from %s: %v", round, msd, q, err)
						}
					}
				}
				if svc.keptCount() == 0 {
					t.Fatalf("round %d: the finds kept no list", round)
				}
				for i, a := range corpus.Articles {
					if err := svc.UnpublishArticle(fmt.Sprintf("r%d-%d.pdf", round, i), a, Simple); err != nil {
						t.Fatal(err)
					}
				}
				if n := svc.keptCount(); n != 0 {
					t.Fatalf("round %d: %d lists kept with no article live", round, n)
				}
			}
		})
	}
}

// BenchmarkLookupTCP times one lookup(q) over loopback TCP against a
// one-node ring holding a conference query's list of 1, 16 or 512 index
// entries. "unchanged" is a warm conditional lookup, which the owner
// answers with its verdict alone. "changed" is one whose offer misses:
// the owner ships the list, and the client decodes it, compares it with
// its kept list and keeps that list again under the set's digest, which
// is what every warm lookup cost before lookups were conditional.
func BenchmarkLookupTCP(b *testing.B) {
	for _, n := range []int{1, 16, 512} {
		net, _ := tcpRing(b, 1, 0)
		svc := New(net, cache.None, 0)
		q := dataset.ConfQuery("SIGCOMM")
		items := make([]overlay.KeyEntry, n)
		for i := range items {
			items[i] = overlay.KeyEntry{Key: q.Key(), Entry: overlay.Entry{Kind: KindIndex, Value: dataset.ConfYearQuery("SIGCOMM", 1000+i).String()}}
		}
		ctx := context.Background()
		if err := net.PutBatch(ctx, items); err != nil {
			b.Fatal(err)
		}
		if resp, err := svc.LookupCtx(ctx, q); err != nil || len(resp.Index) != n {
			b.Fatalf("lookup: %d entries, %v", len(resp.Index), err)
		}
		for _, changed := range []bool{false, true} {
			name := fmt.Sprintf("entries=%d/%s", n, map[bool]string{false: "unchanged", true: "changed"}[changed])
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if changed {
						svc.spoilDigest(q)
					}
					if _, err := svc.LookupCtx(ctx, q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
