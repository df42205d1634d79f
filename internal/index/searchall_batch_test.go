package index

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/xpath"
)

// countingTransport counts the calls a cluster sends through it.
type countingTransport struct {
	wire.Transport
	calls atomic.Int64
}

func (c *countingTransport) Call(addr string, req wire.Message) (wire.Message, error) {
	c.calls.Add(1)
	return c.Transport.Call(addr, req)
}

// startRing boots nodes live nodes on mt, joined into one ring, and
// returns their addresses; the caller tracks them and waits for
// convergence.
func startRing(t *testing.T, mt wire.Transport, nodes, replication int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < nodes; i++ {
		n, err := wire.Start(wire.Config{Transport: mt, Addr: "mem:0", StabilizeInterval: 5 * time.Millisecond, ReplicationFactor: replication})
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		if i > 0 {
			if err := n.Join(addrs[0]); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
		addrs = append(addrs, n.Addr())
	}
	return addrs
}

// liveRing boots a converged MemTransport ring and returns a cluster
// over it together with the count of calls that cluster sends.
func liveRing(t *testing.T, nodes int) (*wire.Cluster, *countingTransport) {
	t.Helper()
	mt := wire.NewMemTransport()
	counted := &countingTransport{Transport: mt}
	cluster := wire.NewCluster(counted, 1, 0)
	for _, addr := range startRing(t, mt, nodes, 0) {
		cluster.Track(addr)
	}
	if err := cluster.WaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	return cluster, counted
}

// searchQueries draws the automated-search workload for a corpus:
// indexed queries of every breadth, most specific descriptors, queries
// no scheme indexes (the generalization fallback), and queries that
// match nothing.
func searchQueries(rng *rand.Rand, arts []descriptor.Article, n int) []xpath.Query {
	var qs []xpath.Query
	for i := 0; i < n; i++ {
		a, b := arts[rng.Intn(len(arts))], arts[rng.Intn(len(arts))]
		qs = append(qs, [...]xpath.Query{
			dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast),
			dataset.LastNameQuery(a.AuthorLast),
			dataset.ConfQuery(a.Conf),
			dataset.YearQuery(a.Year),
			dataset.ConfYearQuery(a.Conf, a.Year),
			dataset.TitleQuery(a.Title),
			dataset.MSD(a),
			dataset.AuthorYearQuery(a.AuthorFirst, a.AuthorLast, a.Year),
			dataset.AuthorConfQuery(a.AuthorFirst, a.AuthorLast, a.Conf),
			dataset.TitleYearQuery(a.Title, a.Year),
			dataset.AuthorConfYearQuery(a.AuthorFirst, a.AuthorLast, b.Conf, b.Year),
			dataset.AuthorQuery(a.AuthorFirst, b.AuthorLast+"-nobody"),
		}[rng.Intn(12)])
	}
	return qs
}

// TestSearchAllSameAtAnyParallelism is the equivalence the batched
// frontier rests on: over a live ring, for every scheme, random corpora
// and queries — indexed, not indexed, most specific, with cache.Multi
// shortcuts installed along the way — SearchAll returns the same results
// AND the same Trace (interactions, bytes, visit order, hops, NonIndexed,
// Unresolved) whether a level's lookups go out one at a time
// (Parallelism 1), in one owner-grouped GetBatch (Parallelism 8), or as
// concurrent single reads over a substrate without the batch read. The
// same holds with MaxFanout cutting a level short, and for the
// generalization fallback's waves under Find. The batched arm must also
// be what it is for: fewer calls.
func TestSearchAllSameAtAnyParallelism(t *testing.T) {
	for si, scheme := range []Scheme{Simple, Flat, Complex, Fig4} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", scheme.Name(), seed), func(t *testing.T) {
				t.Parallel()
				corpus, err := dataset.Generate(dataset.Config{Articles: 70, Seed: 100*seed + int64(si)})
				if err != nil {
					t.Fatal(err)
				}
				arts := corpus.Articles
				cluster, calls := liveRing(t, 6)
				svc := New(cluster, cache.Multi, 0)
				for i, a := range arts {
					if err := svc.PublishArticle(fmt.Sprintf("f-%d.pdf", i), a, scheme); err != nil {
						t.Fatal(err)
					}
				}
				// The adapter arm is a service of its own over the same ring: it
				// has its own shortcut caches, filled by the same finds below.
				adapter := New(overlay.PerKey(cluster), cache.Multi, 0)
				sequential, batched, concurrent := NewSearcher(svc), NewSearcher(svc), NewSearcher(adapter)
				batched.Parallelism, concurrent.Parallelism = 8, 8

				rng := rand.New(rand.NewSource(seed))
				var seqCalls, batchCalls int64
				compare := func(q xpath.Query, maxFanout int) Trace {
					t.Helper()
					sequential.MaxFanout, batched.MaxFanout, concurrent.MaxFanout = maxFanout, maxFanout, maxFanout
					before := calls.calls.Load()
					want, wantTrace, err := sequential.SearchAll(q)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					mid := calls.calls.Load()
					got, gotTrace, err := batched.SearchAll(q)
					seqCalls, batchCalls = seqCalls+mid-before, batchCalls+calls.calls.Load()-mid
					if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTrace, wantTrace) {
						t.Fatalf("%s (MaxFanout %d): batched search diverged (%v)\n got  %v\n      %+v\n want %v\n      %+v",
							q, maxFanout, err, got, gotTrace, want, wantTrace)
					}
					got, gotTrace, err = concurrent.SearchAll(q)
					if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTrace, wantTrace) {
						t.Fatalf("%s (MaxFanout %d): concurrent single reads diverged (%v)\n got  %v\n      %+v\n want %v\n      %+v",
							q, maxFanout, err, got, gotTrace, want, wantTrace)
					}
					if wantTrace.Incomplete || (maxFanout > 0 && wantTrace.Interactions > maxFanout) {
						t.Fatalf("%s (MaxFanout %d): trace %+v on a healthy ring", q, maxFanout, wantTrace)
					}
					return wantTrace
				}

				nonIndexed, found := 0, 0
				for i, q := range searchQueries(rng, arts, 60) {
					trace := compare(q, 0)
					if trace.NonIndexed {
						nonIndexed++
					}
					if trace.Found {
						found++
					}
					if i%3 == 0 {
						// Install shortcuts for the searches that follow, and
						// hold the generalization waves to the same standard.
						a := arts[rng.Intn(len(arts))]
						for _, from := range []xpath.Query{
							dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast),
							dataset.AuthorConfYearQuery(a.AuthorFirst, a.AuthorLast, a.Conf, a.Year),
						} {
							// The first finds install the shortcuts, in both services;
							// the next two see the same caches, so their traces must
							// agree.
							for _, s := range []*Searcher{sequential, concurrent} {
								if _, err := s.Find(from, dataset.MSD(a)); err != nil {
									t.Fatal(err)
								}
							}
							want, werr := sequential.Find(from, dataset.MSD(a))
							got, gerr := batched.Find(from, dataset.MSD(a))
							if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
								t.Fatalf("find %s: parallel trace %+v (%v), sequential %+v (%v)", from, got, gerr, want, werr)
							}
						}
					}
				}
				if nonIndexed == 0 || found == 0 || nonIndexed == 60 {
					t.Fatalf("workload too narrow: %d non-indexed, %d found of 60", nonIndexed, found)
				}
				broad := dataset.ConfQuery(arts[0].Conf)
				full := compare(broad, 0)
				for _, cut := range []int{1, 2, 3, 5, 8, 13, full.Interactions - 1} {
					if trace := compare(broad, cut); cut > 0 && trace.Interactions != min(cut, full.Interactions) {
						t.Fatalf("MaxFanout %d explored %d nodes of %d", cut, trace.Interactions, full.Interactions)
					}
				}
				if batchCalls >= seqCalls {
					t.Fatalf("batched searches sent %d calls, one-at-a-time searches %d", batchCalls, seqCalls)
				}
			})
		}
	}
}

// budgetNetwork serves a fixed number of reads and then cancels the
// search's context, so a search runs out of budget at an exact point of
// its walk — in the middle of a level. Its batch read serves a batch's
// keys in order, so the point is the same however the level is fetched.
type budgetNetwork struct {
	overlay.Substrate
	left   int
	cancel context.CancelFunc
}

func (b *budgetNetwork) GetCtx(ctx context.Context, key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	if err := ctx.Err(); err != nil {
		return nil, overlay.Route{}, err
	}
	if b.left--; b.left == 0 {
		defer b.cancel()
	}
	return b.Substrate.Get(key)
}

func (b *budgetNetwork) GetUnlessCtx(ctx context.Context, key keyspace.Key, _ uint64) ([]overlay.Entry, overlay.Route, bool, error) {
	entries, route, err := b.GetCtx(ctx, key)
	return entries, route, false, err
}

func (b *budgetNetwork) GetBatch(ctx context.Context, keys []keyspace.Key, _ []uint64, _ int) []overlay.GetResult {
	out := make([]overlay.GetResult, len(keys))
	for i, k := range keys {
		out[i].Entries, out[i].Route, out[i].Err = b.GetCtx(ctx, k)
	}
	return out
}

// TestSearchAllBudgetSpentMidLevel: when the deadline budget runs out
// part-way through a level, the branches already answered are kept, and
// the rest of the level and everything queued behind it is listed as
// Unresolved — the same list, in the same order, at any Parallelism.
func TestSearchAllBudgetSpentMidLevel(t *testing.T) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 150, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	net := testRing(t, 16, 1)
	pub := New(net, cache.None, 0)
	for i, a := range corpus.Articles {
		if err := pub.PublishArticle(fmt.Sprintf("f-%d.pdf", i), a, Complex); err != nil {
			t.Fatal(err)
		}
	}
	// The broadest of the corpus's conference and year queries: its walk
	// has levels wide enough to be cut anywhere.
	var q xpath.Query
	var all []Result
	var whole Trace
	for _, a := range corpus.Articles {
		for _, cand := range []xpath.Query{dataset.ConfQuery(a.Conf), dataset.YearQuery(a.Year)} {
			results, trace, err := NewSearcher(pub).SearchAll(cand)
			if err != nil {
				t.Fatal(err)
			}
			if trace.Interactions > whole.Interactions {
				q, all, whole = cand, results, trace
			}
		}
	}
	if whole.Interactions < 12 {
		t.Fatalf("broadest search has %d interactions; the corpus is too small to cut a level", whole.Interactions)
	}
	run := func(reads, parallelism int) ([]Result, Trace) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		searcher := NewSearcher(New(&budgetNetwork{Substrate: net, left: reads, cancel: cancel}, cache.None, 0))
		searcher.Parallelism = parallelism
		results, trace, err := searcher.SearchAllCtx(ctx, q)
		if err != nil {
			t.Fatalf("a spent budget must degrade, not fail: %v", err)
		}
		return results, trace
	}
	for reads := 1; reads < whole.Interactions; reads++ {
		want, wantTrace := run(reads, 1)
		got, gotTrace := run(reads, 8)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("budget of %d reads: parallel search diverged\n got  %v\n      %+v\n want %v\n      %+v",
				reads, got, gotTrace, want, wantTrace)
		}
		if !wantTrace.Incomplete || wantTrace.Interactions != reads || len(wantTrace.Unresolved) == 0 {
			t.Fatalf("budget of %d reads: trace %+v", reads, wantTrace)
		}
		if !reflect.DeepEqual(wantTrace.Visited, whole.Visited[:reads]) {
			t.Fatalf("budget of %d reads: visited %v, the unbounded walk starts %v", reads, wantTrace.Visited, whole.Visited[:reads])
		}
		for _, u := range wantTrace.Unresolved {
			if u.Reason != context.Canceled.Error() && u != wantTrace.Unresolved[0] {
				t.Fatalf("budget of %d reads: unresolved %+v is not the spent budget", reads, u)
			}
		}
		if len(want) > len(all) {
			t.Fatalf("budget of %d reads found %d files, the whole index holds %d", reads, len(want), len(all))
		}
	}
}
