package dhtindex

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§V) as Go benchmarks. Each benchmark reports the figure's
// series through b.ReportMetric, so `go test -bench=.` prints the same
// rows the paper plots. Simulation scale is reduced from the paper's
// 500/10000/50000 to keep the full suite fast; cmd/indexsim runs the
// full-scale version (see EXPERIMENTS.md for the side-by-side numbers).

import (
	"fmt"
	"sync"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/sim"
	"dhtindex/internal/stats"
	"dhtindex/internal/wire"
	"dhtindex/internal/workload"
	"dhtindex/internal/xpath"
)

// Benchmark scale (reduced from the paper's 500/10k/50k).
const (
	benchNodes    = 200
	benchArticles = 3000
	benchQueries  = 15000
	benchSeed     = 1
)

// benchCell identifies one scheme × policy configuration.
type benchCell struct {
	scheme string
	policy cache.Policy
	lru    int
}

var (
	benchMu     sync.Mutex
	benchCorpus *dataset.Corpus
	benchMemo   = map[benchCell]*sim.Metrics{}
)

// benchRun memoizes full simulation runs across benchmarks so that the
// grid of figures shares each scheme × policy execution.
func benchRun(b *testing.B, scheme index.Scheme, policy cache.Policy, lru int) *sim.Metrics {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchCorpus == nil {
		c, err := dataset.Generate(dataset.Config{Articles: benchArticles, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		benchCorpus = c
	}
	cell := benchCell{scheme: scheme.Name(), policy: policy, lru: lru}
	if m, ok := benchMemo[cell]; ok {
		return m
	}
	m, err := sim.Run(sim.Options{
		Nodes:       benchNodes,
		Articles:    benchArticles,
		Queries:     benchQueries,
		Scheme:      scheme,
		Policy:      policy,
		LRUCapacity: lru,
		Seed:        benchSeed,
		Corpus:      benchCorpus,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchMemo[cell] = m
	return m
}

// gridPolicies are the cache configurations of Figs. 11-14 and Table I.
var gridPolicies = []struct {
	label string
	pol   cache.Policy
	lru   int
}{
	{"no-cache", cache.None, 0},
	{"multi-cache", cache.Multi, 0},
	{"single-cache", cache.Single, 0},
	{"lru-10", cache.LRU, 10},
	{"lru-20", cache.LRU, 20},
	{"lru-30", cache.LRU, 30},
}

// BenchmarkFig07QueryTypes regenerates Fig. 7: the distribution of query
// types in the workload (percent of queries per structure).
func BenchmarkFig07QueryTypes(b *testing.B) {
	model := workload.PaperStructureModel()
	for _, s := range model.Structures() {
		b.Run(s.String()[1:], func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				gen, err := workload.NewGenerator(fig1Corpus(b).Articles, model, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				count := 0
				const sample = 9108 // BibFinder log size
				for j := 0; j < sample; j++ {
					if gen.Next().Structure == s {
						count++
					}
				}
				frac = 100 * float64(count) / sample
			}
			b.ReportMetric(frac, "%queries")
		})
	}
}

func fig1Corpus(b *testing.B) *dataset.Corpus {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchCorpus == nil {
		c, err := dataset.Generate(dataset.Config{Articles: benchArticles, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		benchCorpus = c
	}
	return benchCorpus
}

// BenchmarkFig09Popularity regenerates Fig. 9: the power-law exponent and
// fit quality of author-query popularity.
func BenchmarkFig09Popularity(b *testing.B) {
	var fit stats.PowerLaw
	for i := 0; i < b.N; i++ {
		gen, err := workload.NewGenerator(fig1Corpus(b).Articles, workload.PaperStructureModel(), benchSeed+3)
		if err != nil {
			b.Fatal(err)
		}
		counts := map[string]float64{}
		for j := 0; j < benchQueries; j++ {
			q := gen.Next()
			if q.Structure == workload.AuthorOnly {
				counts[q.Target.Author()]++
			}
		}
		freqs := make([]float64, 0, len(counts))
		for _, c := range counts {
			freqs = append(freqs, c)
		}
		ranked := stats.RankDescending(freqs)
		ranks := make([]float64, len(ranked))
		for j := range ranked {
			ranks[j] = float64(j + 1)
		}
		fit, err = stats.FitPowerLaw(ranks, ranked)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.Alpha, "alpha")
	b.ReportMetric(fit.R2, "r2")
}

// BenchmarkFig10CCDF regenerates Fig. 10: the CCDF of the article
// popularity ranking at reference ranks.
func BenchmarkFig10CCDF(b *testing.B) {
	var at1, at100, atN float64
	for i := 0; i < b.N; i++ {
		gen, err := workload.NewGenerator(fig1Corpus(b).Articles, workload.PaperStructureModel(), benchSeed+4)
		if err != nil {
			b.Fatal(err)
		}
		counts := make([]int, benchArticles)
		for j := 0; j < benchQueries; j++ {
			counts[gen.Next().Rank]++
		}
		ccdf := stats.CCDF(counts)
		at1, at100, atN = ccdf[0], ccdf[99], ccdf[len(ccdf)-1]
	}
	b.ReportMetric(at1, "ccdf@1")
	b.ReportMetric(at100, "ccdf@100")
	b.ReportMetric(atN, "ccdf@N")
}

// BenchmarkTabStorage regenerates the §V-B storage comparison: index bytes
// relative to the simple scheme, and overhead vs the stored files.
func BenchmarkTabStorage(b *testing.B) {
	var rows []sim.SchemeStorage
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.StorageReport(fig1Corpus(b), benchNodes, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.RelativeToSimple, row.Scheme+"-vs-simple")
	}
	b.ReportMetric(100*rows[len(rows)-1].OverheadVsData, "worst-%ofdata")
}

// BenchmarkFig11Interactions regenerates Fig. 11: mean user-system
// interactions per query for every scheme × cache policy.
func BenchmarkFig11Interactions(b *testing.B) {
	for _, scheme := range index.Schemes() {
		for _, spec := range gridPolicies {
			if spec.pol == cache.Multi {
				continue // Fig. 11 omits multi-cache (same as single)
			}
			b.Run(scheme.Name()+"/"+spec.label, func(b *testing.B) {
				var m *sim.Metrics
				for i := 0; i < b.N; i++ {
					m = benchRun(b, scheme, spec.pol, spec.lru)
				}
				b.ReportMetric(m.InteractionsPerQuery, "interactions/query")
			})
		}
	}
}

// BenchmarkFig12Traffic regenerates Fig. 12: normal and cache traffic per
// query (bytes).
func BenchmarkFig12Traffic(b *testing.B) {
	for _, scheme := range index.Schemes() {
		for _, spec := range gridPolicies {
			b.Run(scheme.Name()+"/"+spec.label, func(b *testing.B) {
				var m *sim.Metrics
				for i := 0; i < b.N; i++ {
					m = benchRun(b, scheme, spec.pol, spec.lru)
				}
				b.ReportMetric(m.NormalTrafficPerQuery, "normalB/query")
				b.ReportMetric(m.CacheTrafficPerQuery, "cacheB/query")
			})
		}
	}
}

// BenchmarkFig13HitRatio regenerates Fig. 13: the distributed cache hit
// ratio (and the first-node hit share of §V-e).
func BenchmarkFig13HitRatio(b *testing.B) {
	for _, scheme := range index.Schemes() {
		for _, spec := range gridPolicies[1:] { // caching policies only
			b.Run(scheme.Name()+"/"+spec.label, func(b *testing.B) {
				var m *sim.Metrics
				for i := 0; i < b.N; i++ {
					m = benchRun(b, scheme, spec.pol, spec.lru)
				}
				b.ReportMetric(100*m.HitRatio, "%hit")
				b.ReportMetric(100*m.FirstNodeHitShare, "%first-node")
			})
		}
	}
}

// BenchmarkFig14CacheStorage regenerates Fig. 14: cached keys per node,
// the per-node maximum, and cache occupancy.
func BenchmarkFig14CacheStorage(b *testing.B) {
	for _, scheme := range index.Schemes() {
		for _, spec := range gridPolicies[1:] {
			b.Run(scheme.Name()+"/"+spec.label, func(b *testing.B) {
				var m *sim.Metrics
				for i := 0; i < b.N; i++ {
					m = benchRun(b, scheme, spec.pol, spec.lru)
				}
				b.ReportMetric(m.Cache.MeanKeys, "cachedkeys/node")
				b.ReportMetric(float64(m.Cache.MaxKeys), "max-cachedkeys")
				b.ReportMetric(m.RegularKeysPerNode, "regularkeys/node")
				b.ReportMetric(100*m.Cache.EmptyFraction, "%empty-caches")
			})
		}
	}
}

// BenchmarkFig15HotSpots regenerates Fig. 15: the share of queries
// processed by the busiest nodes (simple scheme).
func BenchmarkFig15HotSpots(b *testing.B) {
	for _, spec := range []struct {
		label string
		pol   cache.Policy
		lru   int
	}{
		{"no-cache", cache.None, 0},
		{"lru-30", cache.LRU, 30},
		{"single-cache", cache.Single, 0},
	} {
		b.Run(spec.label, func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = benchRun(b, index.Simple, spec.pol, spec.lru)
			}
			b.ReportMetric(m.NodeLoadPercent[0], "%busiest")
			b.ReportMetric(m.NodeLoadPercent[9], "%rank10")
			b.ReportMetric(m.NodeLoadPercent[99], "%rank100")
		})
	}
}

// BenchmarkTab1NonIndexed regenerates Table I: the number of queries to
// non-indexed data per scheme and cache policy.
func BenchmarkTab1NonIndexed(b *testing.B) {
	for _, scheme := range index.Schemes() {
		for _, spec := range []struct {
			label string
			pol   cache.Policy
			lru   int
		}{
			{"no-cache", cache.None, 0},
			{"lru-30", cache.LRU, 30},
			{"single-cache", cache.Single, 0},
		} {
			b.Run(scheme.Name()+"/"+spec.label, func(b *testing.B) {
				var m *sim.Metrics
				for i := 0; i < b.N; i++ {
					m = benchRun(b, scheme, spec.pol, spec.lru)
				}
				b.ReportMetric(float64(m.NonIndexedQueries), "errors")
			})
		}
	}
}

// --- substrate and core micro-benchmarks (allocation profiles) ---

// BenchmarkDHTLookup measures raw Chord routing: FindOwner on the live
// ring, each lookup from a random member.
func BenchmarkDHTLookup(b *testing.B) {
	ring, err := wire.StartMemRing(benchNodes, 0, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	defer ring.Close()
	keys := make([]keyspace.Key, 256)
	for i := range keys {
		keys[i] = keyspace.NewKey(fmt.Sprintf("key-%d", i))
	}
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route, err := ring.FindOwner(keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		hops += route.Hops
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/lookup")
}

// BenchmarkXPathParse measures query parsing.
func BenchmarkXPathParse(b *testing.B) {
	const q = "/article[author[first=John][last=Smith]][conf=SIGCOMM][title=TCP][year=1989]"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCovers measures the covering-relation check.
func BenchmarkCovers(b *testing.B) {
	gen := xpath.MustParse("/article[author[last=Smith]]")
	spe := xpath.MustParse("/article[author[first=John][last=Smith]][conf=SIGCOMM][size=315635][title=TCP][year=1989]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !gen.Covers(spe) {
			b.Fatal("covering broken")
		}
	}
}

// benchRing publishes the first 500 articles of the benchmark corpus on
// a 64-node live ring driven through overlay.PerKey, so every lookup is
// one message, and returns the articles and a searcher.
func benchRing(b *testing.B) ([]descriptor.Article, *index.Searcher) {
	ring, err := wire.StartMemRing(64, 0, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ring.Close)
	svc := index.New(overlay.PerKey(ring), cache.None, 0)
	arts := fig1Corpus(b).Articles[:500]
	for i, a := range arts {
		if err := svc.PublishArticle(fmt.Sprintf("f%d", i), a, index.Simple); err != nil {
			b.Fatal(err)
		}
	}
	return arts, index.NewSearcher(svc)
}

// BenchmarkDirectedFind measures one end-to-end indexed lookup.
func BenchmarkDirectedFind(b *testing.B) {
	arts, searcher := benchRing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := arts[i%len(arts)]
		trace, err := searcher.Find(dataset.TitleQuery(a.Title), dataset.MSD(a))
		if err != nil || !trace.Found {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchAll measures one automated search — the level-by-level
// walk of the index DAG from an author query — one lookup at a time
// (the batched frontier is BenchmarkSearchAllParallel in internal/wire).
func BenchmarkSearchAll(b *testing.B) {
	arts, searcher := benchRing(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := arts[i%len(arts)]
		results, trace, err := searcher.SearchAll(dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast))
		if err != nil || !trace.Found || len(results) == 0 {
			b.Fatalf("search: %d results, %v", len(results), err)
		}
	}
}
