package dhtindex

// Ablation benchmarks for the design choices DESIGN.md calls out, beyond
// the paper's own figures:
//
//   - substrate independence (§V-E): Chord vs Pastry under an identical
//     workload — index metrics identical, routing cost differs;
//   - hierarchy depth (§IV-B): deeper index hierarchies trade lookup
//     interactions for storage and result-set size;
//   - popularity promotion (§IV-C): deep short-circuit links for the most
//     popular articles;
//   - network size (§V-E): node count does not affect indexing
//     effectiveness, only substrate hop counts.

import (
	"fmt"
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/index"
	"dhtindex/internal/sim"
)

// ablRun executes a one-off simulation at bench scale (not memoized: each
// ablation varies a dimension the shared grid does not).
func ablRun(b *testing.B, mutate func(*sim.Options)) *sim.Metrics {
	b.Helper()
	opts := sim.Options{
		Nodes:    benchNodes,
		Articles: benchArticles,
		Queries:  benchQueries,
		Scheme:   index.Simple,
		Policy:   cache.None,
		Seed:     benchSeed,
		Corpus:   fig1Corpus(b),
	}
	if mutate != nil {
		mutate(&opts)
	}
	m, err := sim.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	if m.Failures != 0 {
		b.Fatalf("%d failures", m.Failures)
	}
	return m
}

// BenchmarkAblSubstrate runs the same indexed workload over Chord and
// Pastry: interactions per query must match to the third decimal while
// substrate hops differ.
func BenchmarkAblSubstrate(b *testing.B) {
	for _, substrate := range []string{"chord", "pastry"} {
		b.Run(substrate, func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = ablRun(b, func(o *sim.Options) { o.Substrate = substrate })
			}
			b.ReportMetric(m.InteractionsPerQuery, "interactions/query")
			b.ReportMetric(m.DHTHopsPerInteraction, "hops/interaction")
			b.ReportMetric(m.NormalTrafficPerQuery, "normalB/query")
		})
	}
}

// BenchmarkAblHierarchyDepth sweeps index hierarchy depth: flat (chains of
// 1 hop), simple (2), complex (3 on the author path), fig4 (3 plus a
// last-name level) and simple+initials (4 on the author path). Depth
// trades interactions against index storage and result-set size (§IV-B).
func BenchmarkAblHierarchyDepth(b *testing.B) {
	schemes := []index.Scheme{
		index.Flat,
		index.Simple,
		index.Complex,
		index.Fig4,
		index.WithInitials(index.Simple),
	}
	for _, scheme := range schemes {
		b.Run(scheme.Name(), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = ablRun(b, func(o *sim.Options) { o.Scheme = scheme })
			}
			b.ReportMetric(m.InteractionsPerQuery, "interactions/query")
			b.ReportMetric(float64(m.Storage.IndexBytes)/1024, "indexKB")
			b.ReportMetric(m.NormalTrafficPerQuery, "normalB/query")
		})
	}
}

// BenchmarkAblPromotion short-circuits the top-N most popular articles
// and measures the interaction savings on the whole workload.
func BenchmarkAblPromotion(b *testing.B) {
	for _, top := range []int{0, 10, 100, 1000} {
		b.Run(fmt.Sprintf("top-%d", top), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = ablRun(b, func(o *sim.Options) {
					o.Scheme = index.Complex // deepest hierarchy: most to gain
					o.PromoteTop = top
				})
			}
			b.ReportMetric(m.InteractionsPerQuery, "interactions/query")
			b.ReportMetric(float64(m.Storage.IndexEntries), "indexentries")
		})
	}
}

// BenchmarkAblNodeCount sweeps the network size: indexing effectiveness
// must stay flat. The live Chord client reaches each owner in one
// message, so hops/interaction reads 0 at every size; the ring's routing
// depth, ≈ ½·log₂N, is what dhtbench sweep measures.
func BenchmarkAblNodeCount(b *testing.B) {
	for _, nodes := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("%d-nodes", nodes), func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = ablRun(b, func(o *sim.Options) { o.Nodes = nodes })
			}
			b.ReportMetric(m.InteractionsPerQuery, "interactions/query")
			b.ReportMetric(m.DHTHopsPerInteraction, "hops/interaction")
		})
	}
}

// BenchmarkAblAdaptiveIndexing compares the cache-based error recovery
// against §IV-C's permanent on-demand index entries.
func BenchmarkAblAdaptiveIndexing(b *testing.B) {
	cases := []struct {
		name     string
		adaptive bool
		policy   cache.Policy
	}{
		{"plain", false, cache.None},
		{"adaptive-indexing", true, cache.None},
		{"single-cache", false, cache.Single},
		{"both", true, cache.Single},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var m *sim.Metrics
			for i := 0; i < b.N; i++ {
				m = ablRun(b, func(o *sim.Options) {
					o.AdaptiveIndexing = tc.adaptive
					o.Policy = tc.policy
				})
			}
			b.ReportMetric(float64(m.NonIndexedQueries), "errors")
			b.ReportMetric(m.InteractionsPerQuery, "interactions/query")
		})
	}
}

// BenchmarkAblAvailability measures query success under mass node
// failures with and without successor replication (§IV-D).
func BenchmarkAblAvailability(b *testing.B) {
	for _, repl := range []int{0, 2} {
		for _, frac := range []float64{0.1, 0.3} {
			b.Run(fmt.Sprintf("repl-%d/fail-%.0f%%", repl, 100*frac), func(b *testing.B) {
				var res sim.AvailabilityResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = sim.Availability(sim.Options{
						Nodes:    benchNodes,
						Articles: benchArticles,
						Queries:  benchQueries / 5,
						Scheme:   index.Simple,
						Seed:     benchSeed,
						Corpus:   fig1Corpus(b),
					}, frac, repl)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(100*res.SuccessRate, "%success")
				b.ReportMetric(res.InteractionsPerQuery, "interactions/query")
			})
		}
	}
}
