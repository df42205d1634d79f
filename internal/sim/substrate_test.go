package sim

import (
	"testing"

	"dhtindex/internal/cache"
	"dhtindex/internal/index"
)

// TestSubstrateIndependence makes §V-E's layering argument executable:
// "our indexing techniques do not depend on a specific lookup and storage
// layer". Interactions, traffic, hit ratio and error counts must be
// IDENTICAL on Chord and Pastry for unbounded cache policies — these
// metrics are functions of the key contents only, not of key placement.
// (Per-node metrics — hot-spots, cache occupancy — legitimately differ
// because placement differs.)
func TestSubstrateIndependence(t *testing.T) {
	corpus := sharedCorpus(t)
	for _, pol := range []cache.Policy{cache.None, cache.Single, cache.Multi} {
		opts := smallOpts(index.Simple, pol, 0)
		opts.Corpus = corpus
		opts.Substrate = "chord"
		chord := run(t, opts)
		opts.Substrate = "pastry"
		pastry := run(t, opts)
		if chord.InteractionsPerQuery != pastry.InteractionsPerQuery {
			t.Errorf("%v: interactions differ: chord %v, pastry %v",
				pol, chord.InteractionsPerQuery, pastry.InteractionsPerQuery)
		}
		if chord.NormalTrafficPerQuery != pastry.NormalTrafficPerQuery {
			t.Errorf("%v: normal traffic differs: chord %v, pastry %v",
				pol, chord.NormalTrafficPerQuery, pastry.NormalTrafficPerQuery)
		}
		if chord.HitRatio != pastry.HitRatio {
			t.Errorf("%v: hit ratio differs: chord %v, pastry %v",
				pol, chord.HitRatio, pastry.HitRatio)
		}
		if chord.NonIndexedQueries != pastry.NonIndexedQueries {
			t.Errorf("%v: errors differ: chord %d, pastry %d",
				pol, chord.NonIndexedQueries, pastry.NonIndexedQueries)
		}
		if chord.Storage.IndexEntries != pastry.Storage.IndexEntries {
			t.Errorf("%v: index entries differ: chord %d, pastry %d",
				pol, chord.Storage.IndexEntries, pastry.Storage.IndexEntries)
		}
	}
}

// TestSubstratePlacementDiffers confirms the two substrates are not
// secretly the same implementation: per-node load rankings genuinely
// differ even though aggregate metrics match.
func TestSubstratePlacementDiffers(t *testing.T) {
	corpus := sharedCorpus(t)
	opts := smallOpts(index.Simple, cache.None, 0)
	opts.Corpus = corpus
	opts.Substrate = "chord"
	chord := run(t, opts)
	opts.Substrate = "pastry"
	pastry := run(t, opts)
	same := true
	for i := range chord.NodeLoadPercent {
		if chord.NodeLoadPercent[i] != pastry.NodeLoadPercent[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("per-node load distributions identical across substrates — placement rules should differ")
	}
}

// TestNodeCountIndependence reproduces §V-E's scoping argument:
// "Simulating P2P networks of different sizes is of no use ... the number
// of nodes does not impact the effectiveness of our indexing techniques."
// Interactions, traffic, hit ratio and errors must be identical across
// network sizes; only placement-derived metrics change.
func TestNodeCountIndependence(t *testing.T) {
	corpus := sharedCorpus(t)
	var baseline *Metrics
	for _, nodes := range []int{25, 50, 100} {
		opts := smallOpts(index.Simple, cache.Single, 0)
		opts.Corpus = corpus
		opts.Nodes = nodes
		m := run(t, opts)
		if baseline == nil {
			baseline = m
			continue
		}
		if m.InteractionsPerQuery != baseline.InteractionsPerQuery {
			t.Errorf("%d nodes: interactions %v != %v", nodes,
				m.InteractionsPerQuery, baseline.InteractionsPerQuery)
		}
		if m.HitRatio != baseline.HitRatio {
			t.Errorf("%d nodes: hit ratio %v != %v", nodes, m.HitRatio, baseline.HitRatio)
		}
		if m.NonIndexedQueries != baseline.NonIndexedQueries {
			t.Errorf("%d nodes: errors %d != %d", nodes,
				m.NonIndexedQueries, baseline.NonIndexedQueries)
		}
		if m.NormalTrafficPerQuery != baseline.NormalTrafficPerQuery {
			t.Errorf("%d nodes: traffic %v != %v", nodes,
				m.NormalTrafficPerQuery, baseline.NormalTrafficPerQuery)
		}
	}
}

func TestUnknownSubstrate(t *testing.T) {
	for _, substrate := range []string{"can", "kademlia"} {
		opts := smallOpts(index.Simple, cache.None, 0)
		opts.Substrate = substrate
		if _, err := Run(opts); err == nil {
			t.Fatalf("unknown substrate %q accepted", substrate)
		}
	}
}

// TestAvailabilityReplicationHelps reproduces §IV-D's claim: with
// successor replication, the indexed database survives mass node failures
// far better than without.
func TestAvailabilityReplicationHelps(t *testing.T) {
	corpus := sharedCorpus(t)
	base := smallOpts(index.Simple, cache.None, 0)
	base.Corpus = corpus
	base.Queries = 1500

	none, err := Availability(base, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Availability(base, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if none.SuccessRate > 0.9 {
		t.Fatalf("20%% failures without replication should hurt: %+v", none)
	}
	if repl.SuccessRate < 0.99 {
		t.Fatalf("replication 2 should preserve almost all queries: %+v", repl)
	}
	// Physical copies die with their nodes regardless of replication
	// (≈ the live-node fraction); what replication buys is LOGICAL
	// survival, visible in the success rate.
	if repl.EntriesSurviving < 0.7 || none.EntriesSurviving < 0.7 {
		t.Fatalf("copy survival implausible: %+v / %+v", repl, none)
	}
	if repl.SuccessRate <= none.SuccessRate {
		t.Fatalf("replication did not improve success: %v vs %v",
			repl.SuccessRate, none.SuccessRate)
	}
}

func TestAvailabilityBadFraction(t *testing.T) {
	if _, err := Availability(smallOpts(index.Simple, cache.None, 0), 1.5, 0); err == nil {
		t.Fatal("bad fraction accepted")
	}
}
