package soak

import (
	"fmt"
	"math/rand"
	"time"

	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/pastry"
	"dhtindex/internal/stats"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
)

// SubstrateConfig parameterizes the in-process cross-substrate churn
// soak: the paper's indexed workload over the live Chord ring (driven by
// hand on an in-memory transport) or the simulated Pastry substrate,
// with membership churn between query batches. It is the
// apples-to-apples companion of the wire soak — same corpus, same
// query generator, same acked-write-loss bar — used to produce the
// cross-substrate matrix `dhtbench matrix` prints.
type SubstrateConfig struct {
	// Substrate selects the overlay: "chord" or "pastry".
	Substrate string
	// Nodes is the starting overlay size (default 48).
	Nodes int
	// Articles is the corpus size published before the churn starts
	// (default 24).
	Articles int
	// Ops is the number of soak operations (default 120). Each op issues
	// substrateQueries indexed lookups; every churnEvery ops a membership
	// event fires first.
	Ops int
	// Seed drives the corpus, workload and churn victim selection.
	Seed int64
	// Telemetry, when non-nil, receives the substrate and index metric
	// families.
	Telemetry *telemetry.Registry
}

func (c SubstrateConfig) withDefaults() SubstrateConfig {
	if c.Substrate == "" {
		c.Substrate = "chord"
	}
	if c.Nodes == 0 {
		c.Nodes = 48
	}
	if c.Articles == 0 {
		c.Articles = 24
	}
	if c.Ops == 0 {
		c.Ops = 120
	}
	return c
}

const (
	// churnEvery fires a membership event every this many ops: one join,
	// then two graceful leaves, in rotation.
	churnEvery = 10
	// substrateQueries is the number of indexed lookups per op.
	substrateQueries = 2
)

// SubstrateReport is the outcome of one cross-substrate churn soak —
// one row of the substrate matrix.
type SubstrateReport struct {
	// Substrate names the overlay the soak ran on.
	Substrate string `json:"substrate"`
	// Nodes is the final overlay size, Ops the soak length.
	Nodes int `json:"nodes"`
	Ops   int `json:"ops"`
	// Joins and Leaves count the churn events applied.
	Joins  int `json:"joins"`
	Leaves int `json:"leaves"`
	// Queries/Found/CacheHits/QueryFailures account the storm-time
	// indexed lookups (failures are tolerated mid-churn and counted).
	Queries       int `json:"queries"`
	Found         int `json:"found"`
	CacheHits     int `json:"cache_hits"`
	QueryFailures int `json:"query_failures"`
	// AckedArticles is the number of articles acked at publish time;
	// LostArticles the ones unreachable after the final maintenance pass.
	// The soak's bar is LostArticles == 0.
	AckedArticles int `json:"acked_articles"`
	LostArticles  int `json:"lost_articles"`
	// MeanLookupHops is the substrate's routed-hop average across the
	// run. The live Chord ring's client addresses each key's owner in one
	// message, so its row is the Chord route length of FindOwner from a
	// random member after the final maintenance pass (routedHops).
	MeanLookupHops float64 `json:"mean_lookup_hops"`
	// P50/P99QueryMicros summarize end-to-end indexed query latency.
	P50QueryMicros float64 `json:"p50_query_micros"`
	P99QueryMicros float64 `json:"p99_query_micros"`
	// MaintenanceItems counts entries moved by churn repair: keys the
	// live Chord ring's repair rounds pulled, pushed and forwarded, and
	// keys rehomed on Pastry.
	MaintenanceItems int `json:"maintenance_items"`
	// Violations lists the soak's broken promises, one line each; empty
	// is a pass.
	Violations []string `json:"violations,omitempty"`
}

// Passed reports whether every gate held.
func (r SubstrateReport) Passed() bool { return len(r.Violations) == 0 }

// substrateHarness is the per-substrate churn surface: the overlay
// contract plus the membership and maintenance hooks the soak drives.
type substrateHarness struct {
	ov    overlay.Network
	join  func(addr string) error
	leave func(addr string) error
	// maintain runs the substrate's churn repair (Chord: maintenance
	// rounds until the ring settles; Pastry repairs eagerly on
	// membership change).
	maintain func() error
	// maintenance reports the items repair has moved so far.
	maintenance func() int
	// meanHops reports the routed-hop average so far.
	meanHops func() float64
	// stop releases the substrate's nodes.
	stop func()
}

// buildHarness constructs the selected substrate with cfg.Nodes live
// nodes and its churn hooks.
func buildHarness(cfg SubstrateConfig) (*substrateHarness, error) {
	switch cfg.Substrate {
	case "chord":
		ring, err := wire.StartMemRing(cfg.Nodes, 0, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		ring.Instrument(cfg.Telemetry)
		return &substrateHarness{
			ov:       overlay.PerKey(ring),
			join:     ring.Join,
			leave:    ring.Leave,
			maintain: ring.Settle,
			maintenance: func() int {
				s := ring.RepairStats()
				return int(s.Pulls + s.Pushes + s.Forwards)
			},
			meanHops: func() float64 { return routedHops(ring) },
			stop:     ring.Close,
		}, nil
	case "pastry":
		net := pastry.NewNetwork()
		if _, err := net.Populate(cfg.Nodes); err != nil {
			return nil, err
		}
		return &substrateHarness{
			ov:          pastry.AsOverlay(net, cfg.Seed+2),
			join:        func(addr string) error { _, err := net.AddNode(addr); return err },
			leave:       net.RemoveNode,
			maintain:    func() error { return nil },
			maintenance: func() int { return net.Metrics().KeysRehomed },
			meanHops: func() float64 {
				m := net.Metrics()
				return float64(m.Hops) / float64(max(m.Lookups, 1))
			},
			stop: func() {},
		}, nil
	default:
		return nil, fmt.Errorf("soak: unknown substrate %q", cfg.Substrate)
	}
}

// routedHops is the mean Chord route length of FindOwner, each from a
// random member of ring, over 200 keys; a failed lookup counts nothing.
func routedHops(ring *wire.MemRing) float64 {
	hops, routed := 0, 0
	for i := 0; i < 200; i++ {
		if route, err := ring.FindOwner(keyspace.NewKey(fmt.Sprintf("probe-%d", i))); err == nil {
			hops += route.Hops
			routed++
		}
	}
	return float64(hops) / float64(max(routed, 1))
}

// RunSubstrate executes the cross-substrate indexed churn soak. The
// error is non-nil only for harness failures (corpus generation,
// publishing, membership plumbing); storm-time query failures are
// counted and post-storm article loss is a line in Violations.
func RunSubstrate(cfg SubstrateConfig) (SubstrateReport, error) {
	cfg = cfg.withDefaults()
	report := SubstrateReport{Substrate: cfg.Substrate, Ops: cfg.Ops}

	articles, gen, err := corpusAndQueries(cfg.Articles, cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("soak: %w", err)
	}
	h, err := buildHarness(cfg)
	if err != nil {
		return report, err
	}
	defer h.stop()

	svc, err := publishCorpus(h.ov, cfg.Telemetry, "soak/"+cfg.Substrate, "soak", articles)
	if err != nil {
		return report, fmt.Errorf("soak: %w", err)
	}
	report.AckedArticles = len(articles)
	searcher := index.NewSearcher(svc)

	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	var latencies []float64
	joined := 0
	churn := func(op int) error {
		// Rotate one join, then two graceful leaves.
		if (op/churnEvery)%3 == 0 {
			joined++
			addr := fmt.Sprintf("%s-join-%03d", cfg.Substrate, joined)
			if err := h.join(addr); err != nil {
				return fmt.Errorf("soak: join %s: %w", addr, err)
			}
			report.Joins++
		} else {
			addrs := h.ov.Addrs()
			if len(addrs) <= cfg.Nodes/2 {
				return nil // keep the overlay from draining
			}
			victim := addrs[rng.Intn(len(addrs))]
			if err := h.leave(victim); err != nil {
				return fmt.Errorf("soak: leave %s: %w", victim, err)
			}
			report.Leaves++
		}
		if err := h.maintain(); err != nil {
			return fmt.Errorf("soak: maintenance: %w", err)
		}
		return nil
	}

	for op := 0; op < cfg.Ops; op++ {
		if op > 0 && op%churnEvery == 0 {
			if err := churn(op); err != nil {
				return report, err
			}
		}
		for i := 0; i < substrateQueries; i++ {
			wq := gen.Next()
			report.Queries++
			startT := time.Now()
			trace, err := searcher.Find(wq.Query, dataset.MSD(wq.Target))
			latencies = append(latencies, float64(time.Since(startT).Microseconds()))
			if err != nil || !trace.Found {
				report.QueryFailures++
				continue
			}
			report.Found++
			if trace.CacheHit {
				report.CacheHits++
			}
		}
	}

	// Final repair pass, then the acked-write-loss sweep: every article
	// acked at publish time must still resolve.
	if err := h.maintain(); err != nil {
		return report, fmt.Errorf("soak: maintenance: %w", err)
	}
	for _, a := range articles {
		trace, err := searcher.Find(dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast), dataset.MSD(a))
		if err != nil || !trace.Found {
			report.LostArticles++
		}
	}
	if report.LostArticles > 0 {
		report.Violations = append(report.Violations, fmt.Sprintf("%s: %d of %d acked articles lost",
			cfg.Substrate, report.LostArticles, report.AckedArticles))
	}

	report.Nodes = h.ov.Size()
	report.MeanLookupHops = h.meanHops()
	report.MaintenanceItems = h.maintenance()
	sum := stats.Summarize(latencies)
	report.P50QueryMicros = sum.P50
	report.P99QueryMicros = sum.P99
	return report, nil
}
