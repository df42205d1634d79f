package main

// The sweep subcommand: routing hop counts and key-load balance against
// network size on one simulated substrate, then a churn test on the
// simulated Chord ring — the substrate's own promises, measured apart
// from the index.

import (
	"fmt"
	"io"
	"math"

	"dhtindex/internal/dht"
	"dhtindex/internal/kademlia"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/pastry"
	"dhtindex/internal/telemetry"
)

// The sweep's fixed shape: no caller ever varied these.
const (
	sweepLookups = 2000 // lookups per network size
	sweepChurn   = 0.2  // fraction of nodes the churn test fails
)

// sweeps maps -substrate to the sweep of one network size.
var sweeps = map[string]func(out io.Writer, n int, seed int64, reg *telemetry.Registry) error{
	"chord":    chordSweep,
	"pastry":   pastrySweep,
	"kademlia": kademliaSweep,
}

func runSweep(args []string, out io.Writer) error {
	fs := newFlagSet("sweep", "routing hops and key load at 16, 64, ... nodes up to -max-nodes, then a churn test on -max-nodes/4", out)
	g := newGate(fs)
	substrate := fs.String("substrate", "chord", "substrate to sweep: chord|pastry|kademlia")
	maxNodes := fs.Int("max-nodes", 1024, "largest network size in the sweep")
	if err := parse(fs, args); err != nil {
		return err
	}
	sweep, ok := sweeps[*substrate]
	if !ok {
		return usagef(fs, "unknown substrate %q", *substrate)
	}
	fmt.Fprintf(out, "substrate: %s\n", *substrate)
	fmt.Fprintf(out, "%-8s %10s %8s %10s %10s %12s\n",
		"nodes", "mean hops", "max", "log2(N)", "mean keys", "max/mean keys")
	var err error
	for n := 16; n <= *maxNodes && err == nil; n *= 4 {
		err = sweep(out, n, g.seed, g.reg)
	}
	if err == nil {
		err = churnTest(out, *maxNodes/4, g.seed, g.reg)
	}
	return g.finish(out, nil, nil, err)
}

func chordSweep(out io.Writer, n int, seed int64, reg *telemetry.Registry) error {
	net := dht.NewNetwork(seed)
	if _, err := net.Populate(n); err != nil {
		return err
	}
	net.Instrument(reg)
	for i := 0; i < 10*n; i++ {
		if _, err := net.Put(nil, keyspace.NewKey(fmt.Sprintf("key-%d", i)),
			dht.Entry{Kind: "data", Value: "x"}); err != nil {
			return err
		}
	}
	net.ResetMetrics()
	nodes := net.Nodes()
	for i := 0; i < sweepLookups; i++ {
		start := nodes[i%len(nodes)]
		if _, err := net.Lookup(start, keyspace.NewKey(fmt.Sprintf("probe-%d", i))); err != nil {
			return err
		}
	}
	m := net.Metrics()
	load := net.KeyLoad()
	fmt.Fprintf(out, "%-8d %10.2f %8d %10.2f %10.1f %12.2f\n",
		n, float64(m.Hops)/float64(m.Lookups), m.MaxHops, math.Log2(float64(n)),
		load.MeanKeys, float64(load.MaxKeys)/load.MeanKeys)
	return nil
}

func pastrySweep(out io.Writer, n int, seed int64, _ *telemetry.Registry) error {
	net := pastry.NewNetwork()
	nodes, err := net.Populate(n)
	if err != nil {
		return err
	}
	ov := pastry.AsOverlay(net, seed)
	for i := 0; i < 10*n; i++ {
		if _, err := ov.Put(keyspace.NewKey(fmt.Sprintf("key-%d", i)),
			overlay.Entry{Kind: "data", Value: "x"}); err != nil {
			return err
		}
	}
	keyTotal, keyMax := 0, 0
	for _, addr := range ov.Addrs() {
		st, err := ov.StatsOf(addr)
		if err != nil {
			return err
		}
		keyTotal += st.Keys
		if st.Keys > keyMax {
			keyMax = st.Keys
		}
	}
	before := net.Metrics()
	for i := 0; i < sweepLookups; i++ {
		start := nodes[i%len(nodes)]
		if _, err := net.Lookup(start, keyspace.NewKey(fmt.Sprintf("probe-%d", i))); err != nil {
			return err
		}
	}
	m := net.Metrics()
	mean := float64(keyTotal) / float64(n)
	fmt.Fprintf(out, "%-8d %10.2f %8d %10.2f %10.1f %12.2f\n",
		n, float64(m.Hops-before.Hops)/float64(m.Lookups-before.Lookups),
		m.MaxHops, math.Log2(float64(n)), mean, float64(keyMax)/mean)
	return nil
}

// kademliaSweep mirrors chordSweep on the iterative XOR substrate: hop
// depth here is the α-parallel lookup's round count (how many probe
// waves before the K closest converged), which plays the role the
// forwarding hop count plays on the recursive rings.
func kademliaSweep(out io.Writer, n int, seed int64, reg *telemetry.Registry) error {
	net := kademlia.NewNetwork(kademlia.Config{Replicas: 1, Seed: seed})
	if _, err := net.Populate(n); err != nil {
		return err
	}
	net.Instrument(reg)
	ov := kademlia.AsOverlay(net, seed)
	for i := 0; i < 10*n; i++ {
		if _, err := ov.Put(keyspace.NewKey(fmt.Sprintf("key-%d", i)),
			overlay.Entry{Kind: "data", Value: "x"}); err != nil {
			return err
		}
	}
	keyTotal, keyMax := 0, 0
	for _, addr := range ov.Addrs() {
		st, err := ov.StatsOf(addr)
		if err != nil {
			return err
		}
		keyTotal += st.Keys
		if st.Keys > keyMax {
			keyMax = st.Keys
		}
	}
	net.ResetMetrics()
	nodes := net.Nodes()
	for i := 0; i < sweepLookups; i++ {
		start := nodes[i%len(nodes)].Addr
		if _, err := net.Lookup(start, keyspace.NewKey(fmt.Sprintf("probe-%d", i))); err != nil {
			return err
		}
	}
	m := net.Metrics()
	mean := float64(keyTotal) / float64(n)
	fmt.Fprintf(out, "%-8d %10.2f %8d %10.2f %10.1f %12.2f\n",
		n, float64(m.Rounds)/float64(m.Lookups), m.MaxRounds, math.Log2(float64(n)),
		mean, float64(keyMax)/mean)
	return nil
}

// churnTest fails a fraction of a replicated network and reports surviving
// data and post-stabilization routing health.
func churnTest(out io.Writer, n int, seed int64, reg *telemetry.Registry) error {
	fmt.Fprintf(out, "\nchurn test: %d nodes, replication 2, failing %.0f%%\n", n, 100*sweepChurn)
	net := dht.NewNetwork(seed)
	net.ReplicationFactor = 2
	nodes, err := net.Populate(n)
	if err != nil {
		return err
	}
	net.Instrument(reg)
	const keys = 2000
	for i := 0; i < keys; i++ {
		if _, err := net.Put(nil, keyspace.NewKey(fmt.Sprintf("doc-%d", i)),
			dht.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			return err
		}
	}
	fail := int(sweepChurn * float64(n))
	for i := 0; i < fail; i++ {
		if err := net.FailNode(nodes[i*3%n].Addr); err != nil {
			// Node may already be gone when the stride wraps; skip.
			continue
		}
	}
	net.Stabilize()
	if err := net.VerifyRing(); err != nil {
		return fmt.Errorf("ring not converged: %w", err)
	}
	survived := 0
	for i := 0; i < keys; i++ {
		entries, _, err := net.Get(nil, keyspace.NewKey(fmt.Sprintf("doc-%d", i)))
		if err != nil {
			return err
		}
		if len(entries) > 0 {
			survived++
		}
	}
	m := net.Metrics()
	fmt.Fprintf(out, "data survived: %d/%d (%.1f%%), failover reads: %d\n",
		survived, keys, 100*float64(survived)/keys, m.FailoverReads)
	return nil
}
