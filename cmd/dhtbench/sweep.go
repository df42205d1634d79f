package main

// The sweep subcommand: routing hop counts and key-load balance against
// network size on one substrate, then a churn test on the live Chord
// ring — the substrate's own promises, measured apart from the index.

import (
	"fmt"
	"io"
	"math"
	"slices"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/pastry"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
)

// The sweep's fixed shape: no caller ever varied these.
const (
	sweepLookups = 2000 // lookups per network size
	sweepChurn   = 0.2  // fraction of nodes the churn test fails
)

// sweepNet is one substrate at one network size: its overlay, a routed
// lookup returning its hop count, and how to release it.
type sweepNet struct {
	ov     overlay.Network
	lookup func(i int, key keyspace.Key) (hops int, err error)
	stop   func()
}

// sweeps maps -substrate to a constructor of n-node sweepNets. Chord's
// hops are Chord route lengths of FindOwner, each from a random member:
// the answering node's successor owns the key, so a route counts one
// hop fewer than the simulation counts for the same path.
var sweeps = map[string]func(n int, seed int64, reg *telemetry.Registry) (sweepNet, error){
	"chord": func(n int, seed int64, reg *telemetry.Registry) (sweepNet, error) {
		ring, err := wire.StartMemRing(n, 0, seed)
		if err != nil {
			return sweepNet{}, err
		}
		ring.Instrument(reg)
		return sweepNet{ring, func(_ int, key keyspace.Key) (int, error) {
			route, err := ring.FindOwner(key)
			return route.Hops, err
		}, ring.Close}, nil
	},
	"pastry": func(n int, seed int64, _ *telemetry.Registry) (sweepNet, error) {
		net := pastry.NewNetwork()
		nodes, err := net.Populate(n)
		return sweepNet{pastry.AsOverlay(net, seed), func(i int, key keyspace.Key) (int, error) {
			res, err := net.Lookup(nodes[i%len(nodes)], key)
			return res.Hops, err
		}, func() {}}, err
	},
}

func runSweep(args []string, out io.Writer) error {
	fs := newFlagSet("sweep", "routing hops and key load at 16, 64, ... nodes up to -max-nodes, then a churn test on -max-nodes/4", out)
	g := newGate(fs)
	substrate := fs.String("substrate", "chord", "substrate to sweep: chord|pastry")
	maxNodes := fs.Int("max-nodes", 1024, "largest network size in the sweep")
	if err := parse(fs, args); err != nil {
		return err
	}
	build, ok := sweeps[*substrate]
	if !ok {
		return usagef(fs, "unknown substrate %q", *substrate)
	}
	fmt.Fprintf(out, "substrate: %s\n", *substrate)
	fmt.Fprintf(out, "%-8s %10s %8s %10s %10s %12s\n",
		"nodes", "mean hops", "max", "log2(N)", "mean keys", "max/mean keys")
	var err error
	for n := 16; n <= *maxNodes && err == nil; n *= 4 {
		err = sweep(out, build, n, g.seed, g.reg)
	}
	if err == nil {
		err = churnTest(out, *maxNodes/4, g.seed, g.reg)
	}
	return g.finish(out, nil, nil, err)
}

// sweep measures one network size: key load after 10 puts per node,
// then the hops of sweepLookups routed lookups.
func sweep(out io.Writer, build func(int, int64, *telemetry.Registry) (sweepNet, error), n int, seed int64, reg *telemetry.Registry) error {
	net, err := build(n, seed, reg)
	if err != nil {
		return err
	}
	defer net.stop()
	for i := 0; i < 10*n; i++ {
		if _, err := net.ov.Put(keyspace.NewKey(fmt.Sprintf("key-%d", i)), overlay.Entry{Kind: "data", Value: "x"}); err != nil {
			return err
		}
	}
	keys, maxKeys := 0, 0
	for _, addr := range net.ov.Addrs() {
		st, err := net.ov.StatsOf(addr)
		if err != nil {
			return err
		}
		keys += st.Keys
		maxKeys = max(maxKeys, st.Keys)
	}
	hops, maxHops := 0, 0
	for i := 0; i < sweepLookups; i++ {
		h, err := net.lookup(i, keyspace.NewKey(fmt.Sprintf("probe-%d", i)))
		if err != nil {
			return err
		}
		hops += h
		maxHops = max(maxHops, h)
	}
	mean := float64(keys) / float64(n)
	fmt.Fprintf(out, "%-8d %10.2f %8d %10.2f %10.1f %12.2f\n",
		n, float64(hops)/sweepLookups, maxHops, math.Log2(float64(n)), mean, float64(maxKeys)/mean)
	return nil
}

// churnTest crashes a fraction of a replicated live ring, lets
// maintenance settle the survivors, and reports surviving data.
func churnTest(out io.Writer, n int, seed int64, reg *telemetry.Registry) error {
	fmt.Fprintf(out, "\nchurn test: %d nodes, replication 2, failing %.0f%%\n", n, 100*sweepChurn)
	ring, err := wire.StartMemRing(n, 2, seed)
	if err != nil {
		return err
	}
	defer ring.Close()
	ring.Instrument(reg)
	const keys = 2000
	for i := 0; i < keys; i++ {
		if _, err := ring.Put(keyspace.NewKey(fmt.Sprintf("doc-%d", i)),
			overlay.Entry{Kind: "data", Value: fmt.Sprintf("v%d", i)}); err != nil {
			return err
		}
	}
	nodes := ring.Addrs()
	slices.Sort(nodes) // boot order: ring positions are hashes
	for i := 0; i < int(sweepChurn*float64(n)); i++ {
		if err := ring.Crash(nodes[i*3%n]); err != nil {
			return err
		}
	}
	if err := ring.Settle(); err != nil {
		return err
	}
	survived := 0
	for i := 0; i < keys; i++ {
		entries, _, err := ring.Get(keyspace.NewKey(fmt.Sprintf("doc-%d", i)))
		if err != nil {
			return err
		}
		if len(entries) > 0 {
			survived++
		}
	}
	fmt.Fprintf(out, "data survived: %d/%d (%.1f%%), failover reads: %d\n",
		survived, keys, 100*float64(survived)/keys, ring.Metrics().FailoverReads)
	return nil
}
