package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
)

// ringConfig is what differs between the workloads' rings. Everything
// else is the deployed configuration: per-node retry policy with a retry
// budget and the default breaker, default admission control (64 inflight,
// 128 queued, 250 ms), replication factor 1, the maintenance cadence
// below, and on TCP the pooled binary codec.
type ringConfig struct {
	nodes int
	// tcp selects loopback TCP with one transport instance per node and
	// one for the client, as separate processes would have; otherwise all
	// share one MemTransport.
	tcp bool
	// dataDir, when set, puts every node on durable.OpenSharded with the
	// product's default flush policy (FsyncEvery 0, SnapshotEvery 1024).
	dataDir string
	seed    int64
	// tr, when set, wraps every seam with the tracing decorators.
	tr *tracer
}

// ring is a booted, converged ring and the client-side handle onto it.
type ring struct {
	cfg     ringConfig
	nodes   []*wire.Node
	cluster *wire.Cluster
	// net is what the index layer talks to: the cluster, or its decorator.
	net overlay.Network
	// traced is net when tracing is on.
	traced *tracedNetwork
	// clientRetry is the cluster's retry layer; its Calls counter is the
	// number of RPCs the client issued.
	clientRetry *wire.RetryingTransport
	tcps        []*wire.TCPTransport // every transport instance, client last
	durables    []*wire.ShardedStore
	dirs        []string
	// reg receives the durable stores' counters; the WAL byte count is
	// only published there.
	reg *telemetry.Registry
}

const replication = 1

// stabilizeInterval and repairEvery set the nodes' maintenance cadence.
// The program's defaults (25 ms, every 4th round) are sized for tests —
// "production would use seconds" — and at that cadence anti-entropy
// re-ships every replica set ten times a second, so that the write
// workloads measure little else. A production ring stabilizing every
// second would run anti-entropy every 4 s; the benchmark keeps that
// anti-entropy period but stabilizes every 100 ms, because a ring
// converges in a number of rounds and every set-up waits for it.
const (
	stabilizeInterval = 100 * time.Millisecond
	repairEvery       = 40
)

func retryPolicy(seed int64) wire.RetryPolicy {
	return wire.RetryPolicy{
		Seed:    seed,
		Budget:  &wire.RetryBudget{},
		Breaker: &wire.BreakerPolicy{Seed: seed + 1},
	}
}

// bootRing starts the nodes, joins them one by one and waits for the ring
// to converge.
func bootRing(cfg ringConfig) (r *ring, err error) {
	r = &ring{cfg: cfg, reg: telemetry.NewRegistry()}
	defer func() {
		if err != nil {
			r.stop()
		}
	}()
	var shared wire.Transport
	if !cfg.tcp {
		shared = wire.NewMemTransport()
	}
	transport := func(node nodeID) wire.Transport {
		tp := shared
		if cfg.tcp {
			tcp := wire.NewTCPTransport()
			r.tcps = append(r.tcps, tcp)
			tp = tcp
		}
		if cfg.tr != nil {
			tp = &tracedTransport{inner: tp, tr: cfg.tr, node: node}
		}
		return tp
	}
	for i := 0; i < cfg.nodes; i++ {
		id := nodeID(i + 1)
		var store wire.Store
		if cfg.dataDir != "" {
			dir := filepath.Join(cfg.dataDir, fmt.Sprintf("node-%02d", i))
			sharded, err := durable.OpenSharded(dir, 0, durable.Options{})
			if err != nil {
				return r, err
			}
			sharded.Instrument(r.reg)
			r.durables = append(r.durables, sharded)
			r.dirs = append(r.dirs, dir)
			store = sharded
		}
		if cfg.tr != nil {
			inner, ok := store.(wire.ConcurrentStore)
			if !ok {
				inner = wire.NewShardedMemStore(0)
			}
			store = &tracedStore{ConcurrentStore: inner, tr: cfg.tr, node: id}
		}
		policy := retryPolicy(cfg.seed + 10 + int64(2*i))
		ncfg := wire.Config{
			Transport:         transport(id),
			Addr:              "mem:0",
			StabilizeInterval: stabilizeInterval,
			RepairEvery:       repairEvery,
			ReplicationFactor: replication,
			Retry:             &policy,
			Admission:         &wire.AdmissionConfig{},
			Store:             store,
		}
		var n *wire.Node
		if cfg.tcp {
			// A busy port is skipped for the next-best one, and said so:
			// the node's position moves, and every count with it.
			for k, addr := range spreadAddrs(i, cfg.nodes) {
				ncfg.Addr = addr
				if n, err = wire.Start(ncfg); err == nil {
					if k > 0 {
						fmt.Fprintf(os.Stderr, "benchmark: node %d: %d preferred port(s) busy, listening on %s: this run's ring differs from other runs'\n", i, k, addr)
					}
					break
				}
			}
		} else {
			n, err = wire.Start(ncfg)
		}
		if err != nil {
			if store != nil {
				_ = store.Close()
			}
			return r, fmt.Errorf("start node %d: %w", i, err)
		}
		r.nodes = append(r.nodes, n)
		if i > 0 {
			if err := n.Join(r.nodes[0].Addr()); err != nil {
				return r, fmt.Errorf("join node %d: %w", i, err)
			}
		}
		if i == 1 {
			// Let the two-node ring close before the others join. Until the
			// first node has a successor it answers every join with itself,
			// and stabilization then untangles the ring one node per round.
			// Joins routed through a closed ring land at most a few nodes
			// off, which a few rounds repair whatever the ring's size.
			for deadline := time.Now().Add(30 * time.Second); r.nodes[0].Successor() != n.Addr(); {
				if time.Now().After(deadline) {
					return r, fmt.Errorf("two-node ring never closed")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	r.clientRetry = wire.NewRetryingTransport(transport(0), retryPolicy(cfg.seed+2))
	r.cluster = wire.NewCluster(r.clientRetry, cfg.seed+3, replication)
	for _, n := range r.nodes {
		r.cluster.Track(n.Addr())
	}
	r.net = r.cluster
	if cfg.tr != nil {
		r.traced = &tracedNetwork{inner: r.cluster, tr: cfg.tr}
		r.net = r.traced
	}
	if err := r.cluster.WaitConverged(30 * time.Second); err != nil {
		return r, err
	}
	return r, nil
}

// portBase and portsPerNode give every TCP node its own block of
// loopback ports, below Linux's ephemeral range.
const (
	portBase     = 21000
	portsPerNode = 64
)

// spreadAddrs returns node i's candidate listen addresses, best first. A
// node's ring position is the SHA-1 of its address, so ports picked by
// the kernel would give every run another ring: other arc lengths, other
// hot nodes, other hop counts. Instead each node takes, from its own
// block of ports, the one whose position lies closest to i/n of the way
// round the ring, which makes every run's ring the same and its arcs
// nearly even.
func spreadAddrs(i, n int) []string {
	target := float64(i) / float64(n)
	type cand struct {
		addr string
		off  float64
	}
	cands := make([]cand, portsPerNode)
	for k := range cands {
		addr := fmt.Sprintf("127.0.0.1:%d", portBase+i*portsPerNode+k)
		id := keyspace.NewKey(addr)
		pos := float64(binary.BigEndian.Uint64(id[:8])) / (1 << 64)
		off := math.Abs(pos - target)
		cands[k] = cand{addr, math.Min(off, 1-off)}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].off < cands[b].off })
	addrs := make([]string, len(cands))
	for k, c := range cands {
		addrs[k] = c.addr
	}
	return addrs
}

// stop halts every node (closing its store) and every pooled connection.
func (r *ring) stop() {
	for _, n := range r.nodes {
		n.Stop()
	}
	for _, tcp := range r.tcps {
		tcp.CloseConnections()
	}
	r.nodes = nil
}

// poolStats sums the connection-pool counters of every transport
// instance. Each wire byte is counted once, at its sender.
func (r *ring) poolStats() wire.PoolStats {
	var sum wire.PoolStats
	for _, tcp := range r.tcps {
		ps := tcp.PoolStats()
		sum.Dials += ps.Dials
		sum.Reuses += ps.Reuses
		sum.Conns += ps.Conns
		sum.BytesSent += ps.BytesSent
	}
	return sum
}

// retryStats sums the retry and breaker counters of the client and every
// node.
func (r *ring) retryStats() (wire.RetryStats, wire.BreakerStats) {
	rs, bs := r.clientRetry.Stats(), r.clientRetry.BreakerStats()
	for _, n := range r.nodes {
		rs.Merge(n.RetryStats())
		bs.Merge(n.BreakerStats())
	}
	return rs, bs
}

func (r *ring) admissionStats() wire.AdmissionStats {
	var sum wire.AdmissionStats
	for _, n := range r.nodes {
		sum.Merge(n.AdmissionStats())
	}
	return sum
}

// walBytes returns the bytes appended to every node's WAL so far (0 on
// in-memory stores).
func (r *ring) walBytes() int64 {
	var buf bytes.Buffer
	if err := r.reg.WriteText(&buf); err != nil {
		return 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "wire_wal_bytes_total "); ok {
			n, _ := strconv.ParseFloat(rest, 64)
			return int64(n)
		}
	}
	return 0
}

func (r *ring) keyCount() int {
	total := 0
	for _, n := range r.nodes {
		total += n.KeyCount()
	}
	return total
}

// dirBytes sums the sizes of the regular files under the given roots.
func dirBytes(roots ...string) (int64, error) {
	var total int64
	for _, root := range roots {
		err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.Type().IsRegular() {
				info, err := d.Info()
				if err != nil {
					return err
				}
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// copyDataDir copies a sharded data directory while its node is running,
// as a crash would leave it. Within each stripe the WAL is copied before
// the snapshot: a compaction renames the new snapshot into place before
// it resets the WAL, so an old WAL beside a new snapshot replays
// correctly (covered records are skipped) while the reverse would lose
// the records in between.
func copyDataDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	var later []string
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		switch {
		case e.IsDir():
			if err := copyDataDir(from, to); err != nil {
				return err
			}
		case e.Name() == "wal.log":
			if err := copyFile(from, to); err != nil {
				return err
			}
		default:
			later = append(later, e.Name())
		}
	}
	for _, name := range later {
		err := copyFile(filepath.Join(src, name), filepath.Join(dst, name))
		if err != nil && !os.IsNotExist(err) { // a snapshot.tmp may vanish mid-copy
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
