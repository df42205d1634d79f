package wire_test

// Wire fast-path benchmarks: the pooled transport's round trip, batched
// vs sequential cluster puts, batched vs sequential article publish, and
// parallel vs sequential automated search, timed on loopback TCP (and
// publish and a contended search on MemTransport too; CI's bench smoke
// step runs each once), and concurrent directed finds on MemTransport.
// What these operations cost in
// messages and bytes is counted, not timed, by TestCostLedger; the
// pooled round trip's bytes and allocations are gated by
// TestPooledCallCost, and the server's share of them by
// TestServerHandOffCost.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/index"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/workload"
	"dhtindex/internal/xpath"
)

// benchEcho answers immediately; transport cost dominates.
func benchEcho(req wire.Message) wire.Message {
	return wire.Message{Op: req.Op, Ok: true, Addr: req.Addr}
}

// BenchmarkTransportCall measures one round-trip RPC on loopback TCP
// over a persistent framed connection. Run with -benchmem for the
// allocs/op column.
func BenchmarkTransportCall(b *testing.B) {
	server := wire.NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", benchEcho)
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	defer closer.Close()

	b.Run("pooled", func(b *testing.B) {
		client := wire.NewTCPTransport()
		req := wire.Message{Op: wire.OpPing, Addr: "bench"}
		if _, err := client.Call(addr, req); err != nil { // warm the pool
			b.Fatalf("warmup call: %v", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Call(addr, req); err != nil {
				b.Fatalf("call: %v", err)
			}
		}
	})
}

// Pooled-call budget: a Ping round trip is a 21-byte request frame and
// a 22-byte reply frame. It allocates nothing: each side's connection
// decodes the Addr it decoded last, which a Ping repeats, to the string
// it already holds.
const (
	pooledCallBytes     = 43
	pooledCallMaxAllocs = 0
)

// TestPooledCallCost holds a warmed pooled TCP round trip to its exact
// bytes and to the allocation cap. The allocation count is process-wide,
// server goroutine included; it is not checked under the race detector.
func TestPooledCallCost(t *testing.T) {
	server := wire.NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", benchEcho)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()
	client := wire.NewTCPTransport()
	defer client.CloseConnections()
	req := wire.Message{Op: wire.OpPing, Addr: "bench"}
	call := func() {
		if _, err := client.Call(addr, req); err != nil {
			t.Fatalf("call: %v", err)
		}
	}
	call() // warm the pool

	const calls = 100
	before := client.PoolStats()
	for range calls {
		call()
	}
	after := client.PoolStats()
	moved := after.BytesSent + after.BytesReceived - before.BytesSent - before.BytesReceived
	if moved != pooledCallBytes*calls {
		t.Errorf("%d calls moved %d bytes, want %d per call", calls, moved, pooledCallBytes)
	}
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(500, call)
	t.Logf("%.1f allocations per call", allocs)
	if allocs > pooledCallMaxAllocs {
		t.Errorf("%.1f allocations per call, cap %d", allocs, pooledCallMaxAllocs)
	}
}

// TestServerHandOffCost pins the server's side of a request: reading its
// frame, handing it to a worker and writing the reply allocate nothing
// beyond what the request's decode returns, and a scalar-only request
// decodes to nothing. The client is a bare socket that writes a prepared
// frame and reads the reply into a prepared buffer.
func TestServerHandOffCost(t *testing.T) {
	server := wire.NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", func(req wire.Message) wire.Message {
		return wire.Message{Op: req.Op, Ok: true, TTL: req.TTL}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer closer.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	frame := func(id uint64, m *wire.Message) []byte {
		b := wire.AppendMessage(make([]byte, wire.FrameHeaderSize), m)
		binary.BigEndian.PutUint64(b[0:8], id)
		binary.BigEndian.PutUint32(b[8:12], uint32(len(b)-wire.FrameHeaderSize))
		return b
	}
	req := frame(1, &wire.Message{Op: wire.OpPing, TTL: 3})
	reply := make([]byte, len(frame(1, &wire.Message{Op: wire.OpPing, Ok: true, TTL: 3})))
	call := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	call() // warm the server's connection and worker
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(500, call); allocs != 0 {
		t.Errorf("a scalar request through the server allocates %.1f times, want 0", allocs)
	}
}

// startBenchRing boots a converged live ring over tp (loopback TCP or
// MemTransport) and returns its cluster handle. The nodes listen on
// ports the system picks.
func startBenchRing(b *testing.B, nodes int, tp wire.Transport) *wire.Cluster {
	b.Helper()
	addr := "127.0.0.1:0"
	if _, mem := tp.(*wire.MemTransport); mem {
		addr = "mem:0"
	}
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = addr
	}
	return startBenchRingAt(b, tp, addrs, 0)
}

// spreadPorts are loopback addresses whose ring positions lie a quarter
// of the ring apart, so that a four-node ring on them splits the key
// space evenly and the same way on every boot.
var spreadPorts = []string{"127.0.0.1:41000", "127.0.0.1:41162", "127.0.0.1:41311", "127.0.0.1:41250"}

// startBenchRingAt is startBenchRing with one node listening on each of
// addrs, each replicating its keys to replication successors. A node
// whose fixed port is busy listens on one the system picks instead, and
// says so in the log: that run's ring, and the rows that depend on it,
// differ from the others'.
func startBenchRingAt(b *testing.B, tp wire.Transport, addrs []string, replication int) *wire.Cluster {
	b.Helper()
	cluster := wire.NewCluster(tp, 5, 0)
	var members []*wire.Node
	var bootstrap string
	for i, addr := range addrs {
		cfg := wire.Config{
			Transport:         tp,
			Addr:              addr,
			StabilizeInterval: 20 * time.Millisecond,
			ReplicationFactor: replication,
		}
		n, err := wire.Start(cfg)
		if host, port, _ := net.SplitHostPort(addr); err != nil && port != "0" {
			b.Logf("node %d: %s is busy (%v); it listens on a port the system picks", i, addr, err)
			cfg.Addr = net.JoinHostPort(host, "0")
			n, err = wire.Start(cfg)
		}
		if err != nil {
			b.Fatalf("start node %d: %v", i, err)
		}
		b.Cleanup(n.Stop)
		if bootstrap == "" {
			bootstrap = n.Addr()
		} else if err := n.Join(bootstrap); err != nil {
			b.Fatalf("join node %d: %v", i, err)
		}
		cluster.Track(n.Addr())
		members = append(members, n)
	}
	if err := cluster.WaitConverged(20 * time.Second); err != nil {
		wire.LogRingState(b, members, nil)
		b.Fatalf("ring never converged: %v", err)
	}
	return cluster
}

// BenchmarkClusterPutBatch stores 16 distinct keys per iteration over a
// live TCP ring: one PutBatch (parallel owner resolution, one message
// per owner) against 16 sequential routed Puts.
func BenchmarkClusterPutBatch(b *testing.B) {
	const keysPerOp = 16
	items := func(round int) []overlay.KeyEntry {
		out := make([]overlay.KeyEntry, keysPerOp)
		for i := range out {
			out[i] = overlay.KeyEntry{
				Key:   keyspace.NewKey(fmt.Sprintf("bench-batch-%d-%d", round, i)),
				Entry: overlay.Entry{Kind: "index", Value: fmt.Sprintf("v-%d-%d", round, i)},
			}
		}
		return out
	}
	b.Run("batch", func(b *testing.B) {
		cluster := startBenchRing(b, 4, wire.NewTCPTransport())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cluster.PutBatch(context.Background(), items(i)); err != nil {
				b.Fatalf("PutBatch: %v", err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		cluster := startBenchRing(b, 4, wire.NewTCPTransport())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range items(i) {
				if _, err := cluster.Put(it.Key, it.Entry); err != nil {
					b.Fatalf("Put: %v", err)
				}
			}
		}
	})
}

// BenchmarkPublish publishes one article per iteration with the Complex
// scheme (1 data entry + 8 distinct index mappings) over a live TCP
// ring: the batch fast path against the sequential per-mapping inserts.
// The acceptance bar for the batch path is ≥ 2×. The mem case is the
// batch path on a MemTransport ring, where the owner groups' whole
// client → owner chains run one after another on the caller.
func BenchmarkPublish(b *testing.B) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 64, Seed: 3})
	if err != nil {
		b.Fatalf("corpus: %v", err)
	}
	arts := corpus.Articles
	run := func(b *testing.B, tp wire.Transport, wrap func(*wire.Cluster) overlay.Network) {
		cluster := startBenchRing(b, 4, tp)
		svc := index.New(wrap(cluster), cache.None, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := arts[i%len(arts)]
			file := fmt.Sprintf("bench-%d.pdf", i)
			if err := svc.PublishArticle(file, a, index.Complex); err != nil {
				b.Fatalf("publish: %v", err)
			}
		}
	}
	batch := func(c *wire.Cluster) overlay.Network { return c }
	b.Run("batch", func(b *testing.B) {
		run(b, wire.NewTCPTransport(), batch)
	})
	b.Run("sequential", func(b *testing.B) {
		run(b, wire.NewTCPTransport(), func(c *wire.Cluster) overlay.Network { return overlay.PerKey(c) })
	})
	b.Run("mem", func(b *testing.B) {
		run(b, wire.NewMemTransport(), batch)
	})
}

// BenchmarkUnpublishTCP is the layer row of an unpublish: the §IV-C
// cascade's batched removals (DESIGN.md §20, §44) on a 4-node loopback
// ring at replication 1, the deployment publish_durable runs, with 32
// articles published under the complex scheme. Each iteration publishes
// one more article, untimed, and times the unpublish of the oldest, so
// the live set stays at 32. It reports the bytes the client sends and
// receives per unpublish (B/unpublish) and the bytes the ring's own
// transport moves meanwhile (ring-B/unpublish): the client's requests
// and replies as the owners see them, each owner's propagation to its
// replica counted at both ends, and whatever maintenance falls inside
// the unpublish.
func BenchmarkUnpublishTCP(b *testing.B) {
	const live = 32
	corpus, err := dataset.Generate(dataset.Config{Articles: live + b.N, Seed: 5})
	if err != nil {
		b.Fatalf("corpus: %v", err)
	}
	arts := corpus.Articles
	ringTP := wire.NewTCPTransport()
	ring := startBenchRingAt(b, ringTP, spreadPorts, 1)
	client := wire.NewTCPTransport()
	b.Cleanup(client.CloseConnections)
	cluster := wire.NewCluster(client, 5, 1)
	for _, addr := range ring.Addrs() {
		cluster.Track(addr)
	}
	svc := index.New(cluster, cache.None, 0)
	file := func(i int) string { return fmt.Sprintf("u-%d.pdf", i) }
	publish := func(i int) {
		if err := svc.PublishArticle(file(i), arts[i], index.Complex); err != nil {
			b.Fatalf("publish: %v", err)
		}
	}
	for i := 0; i < live; i++ {
		publish(i)
	}
	bytes := func(tp *wire.TCPTransport) int64 {
		stats := tp.PoolStats()
		return stats.BytesSent + stats.BytesReceived
	}
	var clientBytes, ringBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		publish(live + i)
		c0, r0 := bytes(client), bytes(ringTP)
		b.StartTimer()
		if err := svc.UnpublishArticle(file(i), arts[i], index.Complex); err != nil {
			b.Fatalf("unpublish: %v", err)
		}
		b.StopTimer()
		clientBytes += bytes(client) - c0
		ringBytes += bytes(ringTP) - r0
		b.StartTimer()
	}
	b.ReportMetric(float64(clientBytes)/float64(b.N), "B/unpublish")
	b.ReportMetric(float64(ringBytes)/float64(b.N), "ring-B/unpublish")
}

// BenchmarkSearchAllParallel explores the index DAG of a published
// corpus from a one-constraint query: the walk that looks its frontier
// up one key at a time (Parallelism 1) against the one that fetches each
// level in one owner-grouped GetBatch (Parallelism 8). The tcp cases
// search a conference of a 48-article corpus on three venues, whose
// levels hold several queries, alone on a 4-node loopback ring. They
// report the bytes the client sends and receives per search (B/search:
// every read offers the digest of the list it keeps, so a warm search
// ships verdicts, not lists, DESIGN.md §42), and the OpGetBatch
// messages and the keys in them (batches/search, batchkeys/search),
// which only parallel-8 sends. The mem cases walk an author's
// articles on a 32-node MemTransport ring of 2,000 articles while a
// second client runs directed finds without pause, as
// query_cached_mem's other client does, so that every core is busy
// when a level's owner groups are read (DESIGN.md §40).
func BenchmarkSearchAllParallel(b *testing.B) {
	tcpCorpus, err := dataset.Generate(dataset.Config{Articles: 48, Conferences: 3, Seed: 4})
	if err != nil {
		b.Fatalf("corpus: %v", err)
	}
	memCorpus, err := dataset.Generate(dataset.Config{Articles: 2000, Seed: 4})
	if err != nil {
		b.Fatalf("corpus: %v", err)
	}
	// The mem cases search for everything by the corpus's most prolific
	// author.
	wrote := make(map[[2]string]int)
	prolific := memCorpus.Articles[0]
	for _, a := range memCorpus.Articles {
		author := [2]string{a.AuthorFirst, a.AuthorLast}
		if wrote[author]++; wrote[author] > wrote[[2]string{prolific.AuthorFirst, prolific.AuthorLast}] {
			prolific = a
		}
	}
	// search times query, and reports how much each of counters rose
	// per search, under the counter's unit.
	search := func(b *testing.B, searcher *index.Searcher, query xpath.Query, counters map[string]func() int64) {
		if _, _, err := searcher.SearchAll(query); err != nil {
			b.Fatalf("warmup search: %v", err)
		}
		before := make(map[string]int64, len(counters))
		for unit, count := range counters {
			before[unit] = count()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, _, err := searcher.SearchAll(query)
			if err != nil {
				b.Fatalf("search: %v", err)
			}
			if len(results) == 0 {
				b.Fatal("search returned nothing")
			}
		}
		for unit, count := range counters {
			b.ReportMetric(float64(count()-before[unit])/float64(b.N), unit)
		}
	}
	tcp := func(b *testing.B, parallelism int) {
		ring := startBenchRingAt(b, wire.NewTCPTransport(), spreadPorts, 0)
		// The client has a transport of its own, so its byte counts
		// leave out the ring's maintenance traffic.
		client := wire.NewTCPTransport()
		b.Cleanup(client.CloseConnections)
		cluster := wire.NewCluster(client, 5, 0)
		for _, addr := range ring.Addrs() {
			cluster.Track(addr)
		}
		reg := telemetry.NewRegistry()
		cluster.Instrument(reg)
		svc := index.New(cluster, cache.None, 0)
		for i, a := range tcpCorpus.Articles {
			if err := svc.PublishArticle(fmt.Sprintf("s-%d.pdf", i), a, index.Complex); err != nil {
				b.Fatalf("publish: %v", err)
			}
		}
		searcher := index.NewSearcher(svc)
		searcher.Parallelism = parallelism
		search(b, searcher, dataset.ConfQuery(tcpCorpus.Articles[0].Conf), map[string]func() int64{
			"B/search": func() int64 {
				stats := client.PoolStats()
				return stats.BytesSent + stats.BytesReceived
			},
			"batches/search":   reg.Counter("wire_batch_get_rpcs_total", "").Value,
			"batchkeys/search": reg.Counter("wire_batch_get_keys_total", "").Value,
		})
	}
	mem := func(b *testing.B, parallelism int) {
		ring, err := wire.StartMemRing(32, 1, 5)
		if err != nil {
			b.Fatalf("ring: %v", err)
		}
		defer ring.Close()
		arts := memCorpus.Articles
		svc := index.New(ring, cache.LRU, 30)
		for i, a := range arts {
			if err := svc.PublishArticle(fmt.Sprintf("s-%d.pdf", i), a, index.Simple); err != nil {
				b.Fatalf("publish: %v", err)
			}
		}
		searcher := index.NewSearcher(svc)
		searcher.Parallelism = parallelism
		gen, err := workload.NewGenerator(arts, workload.PaperStructureModel(), 6)
		if err != nil {
			b.Fatalf("generator: %v", err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := gen.Next()
				_, _ = searcher.Find(q.Query, dataset.MSD(q.Target))
			}
		}()
		defer func() {
			close(stop)
			<-done
		}()
		search(b, searcher, dataset.AuthorQuery(prolific.AuthorFirst, prolific.AuthorLast), nil)
	}
	b.Run("sequential", func(b *testing.B) { tcp(b, 1) })
	b.Run("parallel-8", func(b *testing.B) { tcp(b, 8) })
	b.Run("mem-contended/sequential", func(b *testing.B) { mem(b, 1) })
	b.Run("mem-contended/parallel-8", func(b *testing.B) { mem(b, 8) })
}

// BenchmarkFindConcurrent runs directed finds from the paper's query
// structure model against one index service on a 32-node MemTransport
// ring of 2,000 articles (simple scheme, LRU-30 caches), from as many
// clients as -cpu allows, each with its own query stream. Run it at
// -cpu 1,2: the second client adds finds per second only when the
// clients do not queue on a lock they all take (DESIGN.md §41).
func BenchmarkFindConcurrent(b *testing.B) {
	corpus, err := dataset.Generate(dataset.Config{Articles: 2000, Seed: 4})
	if err != nil {
		b.Fatalf("corpus: %v", err)
	}
	arts := corpus.Articles
	ring, err := wire.StartMemRing(32, 1, 5)
	if err != nil {
		b.Fatalf("ring: %v", err)
	}
	defer ring.Close()
	svc := index.New(ring, cache.LRU, 30)
	for i, a := range arts {
		if err := svc.PublishArticle(fmt.Sprintf("s-%d.pdf", i), a, index.Simple); err != nil {
			b.Fatalf("publish: %v", err)
		}
	}
	// clientFinds returns a client's find loop over its own query stream.
	clientFinds := func(seed int64) (func(), error) {
		gen, err := workload.NewGenerator(arts, workload.PaperStructureModel(), seed)
		searcher := index.NewSearcher(svc)
		return func() {
			q := gen.Next()
			if _, err := searcher.Find(q.Query, dataset.MSD(q.Target)); err != nil {
				b.Errorf("find: %v", err)
			}
		}, err
	}
	warm, err := clientFinds(6)
	if err != nil {
		b.Fatalf("generator: %v", err)
	}
	for i := 0; i < 2000; i++ {
		warm()
	}
	var seeds atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		find, err := clientFinds(7 + seeds.Add(1))
		if err != nil {
			b.Errorf("generator: %v", err)
			return
		}
		for pb.Next() {
			find()
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "finds/s")
}
