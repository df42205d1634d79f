package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
	"dhtindex/internal/xpath"
)

// The probes are the P rows: fixed-iteration timings of public functions
// of single layers, with nothing else running. They give the unit costs
// the traced rows are multiples of. Each value is a mean over its
// iterations.

// timePer runs fn n times and returns the mean time of one call.
func timePer(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sink keeps results alive so the compiler cannot drop the probed calls.
var sink int

func runProbes(rc runConfig) (values, error) {
	v := values{}
	articles, err := corpus(512, 0)
	if err != nil {
		return nil, err
	}
	div := rc.sz.probeDiv
	probeXPath(v, articles, 20000/div)
	probeCache(v, 50000/div)
	probeShardedStore(v, 100000/div)
	if err := probeRetry(v, 50000/div); err != nil {
		return nil, err
	}
	if err := probeEcho(v, 3000/div); err != nil {
		return nil, err
	}
	if err := probeDurable(v, rc.tmpRoot, 10000/div); err != nil {
		return nil, err
	}
	return v, nil
}

func probeXPath(v values, articles []descriptor.Article, n int) {
	msds := make([]xpath.Query, len(articles))
	authors := make([]xpath.Query, len(articles))
	for i, a := range articles {
		msds[i] = dataset.MSD(a)
		authors[i] = dataset.AuthorQuery(a.AuthorFirst, a.AuthorLast)
	}
	v["xpath.parse_us"] = us(timePer(n, func(i int) {
		q, err := xpath.Parse(msds[i%len(msds)].String())
		if err == nil {
			sink += q.Constraints()
		}
	}))
	v["xpath.covers_us"] = us(timePer(n, func(i int) {
		if authors[i%len(authors)].Covers(msds[i%len(msds)]) {
			sink++
		}
	}))
	v["xpath.msd_key_us"] = us(timePer(n, func(i int) {
		key := xpath.MostSpecific(articles[i%len(articles)].Descriptor()).Key()
		sink += int(key[0])
	}))
}

// probeCache times one Add + Targets + Touch on a shortcut store held at
// the benchmark's LRU capacity, so every Add evicts.
func probeCache(v values, n int) {
	store := cache.NewStore(fullSizes.lruCapacity)
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = fmt.Sprintf("/article[author[last/name-%03d]]", i)
	}
	v["cache.store_op_us"] = us(timePer(n, func(i int) {
		q, target := queries[i%len(queries)], queries[(i*7+1)%len(queries)]
		store.Add(q, target)
		sink += len(store.Targets(q))
		store.Touch(q, target)
	}))
}

// probeShardedStore times gets and puts on the node's default 16-stripe
// in-memory store: 100,000 keys at full scale, 2 goroutines.
func probeShardedStore(v values, keys int) {
	const workers = 2
	store := wire.NewShardedMemStore(0)
	ks := make([]keyspace.Key, keys)
	for i := range ks {
		ks[i] = keyspace.NewKey(fmt.Sprint("probe-key-", i))
	}
	entry := overlay.Entry{Kind: "index", Value: "/article[title/probe]"}
	both := func(fn func(i int)) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < keys; i += workers {
					fn(i)
				}
			}(w)
		}
		wg.Wait()
		return time.Since(start) * workers / time.Duration(keys)
	}
	v["wire.store.sharded_put_ns"] = float64(both(func(i int) { _, _ = store.Put(ks[i], entry) }))
	v["wire.store.sharded_get_ns"] = float64(both(func(i int) { _ = store.Get(ks[i]) }))
}

func echoHandler(req wire.Message) wire.Message {
	if req.Op == wire.OpGet {
		entries := make([]overlay.Entry, 64)
		for i := range entries {
			entries[i] = overlay.Entry{Kind: "index", Value: fmt.Sprintf("/article[author[first/A][last/B]][title/T%02d]", i)}
		}
		return wire.Message{Op: req.Op, Ok: true, Entries: entries}
	}
	return wire.Message{Op: req.Op, Ok: true}
}

// probeRetry times an echo over MemTransport with and without the retry
// layer in front; the difference is the layer's pass-through cost.
func probeRetry(v values, n int) error {
	mem := wire.NewMemTransport()
	addr, closer, err := mem.Listen("mem:0", echoHandler)
	if err != nil {
		return err
	}
	defer closer.Close()
	ping := wire.Message{Op: wire.OpPing}
	var callErr error
	call := func(tp wire.Transport) time.Duration {
		return timePer(n, func(int) {
			if _, err := tp.Call(addr, ping); err != nil {
				callErr = err
			}
		})
	}
	bare := call(mem)
	wrapped := call(wire.NewRetryingTransport(mem, retryPolicy(1)))
	v["wire.retry.overhead_us"] = us(wrapped - bare)
	return callErr
}

// probeEcho times a pooled TCP round trip at two message sizes: a ping,
// and a get answered with 64 index entries.
func probeEcho(v values, n int) error {
	server, client := wire.NewTCPTransport(), wire.NewTCPTransport()
	addr, closer, err := server.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		return err
	}
	defer closer.Close()
	defer client.CloseConnections()
	for _, size := range []struct {
		name string
		req  wire.Message
	}{
		{"small", wire.Message{Op: wire.OpPing}},
		{"large", wire.Message{Op: wire.OpGet, Key: keyspace.NewKey("probe")}},
	} {
		if _, err := client.Call(addr, size.req); err != nil { // dial and negotiate
			return err
		}
		var callErr error
		var before, after runtime.MemStats
		sent := client.PoolStats().BytesSent + server.PoolStats().BytesSent
		runtime.ReadMemStats(&before)
		per := timePer(n, func(int) {
			if _, err := client.Call(addr, size.req); err != nil {
				callErr = err
			}
		})
		runtime.ReadMemStats(&after)
		if callErr != nil {
			return callErr
		}
		sent = client.PoolStats().BytesSent + server.PoolStats().BytesSent - sent
		v["wire.transport.echo_"+size.name+"_us"] = us(per)
		v["wire.transport.echo_"+size.name+"_bytes"] = float64(sent) / float64(n)
		v["wire.transport.echo_"+size.name+"_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return nil
}

// probeDurable times a put on one durable store without and with
// fsync-per-append, and the pause of compacting 10,000 keys into a
// snapshot (at full scale). The disk is the sandbox's: the fsync row is
// informational.
func probeDurable(v values, tmpRoot string, keys int) error {
	dir, err := os.MkdirTemp(tmpRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	entry := overlay.Entry{Kind: "index", Value: "/article[title/probe]"}
	put := func(sub string, opts durable.Options, n int) (*durable.Store, time.Duration, error) {
		store, err := durable.Open(dir+"/"+sub, opts)
		if err != nil {
			return nil, 0, err
		}
		var putErr error
		per := timePer(n, func(i int) {
			if _, err := store.Put(keyspace.NewKey(fmt.Sprint(sub, i)), entry); err != nil {
				putErr = err
			}
		})
		return store, per, putErr
	}
	// SnapshotEvery -1: no automatic compaction inside the timed loops.
	store, per, err := put("nosync", durable.Options{SnapshotEvery: -1}, keys)
	if err != nil {
		return err
	}
	v["wire.durable.put_us"] = us(per)
	start := time.Now()
	err = store.Snapshot()
	v["wire.durable.snapshot_pause_ms"] = float64(time.Since(start)) / 1e6
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	store, per, err = put("fsync", durable.Options{SnapshotEvery: -1, FsyncEvery: 1}, keys/100)
	if err != nil {
		return err
	}
	v["wire.durable.put_fsync_us"] = us(per)
	return store.Close()
}
