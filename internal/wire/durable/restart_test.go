package durable

import (
	"fmt"
	"testing"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

// TestSingleNodeCrashRestartRejoin exercises the documented restart
// recipe directly: put through a small ring, crash-stop one member (no
// handoff), reopen its directory, restart on the same address, rejoin,
// and observe both its recovered local state and its ring membership.
func TestSingleNodeCrashRestartRejoin(t *testing.T) {
	dir := t.TempDir()
	mt := wire.NewMemTransport()
	openStore := func() *Store {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return s
	}

	cfg := func(addr string, st wire.Store) wire.Config {
		return wire.Config{
			Transport:         mt,
			Addr:              addr,
			StabilizeInterval: 10 * time.Millisecond,
			ReplicationFactor: 1,
			Store:             st,
		}
	}
	a, err := wire.Start(cfg("mem:0", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := wire.Start(cfg("mem:0", openStore()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	bAddr := b.Addr()

	cluster := wire.NewCluster(mt, 1, 1)
	cluster.Track(a.Addr())
	cluster.Track(bAddr)
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("ring never formed: %v", err)
	}
	keys := make([]keyspace.Key, 0, 20)
	for i := 0; i < 20; i++ {
		key := keyspace.NewKey(fmt.Sprintf("restart-%d", i))
		if _, err := cluster.Put(key, overlay.Entry{Kind: "soak", Value: fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
		keys = append(keys, key)
	}
	before := b.KeyCount()
	if before == 0 {
		t.Fatal("node under test holds no keys; seed more entries")
	}

	// Crash-stop: Stop without Leave hands nothing off, but closes the
	// store cleanly so the directory can be reopened.
	b.Stop()
	cluster.Untrack(bAddr)

	// Restart from the same directory on the same address: the ring ID
	// is derived from the address, so the node resumes its old position.
	b2, err := wire.Start(cfg(bAddr, openStore()))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer b2.Stop()
	if b2.Addr() != bAddr {
		t.Fatalf("restarted on %s, want %s", b2.Addr(), bAddr)
	}
	if got := b2.KeyCount(); got != before {
		t.Fatalf("recovered %d keys, want %d", got, before)
	}
	if err := b2.Join(a.Addr()); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	cluster.Track(bAddr)
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("ring never re-formed: %v", err)
	}
	for _, k := range keys {
		entries, _, err := cluster.Get(k)
		if err != nil || len(entries) == 0 {
			t.Fatalf("key %s unreadable after restart: %v", k.Short(), err)
		}
	}
}
