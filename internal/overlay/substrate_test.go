package overlay_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/pastry"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
)

var errFault = errors.New("injected read fault")

// seam wraps a Network: it counts Puts and fails every read of the keys
// in its fail set.
type seam struct {
	overlay.Network
	mu   sync.Mutex
	puts int64
	fail map[keyspace.Key]bool
}

func newSeam(n overlay.Network) *seam { return &seam{Network: n, fail: make(map[keyspace.Key]bool)} }

func (s *seam) failKey(key keyspace.Key) {
	s.mu.Lock()
	s.fail[key] = true
	s.mu.Unlock()
}

func (s *seam) failing(key keyspace.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fail[key]
}

func (s *seam) shipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts
}

func (s *seam) Put(key keyspace.Key, e overlay.Entry) (overlay.Route, error) {
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return s.Network.Put(key, e)
}

func (s *seam) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	if s.failing(key) {
		return nil, overlay.Route{}, errFault
	}
	return s.Network.Get(key)
}

// decorator has the Network methods, PutBatch and GetCtx and nothing
// else, as a tracing decorator of the live cluster does: AsSubstrate
// keeps its own PutBatch and GetCtx and builds the rest per key.
type decorator struct {
	*seam
	cluster *wire.Cluster
	// handed counts the items its PutBatch was given, which a tracing
	// decorator counts as the batch.
	handed *atomic.Int64
}

func (d decorator) PutBatch(ctx context.Context, items []overlay.KeyEntry) error {
	d.handed.Add(int64(len(items)))
	return d.cluster.PutBatch(ctx, items)
}

// RemoveBatch completes overlay.BatchNetwork, whose PutBatch AsSubstrate
// keeps; no Substrate method calls it.
func (d decorator) RemoveBatch(ctx context.Context, items []overlay.KeyEntry) (int, error) {
	return d.cluster.RemoveBatch(ctx, items)
}

func (d decorator) GetCtx(ctx context.Context, key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	if d.failing(key) {
		return nil, overlay.Route{}, errFault
	}
	return d.cluster.GetCtx(ctx, key)
}

// contractRow is one substrate the contract is checked against.
type contractRow struct {
	sub overlay.Substrate
	// parallel is GetBatch's bound: 1 on a substrate that is not safe
	// for concurrent use.
	parallel int
	// fail makes every read of key fail from then on; nil when the row
	// has no seam to inject a per-key fault at.
	fail func(key keyspace.Key)
	// shipped counts the (key, entry) pairs PutBatch has sent so far,
	// and perItem says whether a repeated pair is sent once per item
	// (true) or once per batch. A decorator's own PutBatch is handed the
	// batch as given, repeats and all.
	shipped func() int64
	perItem bool
	// conditional says whether GetUnlessCtx answers "unchanged".
	conditional bool
}

func memRing(t *testing.T) *wire.MemRing {
	t.Helper()
	ring, err := wire.StartMemRing(8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ring.Close)
	return ring
}

// putKeys counts the pairs a cluster's batched puts shipped.
func putKeys(c *wire.Cluster) func() int64 {
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	counter := reg.Counter("wire_batch_put_keys_total", "")
	return counter.Value
}

// contractRows are the substrates of the table: the live cluster, the
// live ring and the Pastry simulation driven per key, and a decorator of
// the cluster taken through AsSubstrate.
func contractRows(t *testing.T) map[string]func(t *testing.T) contractRow {
	return map[string]func(t *testing.T) contractRow{
		// The cluster's own per-key fault isolation under crashed owners
		// is internal/wire's TestGetBatchCrashedOwner.
		"cluster": func(t *testing.T) contractRow {
			ring := memRing(t)
			return contractRow{sub: ring.Cluster, parallel: 4, shipped: putKeys(ring.Cluster), conditional: true}
		},
		"perkey-chord": func(t *testing.T) contractRow {
			s := newSeam(memRing(t))
			return contractRow{sub: overlay.PerKey(s), parallel: 4, fail: s.failKey, shipped: s.shipped, perItem: true}
		},
		"perkey-pastry": func(t *testing.T) contractRow {
			net := pastry.NewNetwork()
			if _, err := net.Populate(16); err != nil {
				t.Fatal(err)
			}
			s := newSeam(pastry.AsOverlay(net, 3))
			return contractRow{sub: overlay.PerKey(s), parallel: 1, fail: s.failKey, shipped: s.shipped, perItem: true}
		},
		"decorator": func(t *testing.T) contractRow {
			ring := memRing(t)
			d := decorator{seam: newSeam(ring), cluster: ring.Cluster, handed: new(atomic.Int64)}
			return contractRow{sub: overlay.AsSubstrate(d), parallel: 4, fail: d.failKey, shipped: d.handed.Load, perItem: true}
		},
	}
}

func key(name string) keyspace.Key { return keyspace.NewKey("contract:" + name) }

func entry(v string) overlay.Entry { return overlay.Entry{Kind: "index", Value: v} }

// store puts entries under name's key one at a time.
func store(t *testing.T, sub overlay.Substrate, name string, values ...string) keyspace.Key {
	t.Helper()
	k := key(name)
	for _, v := range values {
		if _, err := sub.Put(k, entry(v)); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// sorted returns a sorted copy: the contract fixes a set, not its order.
func sorted(entries []overlay.Entry) []overlay.Entry {
	out := slices.Clone(entries)
	slices.SortFunc(out, wire.CompareEntries)
	return out
}

// TestSubstrateContract holds every substrate the index layer can be
// given to the Substrate contract, one table of checks for all of them.
func TestSubstrateContract(t *testing.T) {
	ctx := context.Background()
	checks := []struct {
		name string
		run  func(t *testing.T, row contractRow)
	}{
		{"get-batch-keeps-order", func(t *testing.T, row contractRow) {
			a := store(t, row.sub, "a", "a1", "a2")
			b := store(t, row.sub, "b", "b1")
			c := store(t, row.sub, "c", "c1", "c2", "c3")
			keys := []keyspace.Key{c, key("empty"), a, b, a, c}
			got := row.sub.GetBatch(ctx, keys, nil, row.parallel)
			if len(got) != len(keys) {
				t.Fatalf("%d results for %d keys", len(got), len(keys))
			}
			for i, k := range keys {
				want, _, err := row.sub.GetCtx(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Err != nil || !slices.Equal(sorted(got[i].Entries), sorted(want)) {
					t.Errorf("position %d: %v, %v; want %v", i, got[i].Entries, got[i].Err, want)
				}
			}
			if !slices.Equal(got[2].Entries, got[4].Entries) || !slices.Equal(got[0].Entries, got[5].Entries) {
				t.Errorf("a repeated key was answered two ways: %v / %v, %v / %v",
					got[2].Entries, got[4].Entries, got[0].Entries, got[5].Entries)
			}
		}},
		{"get-batch-keeps-errors-to-their-key", func(t *testing.T, row contractRow) {
			if row.fail == nil {
				t.Skip("no seam to inject a per-key fault at")
			}
			a := store(t, row.sub, "ok-a", "a1")
			bad := store(t, row.sub, "broken", "x1")
			b := store(t, row.sub, "ok-b", "b1", "b2")
			row.fail(bad)
			got := row.sub.GetBatch(ctx, []keyspace.Key{a, bad, b, bad}, nil, row.parallel)
			if !errors.Is(got[1].Err, errFault) || !errors.Is(got[3].Err, errFault) {
				t.Errorf("the broken key read %v / %v, want the fault", got[1], got[3])
			}
			if got[0].Err != nil || len(got[0].Entries) != 1 || got[2].Err != nil || len(got[2].Entries) != 2 {
				t.Errorf("a fault leaked to other keys: %+v, %+v", got[0], got[2])
			}
		}},
		{"prune-reports-empty-keys-in-order", func(t *testing.T, row contractRow) {
			x := store(t, row.sub, "x", "x1")
			y := store(t, row.sub, "y", "y1", "y2")
			z := key("never-stored")
			emptied, err := row.sub.Prune(ctx, []overlay.KeyEntry{
				{Key: z, Entry: entry("z1")},
				{Key: y, Entry: entry("y1")},
				{Key: x, Entry: entry("x1")},
				{Key: z, Entry: entry("z2")},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(emptied, []keyspace.Key{z, x}) {
				t.Errorf("emptied %v, want [%v %v]", emptied, z, x)
			}
			if left, _, err := row.sub.GetCtx(ctx, y); err != nil || !slices.Equal(left, []overlay.Entry{entry("y2")}) {
				t.Errorf("y holds %v, %v; want y2 alone", left, err)
			}
		}},
		{"put-batch-repeated-pair", func(t *testing.T, row contractRow) {
			d := key("dup")
			p, q := overlay.KeyEntry{Key: d, Entry: entry("p")}, overlay.KeyEntry{Key: d, Entry: entry("q")}
			before := row.shipped()
			if err := row.sub.PutBatch(ctx, []overlay.KeyEntry{p, q, p}); err != nil {
				t.Fatal(err)
			}
			want := int64(2)
			if row.perItem {
				want = 3
			}
			if got := row.shipped() - before; got != want {
				t.Errorf("PutBatch of p, q, p shipped %d pairs, want %d", got, want)
			}
			if held, _, err := row.sub.GetCtx(ctx, d); err != nil || len(held) != 2 {
				t.Errorf("the key holds %v, %v; want p and q once each", held, err)
			}
		}},
		{"get-unless", func(t *testing.T, row contractRow) {
			k := store(t, row.sub, "held", "h1", "h2")
			held, _, err := row.sub.GetCtx(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			entries, _, unchanged, err := row.sub.GetUnlessCtx(ctx, k, overlay.Digest(held))
			switch {
			case err != nil:
				t.Fatal(err)
			case unchanged != row.conditional:
				t.Errorf("offering the held set's digest answered unchanged = %v, want %v", unchanged, row.conditional)
			case !unchanged && !slices.Equal(sorted(entries), sorted(held)):
				t.Errorf("an unconditional answer read %v, want %v", entries, held)
			case unchanged && entries != nil:
				t.Errorf("an unchanged answer shipped %v", entries)
			}
		}},
		{"get-batch-unless", func(t *testing.T, row contractRow) {
			held := store(t, row.sub, "batch-held", "h1", "h2")
			plain := store(t, row.sub, "batch-plain", "p1")
			heldSet, _, err := row.sub.GetCtx(ctx, held)
			if err != nil {
				t.Fatal(err)
			}
			got := row.sub.GetBatch(ctx, []keyspace.Key{held, plain, key("batch-empty")},
				[]uint64{overlay.Digest(heldSet), 0, 0}, row.parallel)
			if r := got[0]; r.Err != nil || r.Unchanged != row.conditional ||
				(r.Unchanged && r.Entries != nil) || (!r.Unchanged && !slices.Equal(sorted(r.Entries), sorted(heldSet))) {
				t.Errorf("the offered key read %+v, want unchanged = %v", r, row.conditional)
			}
			for _, r := range got[1:] {
				if r.Err != nil || r.Unchanged {
					t.Errorf("a key offered nothing read %+v", r)
				}
			}
			if len(got[1].Entries) != 1 || len(got[2].Entries) != 0 {
				t.Errorf("unoffered keys read %v and %v", got[1].Entries, got[2].Entries)
			}
		}},
	}
	for name, build := range contractRows(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			row := build(t)
			for _, c := range checks {
				t.Run(c.name, func(t *testing.T) { c.run(t, row) })
			}
		})
	}
}
