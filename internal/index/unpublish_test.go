package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
)

var errCutShort = errors.New("injected: unpublish cut short")

// requestLog records the requests a cluster sends through it.
type requestLog struct {
	wire.Transport
	mu   sync.Mutex
	sent []wire.Message
	to   []string
}

func (l *requestLog) Call(addr string, req wire.Message) (wire.Message, error) {
	l.mu.Lock()
	l.sent, l.to = append(l.sent, req), append(l.to, addr)
	l.mu.Unlock()
	return l.Transport.Call(addr, req)
}

func (l *requestLog) take() (sent []wire.Message, to []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sent, to = l.sent, l.to
	l.sent, l.to = nil, nil
	return sent, to
}

// prunedRing is the live arm of the cascade test: a cluster over a
// converged, fully tracked ring at replication 1 whose Prune checks
// every level it carries — one OpRemoveBatch per owner of the level's
// keys, no read, and on an article's first unpublish nothing else
// either, because each owner reaches its follower itself. failAt > 0
// makes that Prune call (1 is level 0) fail once instead of running.
type prunedRing struct {
	*wire.Cluster
	t      *testing.T
	log    *requestLog
	oracle *wire.Cluster // same ring, unlogged: names a key's owner
	mem    wire.Transport
	nodes  []string
	strict bool
	failAt int
	prunes int
}

func newPrunedRing(t *testing.T, nodes int) *prunedRing {
	t.Helper()
	mt := wire.NewMemTransport()
	r := &prunedRing{t: t, log: &requestLog{Transport: mt}, mem: mt}
	r.Cluster, r.oracle = wire.NewCluster(r.log, 1, 1), wire.NewCluster(mt, 2, 1)
	r.nodes = startRing(t, mt, nodes, 1)
	for _, addr := range r.nodes {
		r.Track(addr)
		r.oracle.Track(addr)
	}
	if err := r.WaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *prunedRing) Prune(ctx context.Context, items []overlay.KeyEntry) ([]keyspace.Key, error) {
	if r.prunes++; r.prunes == r.failAt {
		r.failAt = 0
		return nil, errCutShort
	}
	owners := make(map[string]bool)
	for _, it := range items {
		route, err := r.oracle.FindOwner(it.Key)
		if err != nil {
			r.t.Fatal(err)
		}
		owners[route.Node] = true
	}
	r.log.take()
	emptied, err := r.Cluster.Prune(ctx, items)
	sent, to := r.log.take()
	batches := make(map[string]int)
	for i, req := range sent {
		switch {
		case req.Op == wire.OpRemoveBatch:
			batches[to[i]]++
		case req.Op == wire.OpRemoveReplica && !r.strict:
			// A repeated unpublish removes nothing at the owner, which then
			// propagates nothing and leaves the sweep to the client.
		default:
			r.t.Errorf("a prune of %d items sent %s to %s", len(items), req.Op, to[i])
		}
	}
	for owner := range owners {
		if batches[owner] != 1 {
			r.t.Errorf("owner %s received %d OpRemoveBatch for one level, want 1", owner, batches[owner])
		}
	}
	if len(batches) != len(owners) {
		r.t.Errorf("a level on %d owners sent OpRemoveBatch to %d nodes", len(owners), len(batches))
	}
	return emptied, err
}

// The cascade never reads and never removes one entry at a time when
// the substrate prunes.
func (r *prunedRing) Get(keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	r.t.Error("unpublish probed a key on a substrate that prunes")
	return nil, overlay.Route{}, errCutShort
}

func (r *prunedRing) Remove(keyspace.Key, overlay.Entry) (bool, error) {
	r.t.Error("unpublish removed a single entry on a substrate that prunes")
	return false, errCutShort
}

// cutShort is the adapter arm's fault: the substrate's failAt-th Remove
// fails once instead of running.
type cutShort struct {
	overlay.Network
	failAt  int
	removes int
}

func (c *cutShort) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	if c.removes++; c.removes == c.failAt {
		c.failAt = 0
		return false, errCutShort
	}
	return c.Network.Remove(key, e)
}

// indexState reads every key of the universe through the substrate and
// returns the entries of those that hold any.
func indexState(t *testing.T, get func(keyspace.Key) ([]overlay.Entry, overlay.Route, error), universe []keyspace.Key) map[keyspace.Key][]overlay.Entry {
	t.Helper()
	state := make(map[keyspace.Key][]overlay.Entry)
	for _, k := range universe {
		entries, _, err := get(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 0 {
			entries = slices.Clone(entries)
			slices.SortFunc(entries, wire.CompareEntries)
			state[k] = entries
		}
	}
	return state
}

// TestUnpublishCascadeLeavesOnlySurvivors is the equivalence the
// level-by-level unpublish rests on. For every scheme — including one
// that forks below a shared key and one that splices keyword chains
// into another's — a corpus dense in shared authors, conferences and
// conf+year pairs is published, a random half is unpublished in random
// order, and what is left must be exactly what publishing only the
// survivors on a fresh ring leaves: over the live replicated ring,
// where each level is one Prune, and over a second ring driven through
// overlay.PerKey, where the same loop runs on per-key removes and
// probes. A third of the unpublishes run twice and a third are cut
// short by an injected fault and run again; both must finish the
// cleanup, which they do because a key's emptiness is read from its
// state. On the replicated ring no node, owner or replica, may hold a
// removed entry afterwards.
func TestUnpublishCascadeLeavesOnlySurvivors(t *testing.T) {
	schemes := []Scheme{Simple, Flat, Complex, Fig4, forkScheme{}, WithKeywords(Complex, 4)}
	for si, scheme := range schemes {
		t.Run(scheme.Name(), func(t *testing.T) {
			t.Parallel()
			seed := int64(si + 1)
			corpus, err := dataset.Generate(dataset.Config{
				Articles: 48, Authors: 8, Conferences: 3, FirstYear: 2000, LastYear: 2002, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			arts := corpus.Articles
			file := func(i int) string { return fmt.Sprintf("f-%d.pdf", i) }
			var universe []keyspace.Key
			for _, a := range arts {
				for _, chain := range scheme.Chains(a) {
					for _, q := range chain {
						if k := q.Key(); !slices.Contains(universe, k) {
							universe = append(universe, k)
						}
					}
				}
			}

			ring := newPrunedRing(t, 5)
			perKey := &cutShort{Network: testRing(t, 8, seed)}
			live, adapter, fresh := New(ring, cache.None, 0), New(perKey, cache.None, 0), New(testRing(t, 8, seed+100), cache.None, 0)
			rng := rand.New(rand.NewSource(seed))
			order := rng.Perm(len(arts))
			gone := order[:len(arts)/2]
			for i, a := range arts {
				for _, svc := range []*Service{live, adapter} {
					if err := svc.PublishArticle(file(i), a, scheme); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Contains(gone, i) {
					if err := fresh.PublishArticle(file(i), a, scheme); err != nil {
						t.Fatal(err)
					}
				}
			}

			interrupted := make(map[*Service]int)
			unpublish := func(svc *Service, i int, arm func(failAt int)) {
				t.Helper()
				runs := 1
				switch i % 3 {
				case 1:
					runs = 2
				case 2:
					// The live arm fails at level 1 or at level 2 (which the flat
					// scheme never reaches); the adapter at its second or third
					// remove, inside level 1.
					arm(2 + i/3%2)
				}
				for run := 0; run < runs; run++ {
					ring.strict = run == 0
					err := svc.UnpublishArticle(file(i), arts[i], scheme)
					if errors.Is(err, errCutShort) {
						interrupted[svc]++
						ring.strict = false
						err = svc.UnpublishArticle(file(i), arts[i], scheme)
					}
					if err != nil {
						t.Fatalf("unpublish %d: %v", i, err)
					}
				}
				arm(0)
			}
			for _, i := range gone {
				unpublish(live, i, func(failAt int) { ring.prunes, ring.failAt = 0, failAt })
				unpublish(adapter, i, func(failAt int) { perKey.removes, perKey.failAt = 0, failAt })
			}
			if interrupted[live] == 0 || interrupted[adapter] == 0 {
				t.Fatalf("unpublishes cut short: %d pruned, %d per-key; the retry was never exercised", interrupted[live], interrupted[adapter])
			}

			want := indexState(t, fresh.Network().Get, universe)
			if len(want) == 0 || len(want) == len(universe) {
				t.Fatalf("%d of %d keys survive: the corpus does not exercise the cleanup", len(want), len(universe))
			}
			if got := indexState(t, ring.Cluster.Get, universe); !reflect.DeepEqual(got, want) {
				t.Errorf("live ring holds %d keys after the unpublishes, a ring of the survivors %d%s", len(got), len(want), stateDiff(got, want))
			}
			if got := indexState(t, perKey.Get, universe); !reflect.DeepEqual(got, want) {
				t.Errorf("per-key ring holds %d keys after the unpublishes, a ring of the survivors %d%s", len(got), len(want), stateDiff(got, want))
			}
			for _, addr := range ring.nodes {
				for _, k := range universe {
					resp, err := ring.mem.Call(addr, wire.Message{Op: wire.OpGet, Key: k})
					if err != nil || resp.Err != "" {
						t.Fatalf("local read at %s: %v %s", addr, err, resp.Err)
					}
					for _, e := range resp.Entries {
						if !slices.Contains(want[k], e) {
							t.Errorf("node %s still holds removed entry %v", addr, e)
						}
					}
				}
			}
		})
	}
}

// stateDiff lists the entries two index states disagree on.
func stateDiff(got, want map[keyspace.Key][]overlay.Entry) string {
	out := ""
	for k, entries := range got {
		for _, e := range entries {
			if !slices.Contains(want[k], e) {
				out += fmt.Sprintf("\n  left behind: %v", e)
			}
		}
	}
	for k, entries := range want {
		for _, e := range entries {
			if !slices.Contains(got[k], e) {
				out += fmt.Sprintf("\n  wrongly removed: %v", e)
			}
		}
	}
	return out
}

// TestUnpublishLevelsOnALiveRing pins the cascade's shape for the
// scheme the benchmark publishes with: a sole Complex article comes
// down in four prunes — the data entry, the three mappings into the
// most specific query, the four above those, the one above
// author+conf — and the walk stops there because nothing maps into the
// keys the last level emptied.
func TestUnpublishLevelsOnALiveRing(t *testing.T) {
	ring := newPrunedRing(t, 4)
	ring.strict = true
	svc := New(ring, cache.None, 0)
	a := descriptor.Fig1Articles()[0]
	if err := svc.PublishArticle("x.pdf", a, Complex); err != nil {
		t.Fatal(err)
	}
	if err := svc.UnpublishArticle("x.pdf", a, Complex); err != nil {
		t.Fatal(err)
	}
	if ring.prunes != 4 {
		t.Fatalf("unpublish took %d prunes, want 4", ring.prunes)
	}
	if stats := svc.StorageStats(); stats.IndexEntries != 0 || stats.DataEntries != 0 {
		t.Fatalf("entries left behind: %+v", stats)
	}
}
