package wire

// The node's data-plane lock split (ISSUE 10, DESIGN.md §17). Before
// it, every Get/Put/digest/transfer serialized on the single Node.mu —
// routing reads and bulk repair scans contended with each other and
// with every client read. Now Node.mu guards routing state only, and
// the store synchronizes itself behind ConcurrentStore: the default is
// a key-striped shard set where concurrent reads of different keys (and
// reads of the SAME key) proceed in parallel, and a store that cannot
// be striped (one durable WAL directory) is its one-stripe case.

import (
	"sync"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
)

// DefaultStoreStripes is the default shard count of a node's in-memory
// store. Sized well above any plausible host parallelism so two
// concurrent operations rarely meet on a stripe, while keeping the
// full-iteration cost (Len, ForEach, repair scans) trivial.
const DefaultStoreStripes = 16

// ConcurrentStore is the node-facing synchronized store seam: a Store
// that is safe for concurrent use and additionally offers per-key
// atomic critical sections. The node's handlers, maintenance loops and
// repair paths call it from many goroutines at once; implementations
// provide the mutual exclusion that Node.mu used to.
//
// Plain Store implementations (MemStore, internal/wire/durable) remain
// NOT concurrent-safe by contract; the node wraps whatever Config.Store
// it is given — see NewShardedMemStore and asConcurrentStore.
type ConcurrentStore interface {
	Store
	// Update runs fn as one atomic critical section over key's state:
	// no other operation on key (or its stripe) runs concurrently. fn
	// receives the underlying, unsynchronized Store and must touch only
	// key — calling the ConcurrentStore itself from within fn would
	// self-deadlock. Update returns fn's error; mutations fn already
	// applied are not rolled back.
	Update(key keyspace.Key, fn func(s Store) error) error
	// View is Update's read-only counterpart: fn runs under the key's
	// read lock, concurrently with other readers. fn must not mutate.
	View(key keyspace.Key, fn func(s Store) error) error
}

// ShardedStore stripes keys across independently locked Stores, so
// operations on different stripes never contend and reads of one stripe
// share a reader-writer lock. Whole-store operations (ForEach, Len,
// GCTombstones, Sync, Close) visit stripes one at a time in index
// order — the fixed acquisition order that keeps concurrent full scans
// and per-key updates deadlock-free.
//
// A key's stripe is derived from its top byte, which for SHA-1 ring
// keys is uniformly distributed. The mapping is stable for a fixed
// stripe count; a PERSISTENT sharded store must therefore be re-opened
// with the same count (durable.OpenSharded enforces this with a marker
// file).
type ShardedStore struct {
	stripes []storeStripe
}

// storeStripe is one shard: its lock and its backing store.
type storeStripe struct {
	mu sync.RWMutex
	s  Store
}

var _ ConcurrentStore = (*ShardedStore)(nil)

// NewShardedStore combines the given stores into one ShardedStore; the
// caller supplies one independent Store per stripe (nil entries get a
// fresh MemStore). An empty slice yields DefaultStoreStripes MemStores.
func NewShardedStore(stores []Store) *ShardedStore {
	if len(stores) == 0 {
		return NewShardedMemStore(0)
	}
	st := &ShardedStore{stripes: make([]storeStripe, len(stores))}
	for i, s := range stores {
		if s == nil {
			s = NewMemStore()
		}
		st.stripes[i].s = s
	}
	return st
}

// NewShardedMemStore returns a ShardedStore over stripes fresh
// MemStores (stripes <= 0 selects DefaultStoreStripes). This is the
// node's default store.
func NewShardedMemStore(stripes int) *ShardedStore {
	if stripes <= 0 {
		stripes = DefaultStoreStripes
	}
	stores := make([]Store, stripes)
	for i := range stores {
		stores[i] = NewMemStore()
	}
	return NewShardedStore(stores)
}

// Stripes returns the stripe count (diagnostics and the durable
// reopen-consistency check).
func (st *ShardedStore) Stripes() int { return len(st.stripes) }

// stripe maps a key to its shard.
func (st *ShardedStore) stripe(key keyspace.Key) *storeStripe {
	return &st.stripes[int(key[0])%len(st.stripes)]
}

// Get implements Store.
func (st *ShardedStore) Get(key keyspace.Key) []overlay.Entry {
	sp := st.stripe(key)
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.s.Get(key)
}

// Digest implements Store.
func (st *ShardedStore) Digest(key keyspace.Key) uint64 {
	sp := st.stripe(key)
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.s.Digest(key)
}

// Put implements Store.
func (st *ShardedStore) Put(key keyspace.Key, e overlay.Entry) (bool, error) {
	sp := st.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.s.Put(key, e)
}

// Remove implements Store.
func (st *ShardedStore) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	sp := st.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.s.Remove(key, e)
}

// Replace implements Store.
func (st *ShardedStore) Replace(key keyspace.Key, entries []overlay.Entry, tombs []Tombstone) error {
	sp := st.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.s.Replace(key, entries, tombs)
}

// Tombstoned implements Store.
func (st *ShardedStore) Tombstoned(key keyspace.Key, e overlay.Entry) bool {
	sp := st.stripe(key)
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.s.Tombstoned(key, e)
}

// Tombstones implements Store.
func (st *ShardedStore) Tombstones(key keyspace.Key) []Tombstone {
	sp := st.stripe(key)
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.s.Tombstones(key)
}

// HeldTombstones implements Store: a copy, since the stripe's lock is
// released before the caller reads it. Under View or Update, the
// stripe's own store lends its slice.
func (st *ShardedStore) HeldTombstones(key keyspace.Key) []Tombstone { return st.Tombstones(key) }

// Entomb implements Store.
func (st *ShardedStore) Entomb(key keyspace.Key, tombs []Tombstone) (int, error) {
	sp := st.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.s.Entomb(key, tombs)
}

// ForEachTombstone implements Store, visiting stripes in index order.
func (st *ShardedStore) ForEachTombstone(fn func(key keyspace.Key, tombs []Tombstone) bool) {
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.RLock()
		done := false
		sp.s.ForEachTombstone(func(k keyspace.Key, tombs []Tombstone) bool {
			if !fn(k, tombs) {
				done = true
				return false
			}
			return true
		})
		sp.mu.RUnlock()
		if done {
			return
		}
	}
}

// GCTombstones implements Store, collecting stripe by stripe.
func (st *ShardedStore) GCTombstones(before int64) (int, error) {
	total := 0
	var firstErr error
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		n, err := sp.s.GCTombstones(before)
		sp.mu.Unlock()
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// ForEach implements Store, visiting stripes in index order. Mutators
// of stripes not yet visited (or already passed) proceed concurrently:
// a full scan observes each stripe atomically, not the whole store.
func (st *ShardedStore) ForEach(fn func(key keyspace.Key, entries []overlay.Entry) bool) {
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.RLock()
		done := false
		sp.s.ForEach(func(k keyspace.Key, entries []overlay.Entry) bool {
			if !fn(k, entries) {
				done = true
				return false
			}
			return true
		})
		sp.mu.RUnlock()
		if done {
			return
		}
	}
}

// Len implements Store (the sum over stripes; consistent per stripe).
func (st *ShardedStore) Len() int {
	total := 0
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.RLock()
		total += sp.s.Len()
		sp.mu.RUnlock()
	}
	return total
}

// Sync implements Store, flushing every stripe (first error wins).
func (st *ShardedStore) Sync() error {
	var firstErr error
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		err := sp.s.Sync()
		sp.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Store, closing every stripe (first error wins).
func (st *ShardedStore) Close() error {
	var firstErr error
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.mu.Lock()
		err := sp.s.Close()
		sp.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Update implements ConcurrentStore: fn runs under the key's stripe
// write lock.
func (st *ShardedStore) Update(key keyspace.Key, fn func(s Store) error) error {
	sp := st.stripe(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return fn(sp.s)
}

// View implements ConcurrentStore: fn runs under the key's stripe read
// lock, concurrently with other readers.
func (st *ShardedStore) View(key keyspace.Key, fn func(s Store) error) error {
	sp := st.stripe(key)
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return fn(sp.s)
}

// RecoveryStats implements RecoverableStore by summing the stripes that
// replayed persistent state (zero when no stripe is recoverable).
func (st *ShardedStore) RecoveryStats() RecoveryStats {
	var total RecoveryStats
	for i := range st.stripes {
		if rs, ok := st.stripes[i].s.(RecoverableStore); ok {
			total.Merge(rs.RecoveryStats())
		}
	}
	return total
}

// Instrument implements InstrumentedStore by forwarding to every stripe
// that exports telemetry.
func (st *ShardedStore) Instrument(reg *telemetry.Registry) {
	for i := range st.stripes {
		if is, ok := st.stripes[i].s.(InstrumentedStore); ok {
			is.Instrument(reg)
		}
	}
}

// asConcurrentStore adapts a Config.Store to the node's synchronized
// seam: nil gets the default striped MemStore, an implementation that
// already synchronizes itself is used as-is, and anything else (one
// durable WAL directory, a MemStore a test handed in) becomes the
// one-stripe ShardedStore: a single reader-writer lock, so its reads
// still stop contending with each other.
func asConcurrentStore(s Store) ConcurrentStore {
	switch t := s.(type) {
	case nil:
		return NewShardedMemStore(0)
	case ConcurrentStore:
		return t
	default:
		return NewShardedStore([]Store{s})
	}
}
