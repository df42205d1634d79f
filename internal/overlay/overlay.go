// Package overlay defines the substrate contract between the indexing
// layer and the underlying P2P DHT. The paper's techniques "can be
// layered on top of an arbitrary P2P DHT infrastructure" (§I); this
// interface is that boundary. Two substrates implement it, both routing
// recursively on a ring: Chord (the live ring of internal/wire) and the
// simulated Pastry (internal/pastry). docs/SUBSTRATES.md documents the
// contract field by field and what adding a third substrate takes.
//
// Network is what a substrate must provide: the single-key primitives.
// Substrate is what the index layer calls: Network plus one method per
// batched, conditional or deadline-aware operation. The live
// wire.Cluster implements Substrate itself; PerKey builds the extra
// methods from the Network ones, one message per key, which is the
// accounting the paper's evaluation measures. BatchNetwork and
// ContextNetwork name the parts of the extra methods a decorator may
// have on its own; AsSubstrate keeps them.
package overlay

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dhtindex/internal/keyspace"
)

// Entry is one value stored under a key. The substrate must support
// multiple entries per key (§II: "we only require the underlying
// distributed data storage system to allow for the registration of
// multiple entries using the same key").
type Entry struct {
	// Kind partitions a node's store (e.g. "index", "data").
	Kind string
	// Value is the opaque payload.
	Value string
}

// EntryHash is the 64-bit hash of one entry that Digest sums: FNV-1a
// over the kind's length as a uvarint, the kind and the value, then a
// 64-bit finalizer so that every input bit reaches every output bit.
// The length prefix makes the hashed bytes decode to one (kind, value)
// pair, so two entries share a hash only by a 64-bit collision, never
// because a kind's bytes run into its value's ({"a\x00", "x"} and
// {"a", "\x00x"} differ). It is unseeded, so every process computes the
// same value.
func EntryHash(e Entry) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	n := uint64(len(e.Kind))
	for ; n >= 0x80; n >>= 7 {
		h = (h ^ (n&0x7f | 0x80)) * prime
	}
	h = (h ^ n) * prime
	for i := 0; i < len(e.Kind); i++ {
		h = (h ^ uint64(e.Kind[i])) * prime
	}
	for i := 0; i < len(e.Value); i++ {
		h = (h ^ uint64(e.Value[i])) * prime
	}
	// MurmurHash3's fmix64.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb53cc5a49e63
	h ^= h >> 33
	return h
}

// Digest summarizes an entry set: the sum of its entries' EntryHash,
// wrapping. A sum does not depend on order, so a store can keep it up
// to date entry by entry — add an entry's hash when it is stored,
// subtract it when it goes — and two holders of one set agree on it
// however the set was built. The empty set digests to 0.
func Digest(entries []Entry) uint64 {
	var d uint64
	for _, e := range entries {
		d += EntryHash(e)
	}
	return d
}

// Route reports where a routed operation landed and what it cost.
type Route struct {
	// Node is the address of the node responsible for the key.
	Node string
	// Hops is the number of inter-node routing messages used.
	Hops int
}

// NodeStats is the per-node storage accounting the evaluation reads.
type NodeStats struct {
	// Keys is the number of distinct keys stored.
	Keys int
	// EntriesByKind counts stored entries per kind.
	EntriesByKind map[string]int
	// BytesByKind sums payload bytes (plus per-key overhead) per kind.
	BytesByKind map[string]int64
}

// Network is the key-to-node substrate the index layer runs on.
// Implementations route from an arbitrary live node and are free to pick
// the contact point (the paper's user contacts "the node n responsible
// for h(q)" through whatever entry point the overlay provides).
type Network interface {
	// Put stores an entry on the node responsible for key. Storing the
	// same (Kind, Value) twice under one key is idempotent.
	Put(key keyspace.Key, e Entry) (Route, error)
	// Get returns all entries stored under key.
	Get(key keyspace.Key) ([]Entry, Route, error)
	// Remove deletes the exact entry under key, reporting whether it
	// existed.
	Remove(key keyspace.Key, e Entry) (bool, error)
	// Addrs lists the live node addresses in a stable order.
	Addrs() []string
	// StatsOf returns the storage accounting of one node.
	StatsOf(addr string) (NodeStats, error)
	// Size returns the number of live nodes.
	Size() int
}

// KeyEntry is one (key, entry) pair of a batched mutation.
type KeyEntry struct {
	// Key is the DHT key the entry is stored under.
	Key keyspace.Key
	// Entry is the stored value.
	Entry Entry
}

// BatchNetwork is the bulk-mutation half of a substrate that groups
// items by owner, so each responsible node receives a single batched
// message. Substrate carries its PutBatch; RemoveBatch, whose count no
// index operation reads, stays outside the contract.
type BatchNetwork interface {
	// PutBatch stores every item (same idempotency contract as Put).
	// Puts are idempotent, so a caller may retry a failed batch whole.
	PutBatch(ctx context.Context, items []KeyEntry) error
	// RemoveBatch deletes every item, returning how many entries
	// actually existed and were removed.
	RemoveBatch(ctx context.Context, items []KeyEntry) (int, error)
}

// ContextNetwork is the deadline-aware read of a substrate: it threads
// the caller's budget through its reads, so retries, failover probes
// and backoff sleeps stop the moment the budget is spent.
type ContextNetwork interface {
	// GetCtx is Get bounded by ctx.
	GetCtx(ctx context.Context, key keyspace.Key) ([]Entry, Route, error)
}

// GetResult is one key's outcome of a batched read: what GetCtx, or
// GetUnlessCtx for a key the batch offered a digest for, would have
// returned for that key alone.
type GetResult struct {
	// Entries are the entries stored under the key.
	Entries []Entry
	// Route names the node that answered for the key.
	Route Route
	// Unchanged reports that the key's live set, non-empty, had the
	// digest the batch offered for it; Entries is then nil and the
	// caller serves the set it holds. It is never set for a key the
	// batch offered nothing for.
	Unchanged bool
	// Err is the key's own failure; other keys of the batch are
	// unaffected by it.
	Err error
}

// Substrate is the contract the index layer runs on: the single-key
// Network plus one method per operation the layer makes over many keys,
// over a deadline, or against a set it already holds. The index layer
// makes exactly one call per operation; whether that call is one
// message per owner or one per key is the substrate's business. Every
// read the layer makes of a key it keeps a list for offers that list's
// digest, alone (GetUnlessCtx) or in a batch (GetBatch); a substrate
// may always ignore the offer and read the set.
type Substrate interface {
	Network
	// GetCtx is Get bounded by ctx.
	GetCtx(ctx context.Context, key keyspace.Key) ([]Entry, Route, error)
	// GetUnlessCtx is GetCtx for a caller holding a set whose Digest is
	// digest (never 0). unchanged reports that the key's live set,
	// non-empty, had that digest when it was read; entries are then nil
	// and the caller serves what it holds. Otherwise it returns what
	// GetCtx would. A substrate may always read unconditionally.
	GetUnlessCtx(ctx context.Context, key keyspace.Key, digest uint64) (entries []Entry, route Route, unchanged bool, err error)
	// GetBatch reads every key, with at most parallel reads or messages
	// in flight. offers is nil, or holds one digest per key: a non-zero
	// one makes that key's read conditional, as GetUnlessCtx's, so its
	// result may be Unchanged. The result has one element per key, in
	// the order given (a repeated key, which must repeat its offer, gets
	// the same answer at each position). A key fails alone: its error
	// never hides another key's entries, and a key that could not be
	// read reports an error, never an empty success.
	GetBatch(ctx context.Context, keys []keyspace.Key, offers []uint64, parallel int) []GetResult
	// PutBatch stores every item (same idempotency contract as Put), so
	// a caller may retry a failed batch whole. An item may repeat; it is
	// stored once either way.
	PutBatch(ctx context.Context, items []KeyEntry) error
	// Prune deletes every item and returns, in the order the keys first
	// appear in items, each key of the batch that holds no entry once
	// its removals are applied. Emptiness is the key's state, not the
	// batch's effect: a key that was already empty is returned although
	// nothing was removed from it, which is what lets a caller repeat an
	// interrupted cleanup and have it finish. On error the keys are
	// those of the groups that did succeed.
	Prune(ctx context.Context, items []KeyEntry) (emptied []keyspace.Key, err error)
}

// PerKey returns n as a Substrate made of n's single-key calls alone:
//   - GetCtx checks ctx once, then is one Get;
//   - GetUnlessCtx is GetCtx: it never answers "unchanged";
//   - GetBatch is one GetCtx per key, at most parallel at a time: it
//     ignores the offers and never answers "unchanged" either;
//   - PutBatch is one Put per item, in order, stopping at the first
//     failure;
//   - Prune is one Remove per item, then one Get per distinct key.
//
// It is the one-message-per-key accounting the paper's experiments
// measure, whatever else n can do.
func PerKey(n Network) Substrate { return perKey{Network: n} }

// AsSubstrate is how the index layer takes a Network: n itself when it
// is a Substrate, else PerKey(n) with n's own GetCtx (ContextNetwork)
// and PutBatch (BatchNetwork) in place of the per-key ones, so a
// decorator that has those makes the calls it has always made.
func AsSubstrate(n Network) Substrate {
	if s, ok := n.(Substrate); ok {
		return s
	}
	p := perKey{Network: n}
	p.ctx, _ = n.(ContextNetwork)
	p.batch, _ = n.(BatchNetwork)
	return p
}

// perKey is the Substrate PerKey and AsSubstrate build. ctx and batch,
// when set, are the wrapped network's own GetCtx and PutBatch.
type perKey struct {
	Network
	ctx   ContextNetwork
	batch BatchNetwork
}

func (p perKey) GetCtx(ctx context.Context, key keyspace.Key) ([]Entry, Route, error) {
	if p.ctx != nil {
		return p.ctx.GetCtx(ctx, key)
	}
	if err := ctx.Err(); err != nil {
		return nil, Route{}, err
	}
	return p.Get(key)
}

func (p perKey) GetUnlessCtx(ctx context.Context, key keyspace.Key, _ uint64) ([]Entry, Route, bool, error) {
	entries, route, err := p.GetCtx(ctx, key)
	return entries, route, false, err
}

func (p perKey) GetBatch(ctx context.Context, keys []keyspace.Key, _ []uint64, parallel int) []GetResult {
	out := make([]GetResult, len(keys))
	sem := make(chan struct{}, max(parallel, 1))
	var wg sync.WaitGroup
	for i := range keys {
		sem <- struct{}{}
		wg.Add(1)
		go func(g *GetResult, key keyspace.Key) {
			defer wg.Done()
			defer func() { <-sem }()
			g.Entries, g.Route, g.Err = p.GetCtx(ctx, key)
		}(&out[i], keys[i])
	}
	wg.Wait()
	return out
}

func (p perKey) PutBatch(ctx context.Context, items []KeyEntry) error {
	if p.batch != nil {
		return p.batch.PutBatch(ctx, items)
	}
	for _, it := range items {
		if _, err := p.Put(it.Key, it.Entry); err != nil {
			return fmt.Errorf("put %s entry %q: %w", it.Entry.Kind, it.Entry.Value, err)
		}
	}
	return nil
}

func (p perKey) Prune(ctx context.Context, items []KeyEntry) ([]keyspace.Key, error) {
	var keys, emptied []keyspace.Key
	for _, it := range items {
		if _, err := p.Remove(it.Key, it.Entry); err != nil {
			return nil, fmt.Errorf("remove %s entry %q: %w", it.Entry.Kind, it.Entry.Value, err)
		}
		if !slices.Contains(keys, it.Key) {
			keys = append(keys, it.Key)
		}
	}
	for _, k := range keys {
		entries, _, err := p.GetCtx(ctx, k)
		if err != nil {
			return emptied, fmt.Errorf("probe %s: %w", k, err)
		}
		if len(entries) == 0 {
			emptied = append(emptied, k)
		}
	}
	return emptied, nil
}
